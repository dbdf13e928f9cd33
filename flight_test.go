package dsm_test

import (
	"bytes"
	"reflect"
	"testing"

	dsm "repro"
	"repro/internal/flight"
	"repro/internal/memory"
	"repro/internal/oracle"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// flightWorkload is a small mixed workload: lock-protected counter
// increments force lock handoffs and consecutive remote writes (so AT
// migrates homes), and a barrier closes each round. attach, when
// non-nil, adds subscribers beside the flight ring.
func flightWorkload(t *testing.T, attach func(*dsm.Config)) (*dsm.Cluster, []flight.Event, dsm.Metrics) {
	t.Helper()
	cfg := dsm.Config{Nodes: 4, Policy: "AT", FlightCap: 4096, DebugWire: true}
	if attach != nil {
		attach(&cfg)
	}
	c := dsm.New(cfg)
	counter := c.NewObject("counter", 1, 0)
	lock := c.NewLock(0)
	bar := c.NewBarrier(0, 4)
	m, err := c.Run(4, func(th dsm.Thread) {
		for round := 0; round < 3; round++ {
			for i := 0; i < 5; i++ {
				th.Acquire(lock)
				th.Write(counter, 0, th.Read(counter, 0)+1)
				th.Release(lock)
			}
			th.Barrier(bar)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, c.FlightEvents(), m
}

// TestSimFlightTimelineDeterministic is the acceptance gate for the sim
// recorder: the merged cluster timeline of two identical runs must be
// byte-identical — the stamps are virtual time plus a per-node sequence,
// so any divergence means the kernel or the recorder perturbed event
// order. The set of other subscribers is one more input that must not
// show: the ring stamps the events it stores, so a sink, a Trace and the
// oracle listening to the same sites leave the timeline (and the final
// memory) exactly as the ring alone sees it.
func TestSimFlightTimelineDeterministic(t *testing.T) {
	render := func(attach func(*dsm.Config)) ([]byte, uint64) {
		c, evs, _ := flightWorkload(t, attach)
		var buf bytes.Buffer
		if err := flight.WriteText(&buf, evs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), c.Digest()
	}
	base, digest := render(nil)
	if len(base) == 0 {
		t.Fatal("empty timeline")
	}
	var (
		sink = telemetry.NewSink(0)
		tr   = dsm.NewTrace()
		rec  = oracle.NewRecorder(4)
	)
	for _, set := range []struct {
		name   string
		attach func(*dsm.Config)
	}{
		{"ring", nil},
		{"ring+sink", func(c *dsm.Config) { c.Telemetry = telemetry.NewSink(0) }},
		{"ring+sink+trace+oracle", func(c *dsm.Config) { c.Telemetry, c.Trace, c.Observer = sink, tr, rec }},
	} {
		got, d := render(set.attach)
		if !bytes.Equal(base, got) {
			t.Errorf("sim flight timeline with subscribers {%s} diverges from the ring-only run:\n%s\nvs\n%s",
				set.name, base, got)
		}
		if d != digest {
			t.Errorf("subscribers {%s} changed the final memory: digest %#x, want %#x", set.name, d, digest)
		}
	}
	// The extra subscribers were really listening.
	if sink.Total() == 0 || tr.Len() == 0 || rec.Len() == 0 {
		t.Errorf("subscribers saw nothing: sink %d, trace %d, oracle %d", sink.Total(), tr.Len(), rec.Len())
	}
	if viols := rec.Check(nil); len(viols) > 0 {
		t.Errorf("oracle: %v", viols[0])
	}
}

// TestSimFlightTimelineContent checks the recorder captured every event
// family the workload exercises, that migration decisions carry their
// reason and compared values, and that the latency histograms populated.
func TestSimFlightTimelineContent(t *testing.T) {
	c, evs, m := flightWorkload(t, nil)

	var kinds [flight.NumKinds]int
	for _, e := range evs {
		kinds[e.Kind]++
	}
	for _, k := range []flight.Kind{
		flight.FrameSend, flight.FrameRecv, flight.Decision,
		flight.LockGrant, flight.BarrierRelease, flight.HomeRead,
		flight.HomeWrite, flight.Request,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	// Every frame on the wire is recorded once where it leaves and once
	// where it arrives, whether a daemon or a thread (ObjReq, LockReq,
	// LockRel, BarrierArrive, MgrQuery) sent it. A broadcast is one send
	// event (Peer = NoNode) standing for N−1 frames.
	sends := 0
	for _, e := range evs {
		if e.Kind == flight.FrameSend {
			if e.Peer == memory.NoNode {
				sends += 4 - 1
			} else {
				sends++
			}
		}
	}
	if total := int(m.TotalMsgs(true)); sends != total || kinds[flight.FrameRecv] != total {
		t.Errorf("frame-send %d, frame-recv %d, want both = %d messages",
			sends, kinds[flight.FrameRecv], total)
	}
	if m.Migrations > 0 && kinds[flight.Decision] == 0 {
		t.Error("homes migrated but no decision events recorded")
	}
	for _, e := range evs {
		if e.Kind == flight.Decision && e.Migrated {
			if e.Reason.String() == "none" || e.Limit <= 0 {
				t.Errorf("migrate decision lacks explanation: %+v", e)
			}
			break
		}
	}
	if m.LockHandoffNs.Count() == 0 || m.BarrierNs.Count() == 0 || m.RoundTripNs.Count() == 0 {
		t.Errorf("latency histograms empty: lock=%d barrier=%d rtt=%d",
			m.LockHandoffNs.Count(), m.BarrierNs.Count(), m.RoundTripNs.Count())
	}
	// Per-node recorders exist for every node and the merged view is
	// HLC-ordered.
	recs := c.FlightRecorders()
	if len(recs) != 4 {
		t.Fatalf("got %d recorders, want 4", len(recs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Stamp().Less(evs[i-1].Stamp()) {
			t.Fatalf("merged timeline out of HLC order at %d: %+v then %+v",
				i, evs[i-1], evs[i])
		}
	}
}

// TestLiveTraceMatchesFlightTimeline attaches Config.Trace to the live
// engine — one more subscriber of the events the rings keep, its
// deliveries serialized by the engine — and checks the two recordings
// of one run against each other: the classifier must build the same
// profile, object for object, from the Trace's log and from the merged
// flight timeline (rings large enough not to wrap). Every classified
// event of an object is emitted at its current home under that node's
// lock, so the two orders agree per object even though the run itself is
// not reproducible.
func TestLiveTraceMatchesFlightTimeline(t *testing.T) {
	for _, policy := range []string{"AT", "NoHM", "JUMP"} {
		tr := dsm.NewTrace()
		c := dsm.New(dsm.Config{Nodes: 4, Policy: policy, Engine: "live", Trace: tr, FlightCap: 1 << 14})
		counter := c.NewObject("counter", 1, 0)
		rows := c.NewArray("rows", 4, 8, dsm.RoundRobin)
		lock := c.NewLock(0)
		bar := c.NewBarrier(0, 4)
		_, err := c.Run(4, func(th dsm.Thread) {
			mine := (th.ID() + 1) % 4 // a row homed on the next node
			for round := 0; round < 4; round++ {
				for i := 0; i < 5; i++ {
					th.Acquire(lock)
					th.Write(counter, 0, th.Read(counter, 0)+1)
					th.Release(lock)
				}
				rows.SetInt64(th, mine, round, int64(round+1))
				th.Barrier(bar)
				_ = rows.Int64(th, (mine+1)%4, round)
				th.Barrier(bar)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		for _, r := range c.FlightRecorders() {
			if r.Total() != uint64(r.Len()) {
				t.Fatalf("%s: node %d ring wrapped (%d recorded, %d kept)", policy, r.Node(), r.Total(), r.Len())
			}
		}
		fromTrace := dsm.AnalyzeTrace(tr)
		fromFlight := trace.Analyze(c.FlightEvents())
		if len(fromTrace) == 0 {
			t.Fatalf("%s: the trace classified no objects (%d events)", policy, tr.Len())
		}
		if !reflect.DeepEqual(fromTrace, fromFlight) {
			t.Errorf("%s: profiles differ between Config.Trace and the flight timeline:\n%s\nvs\n%s",
				policy, trace.Report(fromTrace), trace.Report(fromFlight))
		}
	}
}
