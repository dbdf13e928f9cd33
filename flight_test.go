package dsm_test

import (
	"bytes"
	"testing"

	dsm "repro"
	"repro/internal/flight"
	"repro/internal/memory"
)

// flightWorkload is a small mixed workload: lock-protected counter
// increments force lock handoffs and consecutive remote writes (so AT
// migrates homes), and a barrier closes each round.
func flightWorkload(t *testing.T) (*dsm.Cluster, []flight.Event, dsm.Metrics) {
	t.Helper()
	c := dsm.New(dsm.Config{Nodes: 4, Policy: "AT", FlightCap: 4096, DebugWire: true})
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
// order.
func TestSimFlightTimelineDeterministic(t *testing.T) {
	render := func() []byte {
		_, evs, _ := flightWorkload(t)
		var buf bytes.Buffer
		if err := flight.WriteText(&buf, evs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if len(a) == 0 {
		t.Fatal("empty timeline")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("sim flight timeline diverges across identical runs:\n%s\nvs\n%s", a, b)
	}
}

// TestSimFlightTimelineContent checks the recorder captured every event
// family the workload exercises, that migration decisions carry their
// reason and compared values, and that the latency histograms populated.
func TestSimFlightTimelineContent(t *testing.T) {
	c, evs, m := flightWorkload(t)

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
