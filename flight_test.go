package dsm_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"

	dsm "repro"
	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/flight"
	"repro/internal/memory"
	"repro/internal/oracle"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// flightWorkloadCap is flightWorkload's ring capacity per node, large
// enough that no ring wraps.
const flightWorkloadCap = 4096

// flightWorkload is a small mixed workload: lock-protected counter
// increments force lock handoffs and consecutive remote writes (so AT
// migrates homes), and a barrier closes each round. attach, when
// non-nil, adds subscribers beside the flight ring.
func flightWorkload(t *testing.T, attach func(*dsm.Config)) (*dsm.Cluster, []flight.Event, dsm.Metrics) {
	t.Helper()
	cfg := dsm.Config{Nodes: 4, Policy: "AT", FlightCap: flightWorkloadCap, DebugWire: true}
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
// memory) exactly as the ring alone sees it. Each of them, on either
// engine, gets every event of its kinds exactly once.
func TestSimFlightTimelineDeterministic(t *testing.T) {
	render := func(attach func(*dsm.Config)) ([]byte, uint64, []flight.Event) {
		c, evs, _ := flightWorkload(t, attach)
		var buf bytes.Buffer
		if err := flight.WriteText(&buf, evs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), c.Digest(), evs
	}
	base, digest, _ := render(nil)
	if len(base) == 0 {
		t.Fatal("empty timeline")
	}
	var (
		sink = telemetry.NewSink(0)
		tr   = dsm.NewTrace()
		rec  = flight.NewLog(oracle.Kinds, nil)
		all  []flight.Event
	)
	for _, set := range []struct {
		name   string
		attach func(*dsm.Config)
	}{
		{"ring", nil},
		{"ring+sink", func(c *dsm.Config) { c.Telemetry = telemetry.NewSink(0) }},
		{"ring+sink+trace+oracle", func(c *dsm.Config) { c.Telemetry, c.Trace, c.Observer = sink, tr, rec }},
	} {
		got, d, evs := render(set.attach)
		if !bytes.Equal(base, got) {
			t.Errorf("sim flight timeline with subscribers {%s} diverges from the ring-only run:\n%s\nvs\n%s",
				set.name, base, got)
		}
		if d != digest {
			t.Errorf("subscribers {%s} changed the final memory: digest %#x, want %#x", set.name, d, digest)
		}
		all = evs
	}
	checkExactlyOnce(t, "sim", all, sink, tr, rec)

	// Live: nodes deliver concurrently, with no wrapper between them and
	// a subscriber; each subscriber's own lock must neither drop nor
	// repeat a delivery.
	sink, tr, rec = telemetry.NewSink(0), dsm.NewTrace(), flight.NewLog(oracle.Kinds, nil)
	_, evs, _ := flightWorkload(t, func(c *dsm.Config) {
		c.Engine = "live"
		c.Telemetry, c.Trace, c.Observer = sink, tr, rec
	})
	checkExactlyOnce(t, "live", evs, sink, tr, rec)
}

// checkExactlyOnce compares what each subscriber attached beside the ring
// got with the ring's timeline of the same run, kind by kind: the kinds
// the ring keeps must match it, the thread-side kinds it does not keep
// must match what flightWorkload issues (4 threads × 3 rounds × 5
// increments, one barrier a round). The oracle's log must also check.
func checkExactlyOnce(t *testing.T, engine string, ring []flight.Event, sink *telemetry.Sink, tr *dsm.Trace, rec *flight.Log) {
	t.Helper()
	var want [flight.NumKinds]int
	perNode := map[memory.NodeID]int{}
	for _, e := range ring {
		want[e.Kind]++
		perNode[e.Node]++
	}
	for node, n := range perNode {
		if n >= flightWorkloadCap {
			t.Fatalf("%s: node %d's ring is full (%d events): it may have wrapped", engine, node, n)
		}
	}
	want[flight.Read], want[flight.Write], want[flight.Acquire], want[flight.Release] = 60, 60, 60, 60
	want[flight.BarrierArrive], want[flight.BarrierDepart] = 12, 12
	logged := func(name string, kinds flight.Mask, log []flight.Event) {
		var got [flight.NumKinds]int
		for _, e := range log {
			got[e.Kind]++
		}
		for k := flight.Kind(0); k < flight.NumKinds; k++ {
			if kinds.Has(k) && got[k] != want[k] {
				t.Errorf("%s: %s got %d %v events, want %d", engine, name, got[k], k, want[k])
			}
		}
	}
	logged("trace", tr.Kinds(), tr.Events)
	logged("oracle", rec.Kinds(), rec.Events)
	// The sketch keeps counts, not a log: one per access, one per decision.
	accesses := want[flight.HomeRead] + want[flight.HomeWrite] + want[flight.Request] + want[flight.RemoteWrite]
	if got := sink.Total(); got != uint64(accesses) {
		t.Errorf("%s: sink counted %d accesses, want %d", engine, got, accesses)
	}
	migrated, stayed := sink.Decisions()
	decisions := 0
	for r := range migrated {
		decisions += int(migrated[r] + stayed[r])
	}
	if decisions != want[flight.Decision] {
		t.Errorf("%s: sink counted %d decisions, want %d", engine, decisions, want[flight.Decision])
	}
	if accesses == 0 || want[flight.Decision] == 0 {
		t.Errorf("%s: the workload emitted %d accesses and %d decisions; the check is vacuous", engine, accesses, want[flight.Decision])
	}
	if viols := oracle.Check(4, rec.Events, nil); len(viols) > 0 {
		t.Errorf("%s: oracle: %v", engine, viols[0])
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
	// A frame is recorded under its wire kind at both ends: every arrival
	// matches a departure its peer recorded (a broadcast departs once and
	// arrives N−1 times), and the text names it.
	type frame struct {
		from, to memory.NodeID
		kind     uint8
		bytes    int32
	}
	sent := map[frame]int{}
	for _, e := range evs {
		if e.Kind == flight.FrameSend {
			sent[frame{e.Node, e.Peer, e.Tag, e.Bytes}]++
		}
	}
	for _, e := range evs {
		if e.Kind != flight.FrameRecv {
			continue
		}
		if f := (frame{e.Peer, e.Node, e.Tag, e.Bytes}); sent[f] > 0 {
			sent[f]--
		} else if sent[frame{e.Peer, memory.NoNode, e.Tag, e.Bytes}] == 0 {
			t.Errorf("node %d received a %v frame (%d bytes) from node %d that no frame-send of that node matches",
				e.Node, wire.Kind(e.Tag), e.Bytes, e.Peer)
		}
	}
	var text bytes.Buffer
	flight.WriteText(&text, evs)
	for _, want := range []string{"frame-send      to=0 kind=LockReq", "frame-recv      from=0 kind=LockGrant"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("timeline text lacks %q", want)
		}
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

// TestBroadcastLocatorAnnouncesToEveryPeer: under the broadcast locator
// a migration's new home announces itself with one HomeBcast to every
// other node, on both engines alike — each FrameSend names a real peer,
// a node that became home m times sent m to each of the others, and the
// HomeBcast category is charged (N−1) messages per migration.
func TestBroadcastLocatorAnnouncesToEveryPeer(t *testing.T) {
	const nodes = 4
	for _, engine := range []string{"sim", "live"} {
		t.Run(engine, func(t *testing.T) {
			c := dsm.New(dsm.Config{Nodes: nodes, Policy: "AT", Locator: "broadcast", Engine: engine, FlightCap: 1 << 14})
			rows := c.NewArray("rows", 8, 4, dsm.RoundRobin)
			bar := c.NewBarrier(0, nodes)
			m, err := c.Run(nodes, func(th dsm.Thread) {
				for round := 0; round < 4; round++ {
					for r := (th.ID() + 1) % nodes; r < 8; r += nodes {
						rows.SetInt64(th, r, round, int64(round+1))
					}
					th.Barrier(bar)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			var became [nodes]int      // migrations into each node
			var sent [nodes][nodes]int // HomeBcast frames, by sender and peer
			for _, e := range c.FlightEvents() {
				switch {
				case e.Kind == flight.Decision && e.Migrated:
					became[e.Peer]++
				case e.Kind == flight.FrameSend && wire.Kind(e.Tag) == wire.HomeBcast:
					if e.Peer < 0 || e.Peer >= nodes || e.Peer == e.Node {
						t.Fatalf("node %d sent a HomeBcast to node %d", e.Node, e.Peer)
					}
					sent[e.Node][e.Peer]++
				}
			}
			if m.Migrations == 0 {
				t.Fatal("no migration: the run announces nothing")
			}
			for k := range nodes {
				for j := range nodes {
					if j != k && sent[k][j] != became[k] {
						t.Errorf("node %d became home %d times and sent node %d %d HomeBcasts", k, became[k], j, sent[k][j])
					}
				}
			}
			if want := (nodes - 1) * m.Migrations; m.Msgs[stats.HomeBcast] != want {
				t.Errorf("Msgs[HomeBcast] = %d after %d migrations, want %d", m.Msgs[stats.HomeBcast], m.Migrations, want)
			}
		})
	}
}

// TestLiveTraceMatchesFlightTimeline attaches Config.Trace to the live
// engine — one more subscriber of the events the rings keep, appending
// under its own lock — and checks the two recordings
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
			t.Fatalf("%s: the trace classified no objects (%d events)", policy, len(tr.Events))
		}
		if !reflect.DeepEqual(fromTrace, fromFlight) {
			t.Errorf("%s: profiles differ between Config.Trace and the flight timeline:\n%s\nvs\n%s",
				policy, trace.Report(fromTrace), trace.Report(fromFlight))
		}
	}
}

// simTimelineRows renders the runs testdata/sim_timeline.golden pins, one
// line each: the virtual times and protocol totals of the run and an
// FNV-64 over its merged flight timeline's (Wall, Node, Kind, Peer, Obj,
// Sync, Bytes) — when every frame left, arrived, and what each handler
// then did, at which virtual nanosecond. Tag is left out on purpose: it
// names the frame, it is not part of the schedule.
func simTimelineRows(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	row := func(name string, m dsm.Metrics, evs []flight.Event) {
		if len(evs) == 0 {
			t.Fatalf("%s: empty timeline", name)
		}
		h := fnv.New64a()
		for _, e := range evs {
			binary.Write(h, binary.LittleEndian, []int64{
				e.Wall, int64(e.Node), int64(e.Kind), int64(e.Peer), int64(e.Obj), int64(e.Sync), int64(e.Bytes)})
		}
		fmt.Fprintf(&out, "%s %d %d %d %d %d %016x\n", name,
			int64(m.ExecTime), int64(m.FinalTime), m.TotalMsgs(true), m.TotalBytes(true), m.Migrations, h.Sum64())
	}
	// One generated program per access-pattern family, under every policy.
	families := map[scenario.Family]bool{}
	for _, seed := range []uint64{1, 5, 8, 13, 14} {
		p := scenario.Generate(seed)
		families[p.Family] = true
		for _, pol := range bench.Policies() {
			res, err := apps.RunScenario(p, apps.Options{Config: dsm.Config{Policy: pol, FlightCap: 1 << 16}})
			if err != nil {
				t.Fatal(err)
			}
			row(fmt.Sprintf("scenario seed=%d %s %s", seed, p.Family, pol), res.Metrics, res.Flight)
		}
	}
	if len(families) != 5 {
		t.Fatalf("seeds cover %d families, want 5", len(families))
	}
	// The 4-node lock kernel (the shape the lock-sim benchmark runs).
	c := dsm.New(dsm.Config{Nodes: 4, Policy: "AT", FlightCap: 1 << 16})
	counter := c.NewObject("counter", 1, 0)
	lock0, lock1 := c.NewLock(0), c.NewLock(0)
	var ws []dsm.Worker
	for n := 1; n < 4; n++ {
		ws = append(ws, dsm.Worker{Node: dsm.NodeID(n), Name: fmt.Sprintf("lock%d", n), Fn: func(th dsm.Thread) {
			for turn := 0; turn < 20; turn++ {
				th.Acquire(lock0)
				for j := 0; j < 8; j++ {
					th.Acquire(lock1)
					th.Write(counter, 0, th.Read(counter, 0)+1)
					th.Release(lock1)
				}
				th.Release(lock0)
				th.Compute(200 * dsm.Microsecond)
			}
		}})
	}
	m, err := c.RunWorkers(ws)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Data(counter)[0]; got != 3*20*8 {
		t.Fatalf("lock kernel: counter = %d, want %d", got, 3*20*8)
	}
	row("lock-kernel nodes=4 workers=3 AT", m, c.FlightEvents())
	return out.Bytes()
}

// TestSimTimelineGolden holds the virtual-time schedule itself to a
// checked-in file, from outside the engine: a change that is meant only
// to make the simulator faster must reproduce
// testdata/sim_timeline.golden byte for byte. Only a change that means to
// move virtual time regenerates it: delete the file and run the test,
// which writes it anew and fails once.
func TestSimTimelineGolden(t *testing.T) {
	got := simTimelineRows(t)
	const path = "testdata/sim_timeline.golden"
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: written from this tree, check it in", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sim timelines differ from %s:\n%s", path, got)
	}
}
