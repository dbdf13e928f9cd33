package dsm_test

import (
	"fmt"
	"strings"
	"testing"

	dsm "repro"

	"repro/internal/flight"
	"repro/internal/hlc"
	"repro/internal/live/transport"
	"repro/internal/telemetry"
)

func TestQuickstartCounter(t *testing.T) {
	c := dsm.New(dsm.Config{Nodes: 4, Policy: "AT", DebugWire: true})
	counter := c.NewObject("counter", 1, 0)
	lock := c.NewLock(0)
	m, err := c.Run(4, func(th dsm.Thread) {
		for i := 0; i < 25; i++ {
			th.Acquire(lock)
			th.Write(counter, 0, th.Read(counter, 0)+1)
			th.Release(lock)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Data(counter)[0]; got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
	if m.ExecTime <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := dsm.New(dsm.Config{Nodes: 2})
	if c.PolicyName() != "AT" {
		t.Fatalf("default policy = %s", c.PolicyName())
	}
	if c.Nodes() != 2 {
		t.Fatalf("nodes = %d", c.Nodes())
	}
}

func TestConfigPanicsOnBadInput(t *testing.T) {
	cases := []dsm.Config{
		{},                               // no nodes
		{Nodes: 2, Policy: "bogus"},      // bad policy
		{Nodes: 2, Locator: "bogus"},     // bad locator
		{Nodes: 2, Network: "tokenring"}, // bad network
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			dsm.New(cfg)
		}()
	}
}

// TestConfigPanicsOnEngineMismatch: fields that mean something on one
// engine only, or only together, are rejected by name, before any engine
// exists to half-configure.
func TestConfigPanicsOnEngineMismatch(t *testing.T) {
	node := func(id dsm.NodeID) *dsm.NodeID { return &id }
	tr := transport.NewChanLoop(2)
	defer tr.Close()
	cases := []struct {
		name string
		cfg  dsm.Config
		want string
	}{
		{"unknown engine", dsm.Config{Nodes: 2, Engine: "quantum"}, "unknown engine"},
		{"Transport on sim", dsm.Config{Nodes: 2, Transport: tr}, "require Engine \"live\""},
		{"LocalNode on sim", dsm.Config{Nodes: 2, Engine: "sim", LocalNode: node(0)}, "require Engine \"live\""},
		{"FlightLocal on sim", dsm.Config{Nodes: 2, FlightLocal: flight.NewRecorder(0, 8, hlc.New(nil).Tick)}, "FlightLocal and Metrics require"},
		{"Metrics on sim", dsm.Config{Nodes: 2, Metrics: telemetry.NewRegistry(0, "")}, "FlightLocal and Metrics require"},
		{"LocalNode past the cluster", dsm.Config{Nodes: 2, Engine: "live", Transport: tr, LocalNode: node(2)}, "LocalNode 2 outside cluster of 2"},
		{"LocalNode negative", dsm.Config{Nodes: 2, Engine: "live", Transport: tr, LocalNode: node(-1)}, "LocalNode -1 outside"},
		{"LocalNode without a Transport", dsm.Config{Nodes: 2, Engine: "live", LocalNode: node(1)}, "LocalNode requires a Transport"},
		{"Transport that cannot push", dsm.Config{Nodes: 2, Engine: "live", Transport: struct{ transport.Transport }{tr}},
			"transport struct { transport.Transport } cannot push"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("panic %q, want one saying %q", msg, tc.want)
				}
			}()
			dsm.New(tc.cfg)
		})
	}
	// The one-node cluster needs no peer to reach.
	dsm.New(dsm.Config{Nodes: 1, Engine: "live", LocalNode: node(0)})
}

func TestArrayPlacementRoundRobin(t *testing.T) {
	c := dsm.New(dsm.Config{Nodes: 4})
	a := c.NewArray("m", 8, 4, dsm.RoundRobin)
	for i := 0; i < 8; i++ {
		if got := c.HomeOf(a.Object(i)); got != dsm.NodeID(i%4) {
			t.Fatalf("row %d homed at %d", i, got)
		}
	}
}

func TestArrayPlacementFixedAndBlocked(t *testing.T) {
	c := dsm.New(dsm.Config{Nodes: 4})
	f := c.NewArray("f", 4, 2, dsm.Fixed(2))
	for i := 0; i < 4; i++ {
		if c.HomeOf(f.Object(i)) != 2 {
			t.Fatal("Fixed placement broken")
		}
	}
	b := c.NewArray("b", 8, 2, dsm.Blocked(8))
	want := []dsm.NodeID{0, 0, 1, 1, 2, 2, 3, 3}
	for i, w := range want {
		if c.HomeOf(b.Object(i)) != w {
			t.Fatalf("Blocked: row %d at %d, want %d", i, c.HomeOf(b.Object(i)), w)
		}
	}
}

func TestArrayTypedAccessors(t *testing.T) {
	c := dsm.New(dsm.Config{Nodes: 2, DebugWire: true})
	a := c.NewArray("m", 2, 4, dsm.RoundRobin)
	a.InitInt64(0, 1, -5)
	a.InitFloat64(1, 2, 3.25)
	bar := c.NewBarrier(0, 2)
	_, err := c.Run(2, func(th dsm.Thread) {
		if th.ID() == 0 {
			if got := a.Int64(th, 0, 1); got != -5 {
				t.Errorf("Int64 = %d", got)
			}
			if got := a.Float64(th, 1, 2); got != 3.25 {
				t.Errorf("Float64 = %v", got)
			}
			a.SetInt64(th, 0, 0, 42)
			a.SetFloat64(th, 1, 3, -1.5)
		}
		th.Barrier(bar)
		if th.ID() == 1 {
			if got := a.Int64(th, 0, 0); got != 42 {
				t.Errorf("post-barrier Int64 = %d", got)
			}
			if got := a.Float64(th, 1, 3); got != -1.5 {
				t.Errorf("post-barrier Float64 = %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.DataInt64(0)[0]; got != 42 {
		t.Fatalf("DataInt64 = %d", got)
	}
	if got := a.DataFloat64(1)[3]; got != -1.5 {
		t.Fatalf("DataFloat64 = %v", got)
	}
}

func TestSingleWriterRowsMigrateToWriters(t *testing.T) {
	// The ASP/SOR situation in miniature: rows placed round-robin, each
	// thread repeatedly writes its own rows; AT must relocate every row
	// to its writer (§5.1: "the home migration protocol automatically
	// makes the writing node the home node").
	const nodes, rows, iters = 4, 8, 6
	c := dsm.New(dsm.Config{Nodes: nodes, Policy: "AT", DebugWire: true})
	a := c.NewArray("m", rows, 8, dsm.RoundRobin)
	bar := c.NewBarrier(0, nodes)
	_, err := c.Run(nodes, func(th dsm.Thread) {
		me := th.ID()
		for it := 0; it < iters; it++ {
			for r := 0; r < rows; r++ {
				// Owner-computes over a shifted assignment so initial
				// homes are wrong for every row.
				if r%nodes == (me+1)%nodes {
					a.SetInt64(th, r, 0, int64(100*it+r+1))
				}
			}
			th.Barrier(bar)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		want := dsm.NodeID((r%nodes + nodes - 1) % nodes)
		if got := c.HomeOf(a.Object(r)); got != want {
			t.Errorf("row %d homed at %d, want writer %d", r, got, want)
		}
	}
}

func TestWorkerPlacement(t *testing.T) {
	c := dsm.New(dsm.Config{Nodes: 3, DebugWire: true})
	obj := c.NewObject("o", 1, 0)
	lock := c.NewLock(0)
	var ws []dsm.Worker
	for i := 1; i <= 2; i++ {
		ws = append(ws, dsm.Worker{
			Node: dsm.NodeID(i), Name: fmt.Sprintf("w%d", i),
			Fn: func(th dsm.Thread) {
				th.Acquire(lock)
				th.Write(obj, 0, th.Read(obj, 0)+1)
				th.Release(lock)
			},
		})
	}
	if _, err := c.RunWorkers(ws); err != nil {
		t.Fatal(err)
	}
	if got := c.Data(obj)[0]; got != 2 {
		t.Fatalf("counter = %d", got)
	}
}

func TestPoliciesDiffer(t *testing.T) {
	// Same workload under NoHM and AT: AT must migrate, NoHM must not,
	// and the shared state must agree.
	run := func(policy string) (dsm.Metrics, []uint64) {
		c := dsm.New(dsm.Config{Nodes: 2, Policy: policy, DebugWire: true})
		obj := c.NewObject("o", 2, 0)
		lock := c.NewLock(0)
		m, err := c.RunWorkers([]dsm.Worker{{Node: 1, Name: "w", Fn: func(th dsm.Thread) {
			for i := 0; i < 5; i++ {
				th.Acquire(lock)
				th.Write(obj, 0, uint64(i+1))
				th.Release(lock)
			}
		}}})
		if err != nil {
			t.Fatal(err)
		}
		return m, c.Data(obj)
	}
	mNo, dNo := run("NoHM")
	mAT, dAT := run("AT")
	if mNo.Migrations != 0 || mAT.Migrations == 0 {
		t.Fatalf("migrations: NoHM=%d AT=%d", mNo.Migrations, mAT.Migrations)
	}
	if dNo[0] != dAT[0] || dNo[0] != 5 {
		t.Fatalf("final state disagrees: %v vs %v", dNo, dAT)
	}
	if mAT.TotalMsgs(false) >= mNo.TotalMsgs(false) {
		t.Fatalf("AT should save messages: %d vs %d", mAT.TotalMsgs(false), mNo.TotalMsgs(false))
	}
}

func TestTInitAblation(t *testing.T) {
	// §4.2 sets T_init = 1 "to speed up the initial data relocation". A
	// larger T_init must delay (here: with few intervals, entirely
	// prevent) the single-writer migration.
	run := func(tinit float64) dsm.Metrics {
		c := dsm.New(dsm.Config{Nodes: 2, Policy: "AT", TInit: tinit, DebugWire: true})
		obj := c.NewObject("o", 2, 0)
		lock := c.NewLock(0)
		m, err := c.RunWorkers([]dsm.Worker{{Node: 1, Name: "w", Fn: func(th dsm.Thread) {
			for i := 0; i < 3; i++ {
				th.Acquire(lock)
				th.Write(obj, 0, uint64(i+1))
				th.Release(lock)
			}
		}}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	eager := run(1)
	lazy := run(10)
	if eager.Migrations != 1 || lazy.Migrations != 0 {
		t.Fatalf("migrations: TInit=1 -> %d (want 1), TInit=10 -> %d (want 0)",
			eager.Migrations, lazy.Migrations)
	}
}

func TestLambdaAblationChangesBehavior(t *testing.T) {
	// Deterministic discrimination of λ (Eq. 2). Phase 1 migrates the home
	// to writer B (leaving R=0, E=0). Phase 2: one reader faults through
	// the stale forwarding chain, so R=1 at the new home. Phase 3: writer
	// D performs exactly three write intervals. Its decisive fault sees
	// C=2 against T = 1 + λ·(R − αE) = 1 + λ: with λ=1 (T=2) the home
	// migrates again; with λ=2 (T=3) it does not.
	run := func(lambda float64) dsm.Metrics {
		c := dsm.New(dsm.Config{Nodes: 4, Policy: "AT", Lambda: lambda, DebugWire: true})
		obj := c.NewObject("o", 2, 0)
		lock := c.NewLock(0)
		bar := c.NewBarrier(1, 3) // manager on an otherwise idle node
		m, err := c.RunWorkers([]dsm.Worker{
			{Node: 2, Name: "B", Fn: func(th dsm.Thread) {
				for i := 0; i < 2; i++ { // 2 intervals: diff, then migrating fault
					th.Acquire(lock)
					th.Write(obj, 0, uint64(i+1))
					th.Release(lock)
				}
				th.Barrier(bar)
				th.Barrier(bar)
			}},
			{Node: 3, Name: "C", Fn: func(th dsm.Thread) {
				th.Barrier(bar)
				_ = th.Read(obj, 0) // redirected 0 -> 2: R becomes 1
				th.Barrier(bar)
			}},
			{Node: 0, Name: "D", Fn: func(th dsm.Thread) {
				th.Barrier(bar)
				th.Barrier(bar)
				for i := 0; i < 3; i++ {
					th.Acquire(lock)
					th.Write(obj, 0, uint64(10+i))
					th.Release(lock)
				}
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if got := run(1).Migrations; got != 2 {
		t.Fatalf("λ=1 migrations = %d, want 2", got)
	}
	if got := run(2).Migrations; got != 1 {
		t.Fatalf("λ=2 migrations = %d, want 1", got)
	}
}

func TestArrayBadShapePanics(t *testing.T) {
	c := dsm.New(dsm.Config{Nodes: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.NewArray("bad", 0, 3, dsm.RoundRobin)
}

func TestFacadeTracing(t *testing.T) {
	tr := dsm.NewTrace()
	c := dsm.New(dsm.Config{Nodes: 2, Policy: "NoHM", Trace: tr, DebugWire: true})
	obj := c.NewObject("o", 2, 0)
	lock := c.NewLock(0)
	_, err := c.RunWorkers([]dsm.Worker{{Node: 1, Name: "w", Fn: func(th dsm.Thread) {
		for i := 0; i < 4; i++ {
			th.Acquire(lock)
			th.Write(obj, 0, uint64(i+1))
			th.Release(lock)
		}
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("no events recorded")
	}
	profiles := dsm.AnalyzeTrace(tr)
	if len(profiles) != 1 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	if got := profiles[0].Pattern.String(); got != "single-writer-lasting" {
		t.Fatalf("pattern = %s", got)
	}
	if rep := dsm.TraceReport(profiles); rep == "" {
		t.Fatal("empty report")
	}
}

func TestFacadePathCompress(t *testing.T) {
	// Smoke test: the flag plumbs through and preserves correctness.
	for _, on := range []bool{false, true} {
		c := dsm.New(dsm.Config{Nodes: 3, Policy: "FT1", PathCompress: on, DebugWire: true})
		obj := c.NewObject("o", 2, 0)
		lock := c.NewLock(0)
		bar := c.NewBarrier(0, 2)
		_, err := c.RunWorkers([]dsm.Worker{
			{Node: 1, Name: "w", Fn: func(th dsm.Thread) {
				for i := 0; i < 3; i++ {
					th.Acquire(lock)
					th.Write(obj, 0, uint64(i+1))
					th.Release(lock)
				}
				th.Barrier(bar)
			}},
			{Node: 2, Name: "r", Fn: func(th dsm.Thread) {
				th.Barrier(bar)
				th.Acquire(lock)
				if got := th.Read(obj, 0); got != 3 {
					t.Errorf("compress=%v: read %d", on, got)
				}
				th.Release(lock)
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("compress=%v: %v", on, err)
		}
	}
}

func TestFacadeMetricsSummary(t *testing.T) {
	c := dsm.New(dsm.Config{Nodes: 2, DebugWire: true})
	obj := c.NewObject("o", 1, 0)
	lock := c.NewLock(0)
	m, err := c.RunWorkers([]dsm.Worker{{Node: 1, Name: "w", Fn: func(th dsm.Thread) {
		th.Acquire(lock)
		th.Write(obj, 0, 1)
		th.Release(lock)
	}}})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Summary()
	for _, want := range []string{"exec time", "messages", "migrations"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}
