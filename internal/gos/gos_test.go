package gos

import (
	"fmt"
	"testing"

	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// testConfig builds a debug-checked cluster config.
func testConfig(nodes int, pol migration.Policy, loc locator.Kind) Config {
	cfg := DefaultConfig(nodes)
	cfg.Policy = pol
	cfg.Locator = loc
	cfg.DebugWire = true
	return cfg
}

func mustRun(t *testing.T, c *Cluster, workers []proto.Worker) stats.Metrics {
	t.Helper()
	m, err := c.Run(workers)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLocalAccessNoMessages(t *testing.T) {
	c := New(testConfig(1, migration.NoHM{}, locator.ForwardingPointer))
	obj := c.AddObject(4, 0)
	l := c.AddLock(0)
	m := mustRun(t, c, []proto.Worker{{Node: 0, Name: "t0", Fn: func(th proto.Thread) {
		th.Acquire(l)
		th.Write(obj, 0, 42)
		th.Release(l)
		th.Acquire(l)
		if th.Read(obj, 0) != 42 {
			t.Error("lost local write")
		}
		th.Release(l)
	}}})
	if got := m.TotalMsgs(true); got != 0 {
		t.Fatalf("local run sent %d messages", got)
	}
	if m.HomeWrites != 1 || m.HomeReads == 0 {
		t.Fatalf("home accesses not monitored: writes=%d reads=%d", m.HomeWrites, m.HomeReads)
	}
}

func TestRemoteFaultInAndDiff(t *testing.T) {
	c := New(testConfig(2, migration.NoHM{}, locator.ForwardingPointer))
	obj := c.AddObject(8, 0) // homed at node 0
	l := c.AddLock(1)        // lock managed elsewhere so diffs don't piggyback
	m := mustRun(t, c, []proto.Worker{{Node: 1, Name: "t1", Fn: func(th proto.Thread) {
		th.Acquire(l)
		th.Write(obj, 3, 7)
		th.Release(l)
	}}})
	if m.Msgs[stats.ObjReq] != 1 || m.Msgs[stats.ObjReply] != 1 {
		t.Fatalf("fault-in msgs: req=%d reply=%d", m.Msgs[stats.ObjReq], m.Msgs[stats.ObjReply])
	}
	if m.Msgs[stats.Diff] != 1 || m.Msgs[stats.DiffAck] != 1 {
		t.Fatalf("diff msgs: diff=%d ack=%d", m.Msgs[stats.Diff], m.Msgs[stats.DiffAck])
	}
	if m.RemoteWrites != 1 || m.TwinsCreated != 1 {
		t.Fatalf("remote writes=%d twins=%d", m.RemoteWrites, m.TwinsCreated)
	}
	if got := c.ObjectData(obj)[3]; got != 7 {
		t.Fatalf("home copy word 3 = %d, want 7", got)
	}
	if c.HomeOf(obj) != 0 {
		t.Fatal("NoHM migrated the home")
	}
}

func TestPiggybackWhenLockAndObjectShareHome(t *testing.T) {
	c := New(testConfig(2, migration.NoHM{}, locator.ForwardingPointer))
	obj := c.AddObject(8, 0)
	l := c.AddLock(0) // lock home == object home == node 0 (§5.2)
	m := mustRun(t, c, []proto.Worker{{Node: 1, Name: "t1", Fn: func(th proto.Thread) {
		th.Acquire(l)
		th.Write(obj, 0, 1)
		th.Release(l)
	}}})
	if m.Msgs[stats.Diff] != 0 {
		t.Fatalf("diff travelled standalone: %d", m.Msgs[stats.Diff])
	}
	if m.PiggybackDiffs != 1 {
		t.Fatalf("piggybacked diffs = %d, want 1", m.PiggybackDiffs)
	}
	if got := c.ObjectData(obj)[0]; got != 1 {
		t.Fatalf("piggybacked diff not applied: %d", got)
	}
}

func TestFT1MigratesToSingleWriter(t *testing.T) {
	c := New(testConfig(2, migration.Fixed{T: 1}, locator.ForwardingPointer))
	obj := c.AddObject(8, 0)
	l := c.AddLock(1)
	m := mustRun(t, c, []proto.Worker{{Node: 1, Name: "t1", Fn: func(th proto.Thread) {
		for i := 0; i < 4; i++ {
			th.Acquire(l)
			th.Write(obj, 0, uint64(i+1))
			th.Release(l)
		}
	}}})
	if c.HomeOf(obj) != 1 {
		t.Fatalf("home = %d, want migrated to writer node 1", c.HomeOf(obj))
	}
	if m.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", m.Migrations)
	}
	// After migration all writes are local: exactly one diff (the
	// pre-migration one), then home writes.
	if m.Msgs[stats.Diff] != 1 {
		t.Fatalf("diffs = %d, want 1", m.Msgs[stats.Diff])
	}
	if m.HomeWrites < 2 {
		t.Fatalf("home writes = %d, want the post-migration writes trapped", m.HomeWrites)
	}
}

func TestForwardingChainCountsRedirections(t *testing.T) {
	// Home walks 0 -> 1 -> 2 under FT1 with two alternating writers; then
	// node 3 faults through the chain left at node 0.
	c := New(testConfig(4, migration.Fixed{T: 1}, locator.ForwardingPointer))
	obj := c.AddObject(8, 0)
	l := c.AddLock(3)
	b := c.AddBarrier(3, 3)
	step := func(th proto.Thread, times int) {
		for i := 0; i < times; i++ {
			th.Acquire(l)
			th.Write(obj, 0, uint64(th.ID()*100+i+1)) // non-zero: empty diffs are skipped
			th.Release(l)
		}
	}
	var hops3 int64
	m := mustRun(t, c, []proto.Worker{
		{Node: 1, Name: "w1", Fn: func(th proto.Thread) {
			step(th, 2) // drags home to node 1
			th.Barrier(b)
			th.Barrier(b)
		}},
		{Node: 2, Name: "w2", Fn: func(th proto.Thread) {
			th.Barrier(b) // wait for w1's episode
			step(th, 2)   // drags home to node 2
			th.Barrier(b)
		}},
		{Node: 3, Name: "r3", Fn: func(th proto.Thread) {
			th.Barrier(b)
			th.Barrier(b)
			before := c.Counters.RedirectHops
			th.Acquire(l)
			_ = th.Read(obj, 0)
			th.Release(l)
			hops3 = c.Counters.RedirectHops - before
		}},
	})
	if home := c.HomeOf(obj); home != 2 {
		t.Fatalf("home = %d, want 2", home)
	}
	if m.Migrations < 2 {
		t.Fatalf("migrations = %d, want >= 2", m.Migrations)
	}
	// Node 3's hint pointed at node 0; the request chased 0 -> 1 -> 2,
	// i.e. two redirection hops (accumulation, §4.1).
	if hops3 != 2 {
		t.Fatalf("redirect hops for node 3's fault = %d, want 2", hops3)
	}
	if m.Msgs[stats.Redir] < 2 {
		t.Fatalf("redirection messages = %d, want >= 2", m.Msgs[stats.Redir])
	}
}

// runTwoWriterPingPong generates the transient single-writer pattern of
// §5.2 (Fig. 4): each writer takes an outer lock, performs r=2 updates in
// separate inner-lock intervals, then yields to the other writer. FT1
// migrates the home on every turn; an adaptive protocol should learn to
// stop.
func runTwoWriterPingPong(t *testing.T, pol migration.Policy, rounds int) (stats.Metrics, *Cluster) {
	c := New(testConfig(4, pol, locator.ForwardingPointer))
	obj := c.AddObject(8, 0)
	l0 := c.AddLock(0)
	l1 := c.AddLock(0)
	worker := func(th proto.Thread) {
		for i := 0; i < rounds; i++ {
			th.Acquire(l0)
			for j := 0; j < 2; j++ {
				th.Acquire(l1)
				th.Write(obj, 0, uint64(th.ID()*1000+2*i+j+1))
				th.Release(l1)
			}
			th.Release(l0)
		}
	}
	// Three rotating writers: each writer's home hint goes stale across
	// the other two's turns, so eager migration builds forwarding chains
	// and pays redirection accumulation (§3.2).
	m := mustRun(t, c, []proto.Worker{
		{Node: 1, Name: "a", Fn: worker},
		{Node: 2, Name: "b", Fn: worker},
		{Node: 3, Name: "c", Fn: worker},
	})
	return m, c
}

func TestAdaptiveInhibitsTransientPattern(t *testing.T) {
	// Writers alternate every interval: FT1 migrates forever; AT's
	// threshold climbs with redirections and stops the thrash (§4's
	// robustness claim).
	mFT, _ := runTwoWriterPingPong(t, migration.Fixed{T: 1}, 30)
	at := DefaultConfig(3).Policy
	mAT, _ := runTwoWriterPingPong(t, at, 30)
	if mAT.Migrations >= mFT.Migrations {
		t.Fatalf("AT migrations %d !< FT1 migrations %d", mAT.Migrations, mFT.Migrations)
	}
	if mAT.Msgs[stats.Redir] >= mFT.Msgs[stats.Redir] {
		t.Fatalf("AT redirections %d !< FT1 %d", mAT.Msgs[stats.Redir], mFT.Msgs[stats.Redir])
	}
}

func TestAdaptiveMatchesFT1OnLastingPattern(t *testing.T) {
	// A single persistent writer: AT must migrate as eagerly as FT1
	// (sensitivity claim) — exactly one migration, then all-local writes.
	for _, pol := range []migration.Policy{
		migration.Fixed{T: 1},
		DefaultConfig(2).Policy,
	} {
		c := New(testConfig(2, pol, locator.ForwardingPointer))
		obj := c.AddObject(8, 0)
		l := c.AddLock(1)
		m := mustRun(t, c, []proto.Worker{{Node: 1, Name: "w", Fn: func(th proto.Thread) {
			for i := 0; i < 10; i++ {
				th.Acquire(l)
				th.Write(obj, 0, uint64(i+1))
				th.Release(l)
			}
		}}})
		if m.Migrations != 1 {
			t.Fatalf("%s: migrations = %d, want 1", pol.Name(), m.Migrations)
		}
		if c.HomeOf(obj) != 1 {
			t.Fatalf("%s: home not at writer", pol.Name())
		}
	}
}

func TestLockMutualExclusion(t *testing.T) {
	// Classic increment race: with correct locking and coherence the
	// counter must equal the total increment count.
	const perThread = 20
	c := New(testConfig(4, DefaultConfig(4).Policy, locator.ForwardingPointer))
	obj := c.AddObject(1, 0)
	l := c.AddLock(0)
	var workers []proto.Worker
	for i := 0; i < 4; i++ {
		workers = append(workers, proto.Worker{Node: memory.NodeID(i), Name: fmt.Sprintf("w%d", i),
			Fn: func(th proto.Thread) {
				for k := 0; k < perThread; k++ {
					th.Acquire(l)
					th.Write(obj, 0, th.Read(obj, 0)+1)
					th.Release(l)
				}
			}})
	}
	mustRun(t, c, workers)
	if got := c.ObjectData(obj)[0]; got != 4*perThread {
		t.Fatalf("counter = %d, want %d", got, 4*perThread)
	}
}

func TestBarrierCoherence(t *testing.T) {
	// Disjoint writers fill their own objects, then everyone reads
	// everything: post-barrier agreement (LRC).
	const nodes = 4
	c := New(testConfig(nodes, DefaultConfig(nodes).Policy, locator.ForwardingPointer))
	var objs []memory.ObjectID
	for i := 0; i < nodes; i++ {
		objs = append(objs, c.AddObject(4, memory.NodeID(i%nodes)))
	}
	b := c.AddBarrier(0, nodes)
	errCh := make(chan string, nodes*nodes)
	var workers []proto.Worker
	for i := 0; i < nodes; i++ {
		i := i
		workers = append(workers, proto.Worker{Node: memory.NodeID(i), Name: fmt.Sprintf("w%d", i),
			Fn: func(th proto.Thread) {
				// Write my object (homed elsewhere for i>0).
				th.Write(objs[(i+1)%nodes], 0, uint64(100+i))
				th.Barrier(b) // flush + global sync
				for j := 0; j < nodes; j++ {
					want := uint64(100 + (j+nodes-1)%nodes)
					if got := th.Read(objs[j], 0); got != want {
						errCh <- fmt.Sprintf("w%d read obj%d = %d, want %d", i, j, got, want)
					}
				}
			}})
	}
	mustRun(t, c, workers)
	close(errCh)
	for e := range errCh {
		t.Error(e)
	}
}

func TestManagerLocator(t *testing.T) {
	// Same migrating workload under the manager mechanism: misses resolve
	// via old home -> manager -> new home (§3.2).
	c := New(testConfig(3, migration.Fixed{T: 1}, locator.Manager))
	obj := c.AddObject(8, 0)
	l := c.AddLock(0)
	b := c.AddBarrier(0, 2)
	m := mustRun(t, c, []proto.Worker{
		{Node: 1, Name: "w", Fn: func(th proto.Thread) {
			for i := 0; i < 3; i++ {
				th.Acquire(l)
				th.Write(obj, 0, uint64(i+1))
				th.Release(l)
			}
			th.Barrier(b)
		}},
		{Node: 2, Name: "r", Fn: func(th proto.Thread) {
			th.Barrier(b)
			th.Acquire(l)
			if got := th.Read(obj, 0); got != 3 {
				t.Errorf("reader saw %d, want 3", got)
			}
			th.Release(l)
		}},
	})
	if c.HomeOf(obj) != 1 {
		t.Fatalf("home = %d, want 1", c.HomeOf(obj))
	}
	if m.Msgs[stats.MgrMsg] == 0 {
		t.Fatal("manager locator exchanged no manager messages")
	}
	if m.Msgs[stats.Redir] != 0 {
		t.Fatal("manager locator should not use forwarding redirections")
	}
}

func TestBroadcastLocator(t *testing.T) {
	c := New(testConfig(3, migration.Fixed{T: 1}, locator.Broadcast))
	obj := c.AddObject(8, 0)
	l := c.AddLock(0)
	b := c.AddBarrier(0, 2)
	m := mustRun(t, c, []proto.Worker{
		{Node: 1, Name: "w", Fn: func(th proto.Thread) {
			for i := 0; i < 3; i++ {
				th.Acquire(l)
				th.Write(obj, 0, uint64(i+10))
				th.Release(l)
			}
			th.Barrier(b)
		}},
		{Node: 2, Name: "r", Fn: func(th proto.Thread) {
			th.Barrier(b)
			th.Acquire(l)
			if got := th.Read(obj, 0); got != 12 {
				t.Errorf("reader saw %d, want 12", got)
			}
			th.Release(l)
		}},
	})
	if c.HomeOf(obj) != 1 {
		t.Fatalf("home = %d, want 1", c.HomeOf(obj))
	}
	if m.Msgs[stats.HomeBcast] == 0 {
		t.Fatal("broadcast locator broadcast nothing")
	}
}

func TestJUMPMigratesOnEveryRemoteFetch(t *testing.T) {
	c := New(testConfig(3, migration.JUMP{}, locator.ForwardingPointer))
	obj := c.AddObject(8, 0)
	l := c.AddLock(0)
	m := mustRun(t, c, []proto.Worker{
		{Node: 1, Name: "a", Fn: func(th proto.Thread) {
			for i := 0; i < 3; i++ {
				th.Acquire(l)
				_ = th.Read(obj, 0)
				th.Release(l)
			}
		}},
		{Node: 2, Name: "b", Fn: func(th proto.Thread) {
			for i := 0; i < 3; i++ {
				th.Acquire(l)
				_ = th.Read(obj, 0)
				th.Release(l)
			}
		}},
	})
	// JUMP moves the home on every remote fetch — even pure readers.
	if m.Migrations < 4 {
		t.Fatalf("JUMP migrations = %d, want many", m.Migrations)
	}
}

// TestJiajiaConcurrentBarriersKeepPins: a node's pending single-writer
// pins (a barrier row's pending candidates) must survive an unrelated barrier's go broadcast.
// Thread t0 reports obj at barrier A and parks; barrier B (disjoint
// parties) completes first, and a local thread then acquires a lock,
// which invalidates clean copies. If B's go had unpinned A's candidates,
// the acquire would discard the copy A's go is about to promote to home
// — a Jiajia transfer moves no data, so the promote would panic.
func TestJiajiaConcurrentBarriersKeepPins(t *testing.T) {
	c := New(testConfig(2, migration.Jiajia{}, locator.ForwardingPointer))
	obj := c.AddObject(4, 1) // homed away from the writer
	barA := c.AddBarrier(0, 2)
	barB := c.AddBarrier(1, 2)
	l := c.AddLock(1)
	m := mustRun(t, c, []proto.Worker{
		{Node: 0, Name: "t0", Fn: func(th proto.Thread) {
			th.Write(obj, 0, 7) // sole writer: A's go will move the home here
			th.Barrier(barA)
			if got := th.Read(obj, 0); got != 7 {
				t.Errorf("read %d after home transfer, want 7", got)
			}
		}},
		{Node: 1, Name: "t1", Fn: func(th proto.Thread) {
			th.Compute(50 * sim.Millisecond) // barrier A completes last
			th.Barrier(barA)
		}},
		{Node: 0, Name: "t2", Fn: func(th proto.Thread) {
			th.Compute(5 * sim.Millisecond)
			th.Barrier(barB) // B's go reaches node 0 while t0 is parked at A
			th.Acquire(l)    // begins an interval: clean unpinned copies drop
			th.Release(l)
		}},
		{Node: 1, Name: "t3", Fn: func(th proto.Thread) {
			th.Compute(5 * sim.Millisecond)
			th.Barrier(barB)
		}},
	})
	if c.HomeOf(obj) != 0 {
		t.Fatalf("home = %d, want 0 (single-writer transfer)", c.HomeOf(obj))
	}
	if m.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", m.Migrations)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestJiajiaBarrierMigration(t *testing.T) {
	// Node 1 is the single writer between two barriers; the barrier
	// manager must migrate the home to it in the release broadcast.
	c := New(testConfig(2, migration.Jiajia{}, locator.ForwardingPointer))
	obj := c.AddObject(8, 0)
	b := c.AddBarrier(0, 2)
	m := mustRun(t, c, []proto.Worker{
		{Node: 0, Name: "idle", Fn: func(th proto.Thread) {
			th.Barrier(b)
			th.Barrier(b)
		}},
		{Node: 1, Name: "w", Fn: func(th proto.Thread) {
			th.Write(obj, 0, 5)
			th.Barrier(b)
			// Next interval: writes are now local home writes.
			th.Write(obj, 1, 6)
			th.Barrier(b)
		}},
	})
	if c.HomeOf(obj) != 1 {
		t.Fatalf("Jiajia did not migrate home to the single writer: home=%d", c.HomeOf(obj))
	}
	if m.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", m.Migrations)
	}
	if got := c.ObjectData(obj); got[0] != 5 || got[1] != 6 {
		t.Fatalf("data = %v", got[:2])
	}
}

func TestJackalStopsAfterCap(t *testing.T) {
	m1, _ := runTwoWriterPingPong(t, migration.Jackal{Max: 2}, 20)
	if m1.Migrations > 2 {
		t.Fatalf("Jackal exceeded its transition cap: %d", m1.Migrations)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() stats.Metrics {
		m, _ := runTwoWriterPingPong(t, DefaultConfig(3).Policy, 15)
		return m
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic metrics:\n%+v\n%+v", a, b)
	}
}

func TestExecTimeAdvances(t *testing.T) {
	m, _ := runTwoWriterPingPong(t, migration.NoHM{}, 5)
	if m.ExecTime <= 0 {
		t.Fatalf("exec time = %v", m.ExecTime)
	}
}

func TestComputeAccountsTime(t *testing.T) {
	c := New(testConfig(1, migration.NoHM{}, locator.ForwardingPointer))
	m := mustRun(t, c, []proto.Worker{{Node: 0, Name: "t", Fn: func(th proto.Thread) {
		th.Compute(5_000_000) // 5 ms
	}}})
	if m.ExecTime < 5_000_000 {
		t.Fatalf("exec time %v < computed 5ms", m.ExecTime)
	}
}

func TestHomeReadMonitoring(t *testing.T) {
	// Reads at the home node inside critical sections are trapped once
	// per interval (§3.3 "home read").
	c := New(testConfig(2, migration.NoHM{}, locator.ForwardingPointer))
	obj := c.AddObject(4, 0)
	l := c.AddLock(1)
	m := mustRun(t, c, []proto.Worker{{Node: 0, Name: "t", Fn: func(th proto.Thread) {
		for i := 0; i < 3; i++ {
			th.Acquire(l)
			_ = th.Read(obj, 0)
			_ = th.Read(obj, 1) // second read same interval: not trapped
			th.Release(l)
		}
	}}})
	if m.HomeReads != 3 {
		t.Fatalf("home reads = %d, want 3 (one per interval)", m.HomeReads)
	}
}

func TestExclusiveHomeWriteFeedback(t *testing.T) {
	// A writer that got the home and keeps writing generates exclusive
	// home writes from its second interval on.
	c := New(testConfig(2, migration.Fixed{T: 1}, locator.ForwardingPointer))
	obj := c.AddObject(4, 0)
	l := c.AddLock(1)
	m := mustRun(t, c, []proto.Worker{{Node: 1, Name: "w", Fn: func(th proto.Thread) {
		for i := 0; i < 6; i++ {
			th.Acquire(l)
			th.Write(obj, 0, uint64(i+1))
			th.Release(l)
		}
	}}})
	// Interval 1: remote write; interval 2: fault -> migrate -> home
	// write (first, not exclusive); intervals 3..6: exclusive.
	if m.ExclHomeWrites != 4 {
		t.Fatalf("exclusive home writes = %d, want 4", m.ExclHomeWrites)
	}
}

func TestRunRejectsSecondStart(t *testing.T) {
	c := New(testConfig(1, migration.NoHM{}, locator.ForwardingPointer))
	mustRun(t, c, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	c.Run(nil)
}

func TestAddObjectAfterStartPanics(t *testing.T) {
	c := New(testConfig(1, migration.NoHM{}, locator.ForwardingPointer))
	mustRun(t, c, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("AddObject after start did not panic")
		}
	}()
	c.AddObject(1, 0)
}

func TestInitObjectSeedsHomeCopy(t *testing.T) {
	c := New(testConfig(2, migration.NoHM{}, locator.ForwardingPointer))
	obj := c.AddObject(4, 0)
	c.InitObject(obj, func(w []uint64) { w[2] = 99 })
	l := c.AddLock(0)
	mustRun(t, c, []proto.Worker{{Node: 1, Name: "r", Fn: func(th proto.Thread) {
		th.Acquire(l)
		if got := th.Read(obj, 2); got != 99 {
			t.Errorf("read %d, want 99", got)
		}
		th.Release(l)
	}}})
}

func TestViewAccessorsShareBacking(t *testing.T) {
	// ReadView and WriteView expose the same interval-local storage; a
	// write through WriteView is visible through a subsequent ReadView.
	c := New(testConfig(2, migration.NoHM{}, locator.ForwardingPointer))
	obj := c.AddObject(4, 0)
	l := c.AddLock(1)
	mustRun(t, c, []proto.Worker{{Node: 1, Name: "t", Fn: func(th proto.Thread) {
		th.Acquire(l)
		w := th.WriteView(obj)
		w[2] = 9
		r := th.ReadView(obj)
		if r[2] != 9 {
			t.Errorf("ReadView does not observe WriteView write")
		}
		th.Release(l)
	}}})
	if got := c.ObjectData(obj)[2]; got != 9 {
		t.Fatalf("flushed value = %d", got)
	}
}

func TestComputeNegativeIgnored(t *testing.T) {
	c := New(testConfig(1, migration.NoHM{}, locator.ForwardingPointer))
	m := mustRun(t, c, []proto.Worker{{Node: 0, Name: "t", Fn: func(th proto.Thread) {
		th.Compute(-5)
		th.Compute(1000)
	}}})
	if m.ExecTime != 1000 {
		t.Fatalf("exec time = %v, want exactly 1µs", m.ExecTime)
	}
}

func TestThreadIdentity(t *testing.T) {
	c := New(testConfig(2, migration.NoHM{}, locator.ForwardingPointer))
	mustRun(t, c, []proto.Worker{{Node: 1, Name: "ident", Fn: func(th proto.Thread) {
		if th.ID() != 0 || th.Node() != 1 || th.Name() != "ident" {
			t.Errorf("identity: id=%d node=%d name=%q", th.ID(), th.Node(), th.Name())
		}
		if th.Now() < 0 {
			t.Error("negative time")
		}
	}}})
}

func TestClusterAccessors(t *testing.T) {
	c := New(testConfig(2, migration.NoHM{}, locator.ForwardingPointer))
	obj := c.AddObject(4, 1)
	if c.NumObjects() != 1 {
		t.Fatalf("NumObjects = %d", c.NumObjects())
	}
	if c.HomeOf(obj) != 1 {
		t.Fatalf("HomeOf = %d", c.HomeOf(obj))
	}
}

func TestMultipleThreadsPerNode(t *testing.T) {
	// The paper defaults to one thread per node but the GOS supports
	// more ("when a Java thread is created, it is automatically
	// dispatched to a free cluster node"). Two threads on each of two
	// nodes increment a shared counter; mutual exclusion and coherence
	// must hold across co-located threads sharing the node cache.
	c := New(testConfig(2, DefaultConfig(2).Policy, locator.ForwardingPointer))
	obj := c.AddObject(1, 0)
	l := c.AddLock(0)
	const per = 10
	var ws []proto.Worker
	for i := 0; i < 4; i++ {
		ws = append(ws, proto.Worker{Node: memory.NodeID(i % 2), Name: fmt.Sprintf("t%d", i),
			Fn: func(th proto.Thread) {
				for k := 0; k < per; k++ {
					th.Acquire(l)
					th.Write(obj, 0, th.Read(obj, 0)+1)
					th.Release(l)
				}
			}})
	}
	mustRun(t, c, ws)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := c.ObjectData(obj)[0]; got != 4*per {
		t.Fatalf("counter = %d, want %d", got, 4*per)
	}
}

func TestComputeOrdersBeforeMessages(t *testing.T) {
	// Pending compute must materialize before a synchronization action,
	// so the lock request leaves at the right virtual time: with a 1 ms
	// compute before Acquire on a remote lock, the grant cannot return
	// before 1 ms plus a round trip.
	c := New(testConfig(2, migration.NoHM{}, locator.ForwardingPointer))
	l := c.AddLock(0)
	var granted sim.Time
	mustRun(t, c, []proto.Worker{{Node: 1, Name: "t", Fn: func(th proto.Thread) {
		th.Compute(sim.Millisecond)
		th.Acquire(l)
		granted = th.Now()
		th.Release(l)
	}}})
	minRT := 2 * DefaultConfig(2).Net.Time(32)
	if granted < sim.Millisecond+minRT {
		t.Fatalf("granted at %v, want >= %v", granted, sim.Millisecond+minRT)
	}
}
