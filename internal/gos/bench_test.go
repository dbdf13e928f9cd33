package gos

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/proto"
)

// Micro-benchmarks of the simulated protocol's building blocks. ns/op is
// simulator wall-clock cost (how fast experiments run), not virtual time.

func BenchmarkFaultRoundTrip(b *testing.B) {
	c := New(testConfig(2, migration.NoHM{}, locator.ForwardingPointer))
	obj := c.AddObject(64, 0)
	l := c.AddLock(1)
	b.ResetTimer()
	_, err := c.Run([]proto.Worker{{Node: 1, Name: "w", Fn: func(th proto.Thread) {
		for i := 0; i < b.N; i++ {
			th.Acquire(l) // local lock: invalidates the cached copy
			_ = th.Read(obj, 0)
			th.Release(l)
		}
	}}})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkLockRoundTrip(b *testing.B) {
	c := New(testConfig(2, migration.NoHM{}, locator.ForwardingPointer))
	l := c.AddLock(0)
	b.ResetTimer()
	_, err := c.Run([]proto.Worker{{Node: 1, Name: "w", Fn: func(th proto.Thread) {
		for i := 0; i < b.N; i++ {
			th.Acquire(l)
			th.Release(l)
		}
	}}})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkWriteFaultAndDiffFlush(b *testing.B) {
	c := New(testConfig(2, migration.NoHM{}, locator.ForwardingPointer))
	obj := c.AddObject(512, 0)
	l := c.AddLock(1)
	b.ResetTimer()
	_, err := c.Run([]proto.Worker{{Node: 1, Name: "w", Fn: func(th proto.Thread) {
		for i := 0; i < b.N; i++ {
			th.Acquire(l)
			th.Write(obj, i%512, uint64(i+1))
			th.Release(l) // twin + diff + ack round trip
		}
	}}})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkLocalAccess(b *testing.B) {
	// The software access check on a warm cached object — the per-access
	// cost every shared read pays in the fast path.
	c := New(testConfig(1, migration.NoHM{}, locator.ForwardingPointer))
	obj := c.AddObject(64, 0)
	b.ResetTimer()
	var sink uint64
	_, err := c.Run([]proto.Worker{{Node: 0, Name: "w", Fn: func(th proto.Thread) {
		for i := 0; i < b.N; i++ {
			sink += th.Read(obj, i%64)
		}
	}}})
	if err != nil {
		b.Fatal(err)
	}
	_ = sink
}

// lockKernel sets up the paper's §5.2 single-writer kernel in the shape
// the lock-sim benchmark runs it: 4 nodes, a worker on each of nodes 1–3
// taking lock0 for a turn of 8 counter updates, each in its own lock1
// interval; node 0 hosts the counter's first home and both lock managers.
// One op is one counter update. onTurn, if set, is called by node 1's
// worker before each of its turns.
func lockKernel(turns int, onTurn func(turn int)) (*Cluster, []proto.Worker) {
	c := New(paperConfig(4)) // AT over forwarding pointers, no codec round trip
	counter := c.AddObject(1, 0)
	lock0, lock1 := c.AddLock(0), c.AddLock(0)
	var ws []proto.Worker
	for n := 1; n < 4; n++ {
		ws = append(ws, proto.Worker{Node: memory.NodeID(n), Name: "w", Fn: func(th proto.Thread) {
			for i := 0; i < turns; i++ {
				if onTurn != nil && n == 1 {
					onTurn(i)
				}
				th.Acquire(lock0)
				for j := 0; j < 8; j++ {
					th.Acquire(lock1)
					th.Write(counter, 0, th.Read(counter, 0)+1)
					th.Release(lock1)
				}
				th.Release(lock0)
			}
		}})
	}
	return c, ws
}

// BenchmarkLockKernel is the virtual-time engine's own row: host time per
// simulated counter update, with the two kernel counts that explain it.
// ev/op is the simulated work (it moves only if the protocol or the cost
// model does); act/op is how many of those events activated a proc — the
// number to watch, since each is a coroutine switch unless it is the
// parking proc's own: a thread blocking is one, a daemon serving a frame
// is none.
func BenchmarkLockKernel(b *testing.B) {
	turns := (b.N + 23) / 24
	c, ws := lockKernel(turns, nil)
	b.ResetTimer()
	m, err := c.Run(ws)
	if err != nil {
		b.Fatal(err)
	}
	ops := float64(turns * 24)
	b.ReportMetric(float64(m.Kernel.Activations)/ops, "act/op")
	b.ReportMetric(float64(m.Kernel.Events)/ops, "ev/op")
}

// TestLockKernelMigratesWithoutAllocating: under AT the §5.2 kernel
// moves the counter's home on every turn, and a warm window of turns
// allocates nothing — the window's total malloc count, not a per-op
// figure rounded down. The new home's copy and migration state fill
// slots its node already owns, and the migrating reply carries the old
// home's record by pointer. Of three windows one must make no malloc at
// all: the Go runtime allocates on its own now and then (the scavenger's
// timer, the cleanup after a GC cycle), while a migration that allocates
// does so in every window. The warm-up is long because the runtime fills
// a type assertion's cache (the policy checks in proto) at a random one
// of its first few thousand calls, once per call site.
func TestLockKernelMigratesWithoutAllocating(t *testing.T) {
	const warm, window = 1000, 500
	var (
		ms    runtime.MemStats
		marks [4]uint64 // mallocs at the windows' bounds
		moves [4]int64  // migrations at the windows' bounds
		c     *Cluster
	)
	c, ws := lockKernel(warm+3*window+1, func(turn int) {
		if i := turn - warm; i >= 0 && i%window == 0 {
			moves[i/window] = c.Counters.Migrations
			runtime.ReadMemStats(&ms)
			marks[i/window] = ms.Mallocs
		}
	})
	if _, err := c.Run(ws); err != nil {
		t.Fatal(err)
	}
	var mallocs [3]uint64
	for i := range mallocs {
		if n := moves[i+1] - moves[i]; n < 3*window {
			t.Fatalf("%d migrations over %d turns of each worker: the home does not move every turn", n, window)
		}
		mallocs[i] = marks[i+1] - marks[i]
	}
	if slices.Min(mallocs[:]) != 0 {
		t.Errorf("mallocs in windows of %d turns of node 1: %v, want a window with none", window, mallocs)
	}
}

// barrierEpisodes sets up n episodes of an 8-party barrier, one thread
// per node.
func barrierEpisodes(n int) (*Cluster, []proto.Worker) {
	const nodes = 8
	c := New(testConfig(nodes, migration.NoHM{}, locator.ForwardingPointer))
	bar := c.AddBarrier(0, nodes)
	var ws []proto.Worker
	for i := 0; i < nodes; i++ {
		ws = append(ws, proto.Worker{Node: memory.NodeID(i), Name: "w", Fn: func(th proto.Thread) {
			for i := 0; i < n; i++ {
				th.Barrier(bar)
			}
		}})
	}
	return c, ws
}

func BenchmarkBarrierEpisode(b *testing.B) {
	c, ws := barrierEpisodes(b.N)
	b.ResetTimer()
	if _, err := c.Run(ws); err != nil {
		b.Fatal(err)
	}
}

// TestBarrierEpisodeAllocatesNothing holds a whole protocol round — 7
// arrivals over the simulated network, the release, 7 go messages, 8
// thread wake-ups — to 0 allocs/op the way the benchmark reports it
// (total mallocs of the run over n, rounded down: start-up allocations
// do not grow with n).
func TestBarrierEpisodeAllocatesNothing(t *testing.T) {
	const n = 5000
	c, ws := barrierEpisodes(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := c.Run(ws); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if per := (after.Mallocs - before.Mallocs) / n; per != 0 {
		t.Errorf("%d allocs/op (%d mallocs over %d episodes), want 0",
			per, after.Mallocs-before.Mallocs, n)
	}
}

// TestPiggybackedDiffsReturnToThePool: on the sim a piggybacked diff's
// buffer moves by reference, and the node that applies it returns it to
// the cluster's one pool, so the buffers lent stay at the working set
// however many releases run. Three nodes release a lock homed with the
// object at node 0, 1,000 times each under NoHM; node 0 applies every
// diff the other two piggyback. (A diff node 0 forwards to a moved home
// is applied, and returned, there; the scenario sweep under the race
// detector, which poisons what is Put, catches one returned in flight.)
func TestPiggybackedDiffsReturnToThePool(t *testing.T) {
	const releases = 1000
	c := New(testConfig(3, migration.NoHM{}, locator.ForwardingPointer))
	obj := c.AddObject(8, 0)
	l := c.AddLock(0)
	var ws []proto.Worker
	for n := 0; n < 3; n++ {
		ws = append(ws, proto.Worker{Node: memory.NodeID(n), Name: "w", Fn: func(th proto.Thread) {
			for range releases {
				th.Acquire(l)
				th.Write(obj, n, th.Read(obj, n)+1)
				th.Release(l)
			}
		}})
	}
	mustRun(t, c, ws)
	if got := c.ObjectData(obj)[:3]; !slices.Equal(got, []uint64{releases, releases, releases}) {
		t.Fatalf("words %v, want %d each", got, releases)
	}
	if c.Counters.PiggybackDiffs < 2*releases {
		t.Fatalf("%d piggybacked diffs, want %d", c.Counters.PiggybackDiffs, 2*releases)
	}
	if lent := c.pool.Lent(); lent > 8 {
		t.Errorf("%d buffers lent after %d piggybacked diffs", lent, c.Counters.PiggybackDiffs)
	}
}
