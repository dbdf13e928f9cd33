package live

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/live/transport"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/proto"
	"repro/internal/twindiff"
	"repro/internal/wire"
)

// TestSteadyStateAllocatesNoPayload: once warm, an interval of the
// paper's home-based write path allocates nothing. Node 0 homes a
// 256-word row; node 1's thread takes its own lock (the acquire drops
// the cached copy), faults the row in, writes every second word and
// releases, shipping a red-black diff to node 0 and waiting for its ack.
// The decoded row, the home's serve snapshot and the decoded diff are
// each drawn from and returned to a node's pool, and the install fills
// the copy slot node 1 already owns for the row, so of three windows of
// intervals one must make no malloc at all (mallocWindows says why not
// every one). Every fault-in must also read exactly the previous
// interval's writes: a buffer with two owners shows as a wrong word (a
// flushed diff returned at Send lands in the freelist twice, and the next
// flush computes its diff into its own twin).
func TestSteadyStateAllocatesNoPayload(t *testing.T) {
	const words, warm, window = 256, 2000, 100
	cfg := paperConfig(2)
	cfg.Policy = migration.NoHM{}
	c := New(cfg)
	row := c.AddObject(words, 0)
	l := c.AddLock(1)
	var (
		w   mallocWindows
		bad []string
	)
	round := 0
	interval := func(th proto.Thread) {
		th.Acquire(l)
		data := th.WriteView(row)
		for i := 1; i < words; i += 2 {
			if want := uint64(round*words + i); round > 0 && data[i] != want {
				bad = append(bad, fmt.Sprintf("round %d word %d = %#x, want %#x", round, i, data[i], want))
				break
			}
		}
		round++
		for i := 1; i < words; i += 2 {
			data[i] = uint64(round*words + i)
		}
		th.Release(l)
	}
	ws := []proto.Worker{{Node: 1, Name: "writer", Fn: func(th proto.Thread) {
		for range warm {
			interval(th) // warm-up: every pool holds its buffers
		}
		for i := range w.marks {
			w.mark(i)
			if i < len(w.marks)-1 {
				for range window {
					interval(th)
				}
			}
		}
	}}}
	if _, err := c.Run(ws); err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("%d fault-ins read a buffer another owner wrote; first: %s", len(bad), bad[0])
	}
	got := c.ObjectData(row)
	for i := 1; i < words; i += 2 {
		if want := uint64(round*words + i); got[i] != want {
			t.Fatalf("home word %d = %#x after %d rounds, want %#x", i, got[i], round, want)
		}
	}
	if counts := w.counts(); slices.Min(counts) != 0 {
		t.Fatalf("mallocs in windows of %d warm intervals (fault-in of a %d-word row, red-black diff, ack): %v, want a window with none",
			window, words, counts)
	}
}

// TestLockKernelMigratesWithoutAllocating is the sim engine's test of the
// same name over ChanLoop at GOMAXPROCS=1, as the lock-inproc workload
// runs it: under AT the §5.2 kernel moves the counter's home whenever the
// lock passes to another worker, and a warm window of turns makes no
// malloc on any node — the codec, the queues and the mailboxes included.
// A migrating reply's record lands in the receiving node's, then in the
// destination thread's own, and the new home's copy and state fill its
// node's slots. The warm-up is long because the Go runtime fills a type
// assertion's cache at a random one of its first few thousand calls, once
// per call site.
func TestLockKernelMigratesWithoutAllocating(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm, window = 1000, 500
	var (
		w     mallocWindows
		moves [len(w.marks)]int64 // migrations at the windows' bounds
		c     *Cluster
	)
	turns := warm + len(w.marks)*window
	c, counter, ws := lockKernel(turns, func(node memory.NodeID, turn int) {
		// One P runs a worker until it blocks, and one that finds lock0
		// free again takes turn after turn: yield, so the lock passes on.
		runtime.Gosched()
		if i := turn - warm; node == 1 && i >= 0 && i%window == 0 && i/window < len(moves) {
			for _, n := range c.nodes {
				n.mu.Lock()
				moves[i/window] += n.counters.Migrations
				n.mu.Unlock()
			}
			w.mark(i / window)
		}
	})
	if _, err := c.Run(ws); err != nil {
		t.Fatal(err)
	}
	if got, want := c.ObjectData(counter)[0], uint64(turns*lockWorkers*lockReps); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	// A turn moves the home unless the worker before it was the same one.
	for i := range len(moves) - 1 {
		if n := moves[i+1] - moves[i]; n < window {
			t.Fatalf("%d migrations in a window of %d turns of node 1: the home does not move", n, window)
		}
	}
	if counts := w.counts(); slices.Min(counts) != 0 {
		t.Errorf("mallocs in windows of %d turns of node 1: %v, want a window with none", window, counts)
	}
}

// mallocWindows counts the mallocs of consecutive windows of a run, from
// one mark to the next, without allocating itself. A test wants one of
// its windows to make none, not every one: the Go runtime allocates on
// its own now and then (the scavenger's timer, the cleanup after a GC
// cycle), and so does ChanLoop when a drain races a send and hands the
// rest to a fresh goroutine (handOff). Code that allocates per operation
// does so in every window.
type mallocWindows struct {
	ms    runtime.MemStats
	marks [4]uint64
}

// mark records the malloc count at boundary i.
func (w *mallocWindows) mark(i int) {
	runtime.ReadMemStats(&w.ms)
	w.marks[i] = w.ms.Mallocs
}

// counts returns each window's malloc count.
func (w *mallocWindows) counts() []uint64 {
	out := make([]uint64, len(w.marks)-1)
	for i := range out {
		out[i] = w.marks[i+1] - w.marks[i]
	}
	return out
}

// TestParkedDiffKeepsItsBuffer: a parked frame owns its decoded
// payloads until it is handled. Node 2 injects into node 0 a diff for an
// object homed at node 1, to which node 0 has no pointer yet, so it
// parks. Node 0's thread then draws a buffer of the diff's size from its
// node's pool and scribbles over it — what the next decode would do —
// and gives node 0 the pointer: the diff it forwards at that unlock must
// be the one injected, and node 1 must apply exactly it.
func TestParkedDiffKeepsItsBuffer(t *testing.T) {
	cfg := paperConfig(3)
	cfg.Policy = migration.NoHM{}
	c := New(cfg)
	obj := c.AddObject(8, 1)
	diff := twindiff.OneRun(2, 11, 12, 13)
	n0 := c.nodes[0]
	parked := func() int {
		n0.mu.Lock()
		defer n0.unlock()
		return len(n0.parked)
	}
	ws := []proto.Worker{
		{Node: 0, Name: "fixer", Fn: func(pt proto.Thread) {
			th := pt.(*Thread)
			for deadline := time.Now().Add(5 * time.Second); parked() == 0; {
				if time.Now().After(deadline) {
					c.Abort(fmt.Errorf("the injected diff never parked"))
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
			th.Lock()
			scribble := n0.ps.Pool.GetWords(1 + 1 + 3)
			for i := range scribble {
				scribble[i] = 0xBAD
			}
			n0.ps.Loc.SetForward(obj, 1)
			th.Unlock()
		}},
		{Node: 2, Name: "injector", Fn: func(proto.Thread) {
			c.inflight.Add(1)
			msg := wire.Msg{Kind: wire.DiffMsg, From: 2, To: 0, Obj: obj, Diff: diff, Home: 2, ReplyNode: 2, ReplySlot: 0}
			c.tr.Send(0, msg.Encode(transport.GetFrame()))
			c.push.Deliver(0)
		}},
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(ws)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked 10s after the diff became routable")
	}
	if got, want := c.ObjectData(obj), []uint64{0, 0, 11, 12, 13, 0, 0, 0}; !slices.Equal(got, want) {
		t.Fatalf("home copy after the parked diff = %v, want %v", got, want)
	}
}

// TestSORWritePathAllocatesNothing: once warm, a phase of red-black SOR
// without migration allocates nothing, over ChanLoop at GOMAXPROCS=1 as
// the in-process workloads run. Three nodes share 192 rows of 256 words,
// row r homed at node r%3; the thread on node k sweeps its block of 64
// rows, reading the rows beside each and writing every second word, then
// meets the others at a barrier managed by node 0. So every phase
// refetches each row a node caches, twins and diffs each row homed
// elsewhere, sends the diffs of rows homed at node 1 or 2 on their own
// and waits for their acks, and piggybacks those of rows homed at node 0
// on the arrival, which nothing acknowledges: Send returns them to the
// pool once encoded, and the arrival's frame is drawn with room for
// them. A node's working set — about 45 cached rows and 43 twins, then
// as many diffs — is kept whole by its pool, so of three windows of
// phases one must make no malloc at all (mallocWindows; not asked under
// the race detector, see raceDetector). Each phase also checks the words
// the previous phase wrote beside it: a buffer with two owners shows as a
// wrong word.
func TestSORWritePathAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const nodes, rows, words, warm, window = 3, 192, 256, 60, 20
	cfg := paperConfig(nodes)
	cfg.Policy = migration.NoHM{}
	c := New(cfg)
	var objs [rows]memory.ObjectID
	for r := range objs {
		objs[r] = c.AddObject(words, memory.NodeID(r%nodes))
	}
	bar := c.AddBarrier(0, nodes)
	value := func(phase, r, i int) uint64 { return uint64(phase)<<32 | uint64(r)<<16 | uint64(i) }
	var (
		w     mallocWindows
		bad   [nodes][]string
		piggy [nodes]int64
	)
	phases := warm + (len(w.marks)-1)*window
	var ws []proto.Worker
	for k := range nodes {
		ws = append(ws, proto.Worker{Node: memory.NodeID(k), Name: fmt.Sprintf("sor%d", k), Fn: func(th proto.Thread) {
			for p := 1; p <= phases; p++ {
				if i := p - 1 - warm; k == 1 && i >= 0 && i%window == 0 {
					w.mark(i / window)
				}
				for r := k * rows / nodes; r < (k+1)*rows/nodes; r++ {
					for _, nb := range []int{r - 1, r + 1} {
						if nb < 0 || nb >= rows || p == 1 {
							continue
						}
						data := th.ReadView(objs[nb])
						for i := p % 2; i < words; i += 2 {
							if want := value(p-1, nb, i); data[i] != want && len(bad[k]) == 0 {
								bad[k] = append(bad[k], fmt.Sprintf("phase %d: row %d word %d = %#x, want %#x", p, nb, i, data[i], want))
							}
						}
					}
					data := th.WriteView(objs[r])
					for i := 1 - p%2; i < words; i += 2 {
						data[i] = value(p, r, i)
					}
				}
				th.Barrier(bar)
			}
			if k == 1 {
				w.mark(len(w.marks) - 1)
			}
		}})
	}
	if _, err := c.Run(ws); err != nil {
		t.Fatal(err)
	}
	for k := range bad {
		if len(bad[k]) > 0 {
			t.Fatalf("node %d read a buffer another owner wrote: %s", k, bad[k][0])
		}
	}
	for r, obj := range objs {
		data := c.ObjectData(obj)
		for i := 1 - phases%2; i < words; i += 2 {
			if want := value(phases, r, i); data[i] != want {
				t.Fatalf("home row %d word %d = %#x after %d phases, want %#x", r, i, data[i], phases, want)
			}
		}
	}
	for k, n := range c.nodes {
		piggy[k] = n.counters.PiggybackDiffs
	}
	if piggy[1] == 0 || piggy[2] == 0 {
		t.Fatalf("piggybacked diffs per node %v: the barrier manager receives none", piggy)
	}
	if counts := w.counts(); slices.Min(counts) != 0 && !raceDetector {
		t.Fatalf("mallocs in windows of %d warm phases (fault-ins, twins, diffs, acks, piggybacked diffs): %v, want a window with none",
			window, counts)
	}
}

// TestLockedCounterAllocatesNothing is BenchmarkLiveLockedThroughput's
// shape at GOMAXPROCS=2 with the lock's holder and the object's home kept
// apart: four nodes, one thread each, update one 8-word object homed at
// node 0 under one lock managed there, without migration. A writer on
// nodes 1–3 faults the object in, twins it and piggybacks its diff on
// the release, which nothing acknowledges: Send returns the diff to the
// writer's pool once encoded, so the writer's next twin and diff reuse
// what it drew. Of three windows of node 1's updates one must make no
// malloc (mallocWindows; not asked under the race detector, see
// raceDetector), and the counters must be exact.
func TestLockedCounterAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const nodes, warm, window = 4, 2000, 100
	cfg := paperConfig(nodes)
	cfg.Policy = migration.NoHM{}
	c := New(cfg)
	obj := c.AddObject(8, 0)
	l := c.AddLock(0)
	var w mallocWindows
	per := warm + (len(w.marks)-1)*window
	var ws []proto.Worker
	for i := range nodes {
		ws = append(ws, proto.Worker{Node: memory.NodeID(i), Name: fmt.Sprintf("w%d", i), Fn: func(th proto.Thread) {
			for k := range per {
				if j := k - warm; i == 1 && j >= 0 && j%window == 0 {
					w.mark(j / window)
				}
				th.Acquire(l)
				th.Write(obj, k%8, th.Read(obj, k%8)+1)
				th.Release(l)
			}
			if i == 1 {
				w.mark(len(w.marks) - 1)
			}
		}})
	}
	m, err := c.Run(ws)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, v := range c.ObjectData(obj) {
		sum += v
	}
	if sum != nodes*uint64(per) {
		t.Fatalf("counters sum to %d, want %d", sum, nodes*per)
	}
	if m.PiggybackDiffs == 0 {
		t.Fatal("no diff was piggybacked on a release")
	}
	if counts := w.counts(); slices.Min(counts) != 0 && !raceDetector {
		t.Fatalf("mallocs in windows of %d updates of node 1: %v, want a window with none", window, counts)
	}
}
