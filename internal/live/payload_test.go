package live

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/live/transport"
	"repro/internal/migration"
	"repro/internal/proto"
	"repro/internal/twindiff"
	"repro/internal/wire"
)

// TestSteadyStateAllocatesNoPayload: once warm, an interval of the
// paper's home-based write path costs no payload buffer. Node 0 homes a
// 256-word row; node 1's thread takes its own lock (the acquire drops
// the cached copy), faults the row in, writes every second word and
// releases, shipping a red-black diff to node 0 and waiting for its ack.
// The decoded row, the home's serve snapshot and the decoded diff are
// each drawn from and returned to a node's pool, so a warm interval
// allocates less than a quarter of one payload: the one allocation left
// is the memory.Object header the install makes (not checked under the
// race detector, where frames miss their pool). Every fault-in must also
// read exactly the previous interval's writes: a buffer with two owners
// shows as a wrong word (a flushed diff returned at Send lands in the
// freelist twice, and the next flush computes its diff into its own
// twin).
func TestSteadyStateAllocatesNoPayload(t *testing.T) {
	const words, runs = 256, 100
	cfg := DefaultConfig(2)
	cfg.Policy = migration.NoHM{}
	c := New(cfg)
	row := c.AddObject(words, 0)
	l := c.AddLock(1)
	var (
		bytes float64
		bad   []string
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
		for range 5 {
			interval(th) // warm-up: every pool holds its buffers
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			interval(th)
		}
		runtime.ReadMemStats(&after)
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / runs
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
	if payload := 8 * words; bytes >= float64(payload)/4 {
		t.Fatalf("a warm interval (fault-in of a %d-word row, red-black diff, ack) allocates %.0f bytes, a payload is %d", words, bytes, payload)
	}
}

// TestParkedDiffKeepsItsBuffer: a parked frame owns its decoded
// payloads until it is handled. Node 2 injects into node 0 a diff for an
// object homed at node 1, to which node 0 has no pointer yet, so it
// parks. Node 0's thread then draws a buffer of the diff's size from its
// node's pool and scribbles over it — what the next decode would do —
// and gives node 0 the pointer: the diff it forwards at that unlock must
// be the one injected, and node 1 must apply exactly it.
func TestParkedDiffKeepsItsBuffer(t *testing.T) {
	cfg := DefaultConfig(3)
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
