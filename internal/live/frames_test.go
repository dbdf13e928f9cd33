package live

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/live/transport"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/wire"
)

// TestLockKernelHopSkipsTheSharedFrameList: a frame hop in process takes
// no process-wide lock. Over ChanLoop a node encodes into its own frame
// list (transport.Frames) and returns what it received to it, so the
// process-wide list sees only what a node's traffic does not balance: in
// the lock kernel the manager receives a request and a release per lock
// interval and sends one grant, so its full list spills one frame an
// interval and the worker draws one: 1.125 gets and puts per counter
// update (lock1's interval, and an eighth of lock0's), against 4.25 each
// when Send draws every frame from the shared list. Workers yield between
// turns so the lock passes on (TestLockKernelMigratesWithoutAllocating).
func TestLockKernelHopSkipsTheSharedFrameList(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const turns, bound = 500, 1.25
			c, _, ws := lockKernel(turns, func(memory.NodeID, int) { runtime.Gosched() })
			gets0, puts0 := sharedFrameOps()
			m, err := c.Run(ws)
			if err != nil {
				t.Fatal(err)
			}
			gets, puts := sharedFrameOps()
			ops := float64(turns * lockWorkers * lockReps)
			g, p := float64(gets-gets0)/ops, float64(puts-puts0)/ops
			if g > bound || p > bound {
				t.Fatalf("process-wide frame list: %.3f gets and %.3f puts per op over %.2f frames per op, want at most %.2f each",
					g, p, float64(m.LiveMsgs)/ops, bound)
			}
		})
	}
}

// TestSendDrawsAFrameWithRoom: a message with a payload is encoded into
// the node's kept frame with room for it, under a smaller one, instead of
// being grown out of the frame on top; a message without a payload takes
// the frame on top as it is.
func TestSendDrawsAFrameWithRoom(t *testing.T) {
	c := New(paperConfig(2)) // ChanLoop, which queues for Recv until Run
	n := c.nodes[0]
	large, small := make([]byte, 0, 8<<10), make([]byte, 0, 512)
	id := func(frame []byte) *byte { return &frame[:1][0] }
	// send sends msg with large under small on the node's list, and
	// returns the frame it went out in and the one left on the list.
	send := func(msg wire.Msg) (sent, left []byte) {
		n.mu.Lock()
		n.frames.Put(large)
		n.frames.Put(small)
		n.Send(msg, stats.ObjReply)
		left = n.frames.Get()
		n.frames = transport.Frames{}
		n.mu.Unlock()
		sent, ok := c.tr.Recv(1)
		if !ok {
			t.Fatalf("%v: nothing received", msg.Kind)
		}
		return sent, left
	}
	reply := wire.Msg{Kind: wire.ObjReply, From: 0, To: 1, Data: make([]uint64, 512)}
	if sent, left := send(reply); id(sent) != id(large) || id(left) != id(small) {
		t.Fatalf("a %d-byte reply went out in a frame of cap %d, not the kept frame with room", reply.WireSize(), cap(sent))
	}
	grant := wire.Msg{Kind: wire.LockGrant, From: 0, To: 1}
	if sent, left := send(grant); id(sent) != id(small) || id(left) != id(large) {
		t.Fatalf("a lock grant went out in a frame of cap %d, not the frame on top", cap(sent))
	}
}
