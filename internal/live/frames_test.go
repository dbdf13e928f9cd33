package live

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/memory"
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
