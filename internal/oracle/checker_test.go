package oracle

import (
	"testing"

	"repro/internal/flight"
	"repro/internal/memory"
)

// retained reports how many write records c keeps.
func (c *Checker) retained() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ws := range c.writes {
		for _, uw := range ws {
			n += len(uw)
		}
	}
	return n
}

// TestCheckerHoldsLiveWritesOnly: threads take turns at one lock, each
// turn reading one word and writing it once more. However long the run,
// the checker keeps at most two writes of the word per thread: a write
// goes once every thread has seen the same thread's next one.
func TestCheckerHoldsLiveWritesOnly(t *testing.T) {
	const threads, obj = 4, memory.ObjectID(0)
	for _, n := range []int{1e4, 1e5} {
		c := NewChecker()
		c.Threads = func() int { return threads }
		sync := func(k flight.Kind, u int) { c.Record(flight.Event{Kind: k, Thread: int32(u)}) }
		access := func(k flight.Kind, u int, v uint64) {
			c.Record(flight.Event{Kind: k, Thread: int32(u), Obj: obj, Val: v})
		}
		peak := 0
		for i := range n {
			u := i % threads
			sync(flight.Acquire, u)
			access(flight.Read, u, uint64(i))
			access(flight.Write, u, uint64(i+1))
			sync(flight.Release, u)
			peak = max(peak, c.retained())
		}
		if viols := c.Violations(); len(viols) > 0 {
			t.Fatalf("N=%d: %d violation(s), first: %v", n, len(viols), viols[0])
		}
		if c.Ops() != 4*n {
			t.Errorf("N=%d: %d ops, want %d", n, c.Ops(), 4*n)
		}
		if peak > 2*threads {
			t.Errorf("N=%d: %d write records kept at the peak, want at most %d", n, peak, 2*threads)
		}
	}
}
