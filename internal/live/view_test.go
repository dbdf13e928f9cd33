package live

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/proto"
)

// runWithin runs ws on c and fails the test if the run errs or is still
// going after d: a fault-in waiting for views nobody releases hangs.
func runWithin(t *testing.T, c *Cluster, d time.Duration, ws []proto.Worker) {
	t.Helper()
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
	case <-time.After(d):
		c.Abort(fmt.Errorf("run still going after %v", d))
		<-done
		t.Fatalf("run still going after %v: a fault-in waits for write views", d)
	}
}

// TestViewsEndWithThread: a thread whose function returns holding a
// write view on its home object gives the view up as it exits. Node 1's
// thread returns with its view open; node 0 then writes the object
// under a lock — the fault-in waits, if need be, for that exit — and
// flushes a diff, which under FT1 makes its next fault-in migrate the
// home. A view that outlived its thread would veto the migration (and,
// since a fault-in waits for a holder outside the DSM, hang the first
// fault-in); the end state must show no view open.
func TestViewsEndWithThread(t *testing.T) {
	cfg := paperConfig(2)
	cfg.Policy = migration.Fixed{T: 1}
	c := New(cfg)
	obj := c.AddObject(4, 1)
	l := c.AddLock(0)
	viewed := make(chan struct{})
	runWithin(t, c, 10*time.Second, []proto.Worker{
		{Node: 1, Name: "holder", Fn: func(th proto.Thread) {
			th.WriteView(obj)[0] = 1
			close(viewed)
		}},
		{Node: 0, Name: "faulter", Fn: func(th proto.Thread) {
			<-viewed
			th.Acquire(l)
			th.Write(obj, 1, 2)
			th.Release(l)
			th.Acquire(l)
			th.Read(obj, 1)
			th.Release(l)
		}},
	})
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if h := c.HomeOf(obj); h != 0 {
		t.Fatalf("home on node %d, want node 0: the exited thread's view vetoed the migration", h)
	}
	if got := c.ObjectData(obj); got[0] != 1 || got[1] != 2 {
		t.Fatalf("object %v, want [1 2 ...]", got)
	}
}

// TestMutualViewFaults: two nodes each hold a write view of their own
// home object and then fault the other's. Each fault-in reaches a home
// whose holder is parked in its own fault-in: a parked thread is inside
// the DSM, so both are served and both complete.
func TestMutualViewFaults(t *testing.T) {
	c := New(paperConfig(2))
	objs := []memory.ObjectID{c.AddObject(4, 0), c.AddObject(4, 1)}
	bar := c.AddBarrier(0, 2)
	var holding sync.WaitGroup
	holding.Add(2)
	var ws []proto.Worker
	for me := range 2 {
		ws = append(ws, proto.Worker{Node: memory.NodeID(me), Name: fmt.Sprintf("t%d", me),
			Fn: func(th proto.Thread) {
				th.WriteView(objs[me])[0] = uint64(me + 1)
				holding.Done()
				holding.Wait() // both views open, no fault-in in flight yet
				th.ReadView(objs[1-me])
				th.Barrier(bar)
			}})
	}
	runWithin(t, c, 10*time.Second, ws)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	for me, obj := range objs {
		if got := c.ObjectData(obj)[0]; got != uint64(me+1) {
			t.Fatalf("object %d word 0 = %d, want %d", obj, got, me+1)
		}
	}
}

// TestParkedFaultServedAtHolderCall: a fault-in that arrives while the
// holder of a write view on the object runs application code waits,
// parked, and is answered within the holder's next DSM call — here a
// ReadView of another object — before that call returns.
func TestParkedFaultServedAtHolderCall(t *testing.T) {
	c := New(paperConfig(2))
	obj, other := c.AddObject(4, 1), c.AddObject(4, 1)
	bar := c.AddBarrier(0, 2)
	n1 := c.nodes[1]
	state := func() (parked int, served int64) {
		n1.mu.Lock()
		defer n1.unlock()
		return len(n1.parked), n1.counters.FaultIns
	}
	faulting := make(chan struct{})
	runWithin(t, c, 10*time.Second, []proto.Worker{
		{Node: 1, Name: "holder", Fn: func(th proto.Thread) {
			th.WriteView(obj)[0] = 7
			close(faulting)
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
				if parked, _ := state(); parked == 1 {
					break
				}
				if time.Now().After(deadline) {
					c.Abort(fmt.Errorf("the fault-in never parked"))
					return
				}
			}
			th.ReadView(other)
			if parked, served := state(); parked != 0 || served != 1 {
				c.Abort(fmt.Errorf("after the holder's ReadView: %d frames parked, %d fault-ins served; want 0 and 1", parked, served))
				return
			}
			th.Barrier(bar)
		}},
		{Node: 0, Name: "faulter", Fn: func(th proto.Thread) {
			<-faulting
			th.ReadView(obj)
			th.Barrier(bar)
		}},
	})
}
