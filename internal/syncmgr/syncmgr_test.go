package syncmgr

import (
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

func w(n, s int) Waiter { return Waiter{Node: memory.NodeID(n), Slot: int32(s)} }

func TestLockImmediateGrant(t *testing.T) {
	l := NewLock()
	if !l.Acquire(w(0, 0)) {
		t.Fatal("free lock not granted immediately")
	}
	if !l.held {
		t.Fatal("lock not held after grant")
	}
}

func TestLockFIFOQueue(t *testing.T) {
	l := NewLock()
	l.Acquire(w(0, 0))
	if l.Acquire(w(1, 0)) || l.Acquire(w(2, 0)) {
		t.Fatal("held lock granted immediately")
	}
	if len(l.queue) != 2 {
		t.Fatalf("queue len = %d", len(l.queue))
	}
	next, ok := l.Release()
	if !ok || next != w(1, 0) {
		t.Fatalf("first release granted %v, %v", next, ok)
	}
	next, ok = l.Release()
	if !ok || next != w(2, 0) {
		t.Fatalf("second release granted %v, %v", next, ok)
	}
	if _, ok := l.Release(); ok {
		t.Fatal("empty queue still granted")
	}
	if l.held {
		t.Fatal("lock held after final release")
	}
}

func TestLockReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewLock().Release()
}

func TestLockBlockDefersGrant(t *testing.T) {
	l := NewLock()
	l.Acquire(w(0, 0))
	l.Acquire(w(1, 0))
	l.Block(2)
	if _, ok := l.Release(); ok {
		t.Fatal("blocked lock granted on release")
	}
	if _, ok := l.Unblock(); ok {
		t.Fatal("granted with one ack outstanding")
	}
	next, ok := l.Unblock()
	if !ok || next != w(1, 0) {
		t.Fatalf("unblock granted %v, %v", next, ok)
	}
}

func TestLockAcquireWhileBlockedQueues(t *testing.T) {
	l := NewLock()
	l.Acquire(w(0, 0))
	l.Block(1)
	l.Release()
	if l.Acquire(w(1, 0)) {
		t.Fatal("granted while blocked")
	}
	next, ok := l.Unblock()
	if !ok || next != w(1, 0) {
		t.Fatalf("unblock granted %v, %v", next, ok)
	}
}

func TestLockUnblockWithoutBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewLock().Unblock()
}

func TestBarrierReleasesAtParties(t *testing.T) {
	b := NewBarrier(3)
	if b.Arrive(w(0, 0)) || b.Arrive(w(1, 0)) {
		t.Fatal("released early")
	}
	if !b.Arrive(w(2, 0)) {
		t.Fatal("not released at full count")
	}
	ws := b.Reset()
	if len(ws) != 3 || ws[0] != w(0, 0) || ws[2] != w(2, 0) {
		t.Fatalf("waiters = %v", ws)
	}
	if len(b.waiters) != 0 {
		t.Fatal("barrier not rearmed")
	}
}

func TestBarrierReusableAcrossEpisodes(t *testing.T) {
	b := NewBarrier(2)
	for ep := 0; ep < 5; ep++ {
		b.Arrive(w(0, 0))
		if !b.Arrive(w(1, 0)) {
			t.Fatalf("episode %d did not release", ep)
		}
		b.Reset()
	}
}

func TestBarrierBlockDefersRelease(t *testing.T) {
	b := NewBarrier(2)
	b.Block(1)
	b.Arrive(w(0, 0))
	if b.Arrive(w(1, 0)) {
		t.Fatal("released while blocked")
	}
	if !b.Unblock() {
		t.Fatal("not released after unblock")
	}
	b.Reset()
}

func TestBarrierOverArrivalPanics(t *testing.T) {
	b := NewBarrier(1)
	b.Arrive(w(0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	// A second arrival without Reset is a protocol bug.
	b.Arrive(w(1, 0))
}

func TestBarrierZeroPartiesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewBarrier(0)
}

func TestBarrierResetNotReadyPanics(t *testing.T) {
	b := NewBarrier(2)
	b.Arrive(w(0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.Reset()
}

// Property: under any interleaving of acquire/release, at most one holder
// exists and every waiter is granted exactly once, in FIFO order.
func TestLockMutualExclusionProperty(t *testing.T) {
	f := func(ops []bool) bool {
		l := NewLock()
		next := 0
		granted := []int{}
		holding := false
		for _, acq := range ops {
			if acq {
				id := next
				next++
				if l.Acquire(w(id, 0)) {
					if holding {
						return false // double grant
					}
					holding = true
					granted = append(granted, id)
				}
			} else if holding {
				nw, ok := l.Release()
				holding = false
				if ok {
					holding = true
					granted = append(granted, int(nw.Node))
				}
			}
		}
		// FIFO: granted ids must be strictly increasing.
		for i := 1; i < len(granted); i++ {
			if granted[i] <= granted[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a barrier of n parties releases exactly after n arrivals no
// matter how block/unblock interleave before completion.
func TestBarrierCountingProperty(t *testing.T) {
	f := func(parties uint8, blocks uint8) bool {
		n := int(parties%8) + 1
		nb := int(blocks % 4)
		b := NewBarrier(n)
		b.Block(nb)
		released := false
		for i := 0; i < n; i++ {
			released = b.Arrive(w(i, 0))
			if released && (i != n-1 || nb > 0) {
				return false
			}
		}
		for i := 0; i < nb; i++ {
			released = b.Unblock()
			if released && i != nb-1 {
				return false
			}
		}
		if !released {
			return false
		}
		return len(b.Reset()) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
