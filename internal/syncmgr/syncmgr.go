// Package syncmgr provides the pure state machines for distributed locks
// and barriers. The GOS runtime drives them with protocol messages; they
// know nothing about the network. Locks implement the acquire/release
// operations whose LRC semantics (flush on release, invalidate on
// acquire) the paper's Java consistency follows; barriers are the
// synchronization structure Jiajia's migration [9] hooks into.
//
// Both structures support "blocking": when a release (or the last barrier
// arrival) carried piggybacked diffs that had to be forwarded to a
// migrated home, the next grant (or the barrier go) is deferred until the
// forwarded diffs are acknowledged, preserving the release-visibility
// guarantee of LRC.
package syncmgr

import (
	"fmt"

	"repro/internal/memory"
)

// Waiter identifies a thread parked on a lock or barrier.
type Waiter struct {
	Node memory.NodeID
	Slot int32
}

func (w Waiter) String() string { return fmt.Sprintf("t%d@n%d", w.Slot, w.Node) }

// Lock is a FIFO mutual-exclusion lock managed by its home node.
type Lock struct {
	held    bool
	queue   []Waiter
	blocked int // pending forwarded-diff acks gating the next grant
}

// NewLock returns an unheld lock.
func NewLock() *Lock { return &Lock{} }

// Acquire requests the lock for w. It returns true when the lock is
// granted immediately; otherwise w is queued FIFO.
func (l *Lock) Acquire(w Waiter) bool {
	if !l.held && l.blocked == 0 && len(l.queue) == 0 {
		l.held = true
		return true
	}
	l.queue = append(l.queue, w)
	return false
}

// Release frees the lock and returns the next waiter to grant, if any and
// if no forwarded diffs are pending.
func (l *Lock) Release() (Waiter, bool) {
	if !l.held {
		panic("syncmgr: release of unheld lock")
	}
	l.held = false
	return l.tryGrant()
}

// Block defers subsequent grants until Unblock is called count times
// (one per forwarded piggybacked diff awaiting its ack).
func (l *Lock) Block(count int) { l.blocked += count }

// Unblock consumes one pending ack and returns a waiter to grant if the
// lock became grantable.
func (l *Lock) Unblock() (Waiter, bool) {
	if l.blocked <= 0 {
		panic("syncmgr: unblock without block")
	}
	l.blocked--
	return l.tryGrant()
}

func (l *Lock) tryGrant() (Waiter, bool) {
	if l.held || l.blocked > 0 || len(l.queue) == 0 {
		return Waiter{}, false
	}
	w := l.queue[0]
	copy(l.queue, l.queue[1:])
	l.queue = l.queue[:len(l.queue)-1]
	l.held = true
	return w, true
}

// Barrier is a counting barrier over a fixed number of parties.
type Barrier struct {
	parties int
	waiters []Waiter
	blocked int
}

// NewBarrier returns a barrier expecting parties arrivals per episode.
func NewBarrier(parties int) *Barrier {
	if parties <= 0 {
		panic(fmt.Sprintf("syncmgr: barrier with %d parties", parties))
	}
	return &Barrier{parties: parties}
}

// Arrive registers w. It returns true when the barrier is ready to
// release (all parties arrived and no forwarded diffs pending).
func (b *Barrier) Arrive(w Waiter) bool {
	if len(b.waiters) >= b.parties {
		panic("syncmgr: arrival beyond parties")
	}
	b.waiters = append(b.waiters, w)
	return b.Ready()
}

// Ready reports whether the barrier can release now.
func (b *Barrier) Ready() bool {
	return len(b.waiters) == b.parties && b.blocked == 0
}

// Block defers the release until Unblock is called count times.
func (b *Barrier) Block(count int) { b.blocked += count }

// Unblock consumes one pending ack; it returns true when the barrier
// became ready to release.
func (b *Barrier) Unblock() bool {
	if b.blocked <= 0 {
		panic("syncmgr: unblock without block")
	}
	b.blocked--
	return b.Ready()
}

// Reset ends the episode, returning the waiters to release, in arrival
// order, and rearming the barrier. The returned slice is only valid until
// the next Arrive: the barrier keeps the backing array so episodes do not
// allocate.
func (b *Barrier) Reset() []Waiter {
	if !b.Ready() {
		panic("syncmgr: reset of non-ready barrier")
	}
	ws := b.waiters
	b.waiters = b.waiters[:0]
	return ws
}
