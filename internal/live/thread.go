//dsm:wallclock live threads wait, arm retry timers and time their latencies in real time

package live

import (
	"time"

	"repro/internal/live/transport"
	"repro/internal/memory"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Thread is one application thread running as a real goroutine on a
// live cluster node. The protocol it speaks is the embedded
// proto.Driver, shared with the sim engine; this type is the driver's
// proto.Host on real goroutines: the node mutex, the blocking
// rendezvous on the thread's mailbox (fault-in replies, lock grants,
// diff acks, barrier go, retry tokens) and wall-clock retry timers.
//
// The locking discipline: every access check, state mutation and send
// runs under t.node.mu; Recv, the only wait, drops the lock, blocks, and
// retakes it. The driver never holds two node locks, and the transport
// and mailbox never block a sender, so there is no lock cycle.
type Thread struct {
	proto.Driver
	node *node
	fn   func(proto.Thread) // the worker's body
	// mbox is the thread's reply queue: the node's receive path (or a
	// local sync manager path) puts protocol messages, timers put retry
	// tokens — by value, so nothing is boxed — and the thread blocks in
	// Recv. Unbounded, so ToThread never blocks a delivering goroutine
	// holding a node lock; closed only by Abort.
	mbox *transport.Queue[proto.Token]
}

// Now returns the wall-clock time elapsed since the run started.
func (t *Thread) Now() sim.Time { return sim.Time(time.Since(t.node.c.start).Nanoseconds()) }

// Compute is a no-op on the live engine: modeled work is a simulation
// concept, real work takes real time.
func (t *Thread) Compute(sim.Time) {}

// ChargeFault implements proto.Host (modeled cost: none live).
func (t *Thread) ChargeFault() {}

// ChargeSend implements proto.Host (modeled cost: none live).
func (t *Thread) ChargeSend() {}

// Lock implements proto.Host: take the node's state lock, entering the
// DSM (proto.Node.Enter).
func (t *Thread) Lock() {
	t.node.mu.Lock()
	t.node.ps.Enter(t.Slot())
}

// Unlock implements proto.Host, ending a DSM call: node.leave, which
// retries the parked frames, marks the thread out of the DSM
// (proto.Node.Leave) and pushes what the thread sent.
func (t *Thread) Unlock() { t.node.leave(t.Slot()) }

// Recv implements proto.Host: park on the mailbox with the node lock
// released, and retake the lock around the received token. The thread
// stays inside the DSM while parked: it writes none of its views, so
// fault-ins for them are served meanwhile (two threads faulting each
// other's viewed objects would otherwise wait for each other). A closed
// mailbox means the run aborted: what the driver waits for will never
// arrive over a dead transport.
func (t *Thread) Recv(tok *proto.Token) {
	t.node.unlock()
	var ok bool
	if *tok, ok = t.mbox.Get(); !ok {
		panic(abortPanic{}) // Abort closed the mailbox: unwind to the worker wrapper
	}
	t.node.mu.Lock()
}

// retryDelay is how long a retry timer waits, first of all the
// requester's back-off after an obsolete-home miss under the broadcast
// locator (the sim engine's gos.retryDelay, on the wall clock).
const retryDelay = 100 * time.Microsecond

// RetryAfter implements proto.Host.
func (t *Thread) RetryAfter(kind proto.TokenKind, obj memory.ObjectID) {
	mbox := t.mbox
	time.AfterFunc(retryDelay, func() { mbox.Put(proto.Token{Kind: kind, Obj: obj}) })
}

// SyncPoint implements proto.Host: the thread's write views expired
// (the contract forbids holding one across a synchronization
// operation), so release their pins. Called with the node lock held.
func (t *Thread) SyncPoint() { t.node.ps.UnpinViews(t.Slot()) }

// exit ends the thread's views when its function returns.
func (t *Thread) exit() {
	t.Lock()
	t.SyncPoint()
	t.node.unlock()
}

// WriteView faults the object for writing and returns its data for bulk
// mutation within the current interval. On a home copy the view is
// pinned (proto.Node.PinView) until this thread's next synchronization
// operation, or until its function returns: the object does not migrate,
// and a fault-in for it waits until this thread is inside the DSM, so the
// receive path never reads the slice while this thread writes it without
// the node lock. Hence the contract: a thread holding a write view must
// not block outside the DSM; a fault-in of that object waits for its next
// DSM call. The pin is live-only on purpose: under sim a view cannot be
// interrupted, and pinning there would change migration decisions.
func (t *Thread) WriteView(obj memory.ObjectID) []uint64 {
	t.Lock()
	o := t.ObjForWrite(obj)
	if t.node.ps.IsHome[obj] {
		t.node.ps.PinView(t.Slot(), obj)
	}
	t.Unlock()
	return o.Data
}

// compile-time check: the live thread implements the shared interface
// (NewDriver's Host parameter checks the other one).
var _ proto.Thread = (*Thread)(nil)
