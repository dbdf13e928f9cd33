//dsm:wallclock live threads wait, arm retry timers and time their latencies in real time

package live

import (
	"iter"
	"sync/atomic"
	"time"

	"repro/internal/memory"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Thread is one application thread of a live cluster node, run as a
// coroutine (iter.Pull). The protocol it speaks is the embedded
// proto.Driver, shared with the sim engine; this type is the driver's
// proto.Host on real goroutines: the node mutex, the rendezvous on the
// thread's mailbox (fault-in replies, lock grants, diff acks, barrier
// go, retry tokens) and wall-clock retry timers.
//
// A thread waits by yielding, never by blocking: Recv takes a queued
// token if there is one and otherwise parks the coroutine. Whoever moves
// its state word from parked to running resumes it, on their own
// goroutine: the TCP reader whose batch put a token in its mailbox
// (Cluster.resumeReadied) — so a reply runs the thread it wakes, and the
// requests the thread sends next leave in that reader's flush — and for
// every other wake (a local handoff, a retry timer, a ChanLoop or fault
// injector delivery, Abort) the thread's home goroutine, which Run starts
// and which also runs it first. A reader's goroutine is lent, not given:
// the thread returns it when it parks, when it ends, or at the end of the
// first DSM call after it has held it for lendBudget, and then continues
// on its home goroutine. Hence the contract: a thread must not block
// outside the DSM — the reader it may be running on reads nothing
// meanwhile.
//
// The locking discipline: every access check, state mutation and send
// runs under t.node.mu; Recv, the only wait, drops the lock, parks, and
// retakes it. The mailbox has no lock of its own: every putter holds the
// node lock, and the resumer's recheck and Recv's park decision read its
// two atomics (tokens pending, closed) without it. The driver never holds
// two node locks, and the transport and mailbox never block a sender, so
// there is no lock cycle.
type Thread struct {
	proto.Driver
	node *node
	fn   func(proto.Thread) // the worker's body
	// mbox is the thread's reply queue: the node's receive path (or a
	// local sync manager path) puts protocol messages, timers put retry
	// tokens — by value, so nothing is boxed — and Recv takes them.
	// Unbounded, so ToThread never blocks a delivering goroutine holding
	// a node lock; closed only by Abort.
	mbox mailbox

	// The coroutine: state (running, parked, handed, ended) decides who
	// resumes it, resume switches into it and yield out of it; wake is the
	// home goroutine's doorbell, one token deep.
	state  atomic.Int32
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	wake   chan struct{}
	// readied: a reader's receive path put a token in mbox, and that
	// reader's batch-end hook resumes the thread. Guarded by the node lock.
	readied bool
	// The current run, set by its resumer: on a reader's goroutine (lent),
	// since lentAt, with calls DSM calls ended; handBack asks the resumer
	// to pass the thread to its home goroutine.
	lent     bool
	lentAt   time.Time
	calls    int
	handBack bool
}

// A thread's state word. The goroutine that moves it to running resumes
// the thread; after each yield that goroutine moves it on.
const (
	running int32 = iota // being resumed, or about to be
	parked               // yielded in Recv: the next wake resumes it
	handed               // gave a reader's goroutine back: its home goroutine resumes it
	ended                // the worker's function returned, or an abort unwound it
)

// home is the thread's home goroutine: it runs the thread first, and
// again after every wake no reader takes and every hand-back, until the
// thread ends — there or on a reader.
func (t *Thread) home() {
	t.resume, _ = iter.Pull(t.body)
	if !t.run(false) {
		return
	}
	for range t.wake {
		switch {
		case t.state.CompareAndSwap(parked, running), t.state.CompareAndSwap(handed, running):
			if !t.run(false) {
				return
			}
		case t.state.Load() == ended:
			return
		}
	}
}

// run resumes the thread, which the caller has just moved to running,
// and resumes it again for as long as a token or the mailbox's close
// lands by the time it parks: after each yield the thread is marked
// parked first and the mailbox rechecked second, so a waker that found it
// still running is seen here. It reports false once the thread has ended.
// A lent run — on a reader's goroutine — also returns when the thread
// hands the goroutine back.
func (t *Thread) run(lent bool) bool {
	t.lent, t.calls = lent, 0
	if lent {
		t.lentAt = time.Now()
	}
	for {
		if _, ok := t.resume(); !ok {
			t.state.Store(ended)
			t.kick() // a reader ran the end: the home goroutine returns
			return false
		}
		if t.handBack {
			t.handBack = false
			t.state.Store(handed)
			t.kick()
			return true
		}
		t.state.Store(parked)
		if !t.mbox.ready() || !t.state.CompareAndSwap(parked, running) {
			return true
		}
	}
}

// body is the coroutine: the worker's function, then the end of its
// views. An abort unwinds it from the wait it parked in (Recv panics with
// abortPanic), which ends the coroutine like a return.
func (t *Thread) body(yield func(struct{}) bool) {
	t.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortPanic); !ok || !t.node.c.aborted.Load() {
				panic(r)
			}
		}
	}()
	t.fn(t)
	t.exit()
}

// wakeHome rings the home goroutine for a token no reader will resume the
// thread for. A thread that is not parked needs no ring: whoever resumes
// it rechecks the mailbox after it parks.
func (t *Thread) wakeHome() {
	if t.state.Load() == parked {
		t.kick()
	}
}

// kick leaves a token on the home goroutine's doorbell, unless one is
// there already.
func (t *Thread) kick() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
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
// (proto.Node.Leave) and pushes what the thread sent. A thread running on
// a reader's goroutine hands it back here once it has held it for
// lendBudget, looking at the clock every lendCheck calls.
func (t *Thread) Unlock() {
	t.node.leave(t.Slot())
	if !t.lent {
		return
	}
	if t.calls++; t.calls%lendCheck == 0 && time.Since(t.lentAt) > lendBudget {
		t.handBack = true
		t.yield(struct{}{})
	}
}

// Recv implements proto.Host: release the node lock, park the coroutine
// (a yield) while no token is pending, then retake the lock and take the
// next token from the mailbox. Whoever resumes the thread — its
// home goroutine, or the reader whose delivery readied it — does so on
// its own goroutine. The thread stays inside the DSM while parked: it
// writes none of its views, so fault-ins for them are served meanwhile
// (two threads faulting each other's viewed objects would otherwise wait
// for each other). A closed mailbox means the run aborted: what the
// driver waits for will never arrive over a dead transport.
func (t *Thread) Recv(tok *proto.Token) {
	t.node.unlock()
	for t.mbox.pending.Load() == 0 {
		if t.mbox.closed.Load() {
			panic(abortPanic{}) // Abort closed the mailbox: unwind the coroutine
		}
		t.yield(struct{}{})
	}
	t.node.mu.Lock()
	*tok = t.mbox.take() // only this thread takes: the token is still there
}

// mailbox is a thread's token FIFO. toks and peak are guarded by the
// node lock; pending (len(toks)) and closed are atomics, so Recv decides
// whether to park, and the thread's resumer rechecks after the park,
// without the lock. Once closed (by Abort) it takes no more tokens, but
// those already queued are still taken first.
type mailbox struct {
	toks    []proto.Token
	peak    int
	pending atomic.Int32
	closed  atomic.Bool
}

// put queues tok. The caller holds the node lock.
//
//dsm:hotpath
func (m *mailbox) put(tok proto.Token) {
	if !m.closed.Load() {
		m.toks = append(m.toks, tok)
		m.peak = max(m.peak, len(m.toks))
		m.pending.Add(1)
	}
}

// take removes the oldest token and moves the rest to the front: a
// thread seldom has a second one queued. The caller holds the node lock
// and has seen pending > 0.
//
//dsm:hotpath
func (m *mailbox) take() proto.Token {
	tok := m.toks[0]
	n := copy(m.toks, m.toks[1:])
	m.toks[n] = proto.Token{}
	m.toks = m.toks[:n]
	m.pending.Add(-1)
	return tok
}

// ready reports whether Recv would return without parking: a token is
// pending, or the mailbox is closed.
func (m *mailbox) ready() bool { return m.pending.Load() > 0 || m.closed.Load() }

// retryDelay is how long a retry timer waits, first of all the
// requester's back-off after an obsolete-home miss under the broadcast
// locator (the sim engine's gos.retryDelay, on the wall clock).
const retryDelay = 100 * time.Microsecond

// lendBudget is how long a thread may hold a reader's goroutine without
// parking: the end of its first DSM call past it hands the goroutine
// back. The clock is read every lendCheck DSM calls of a lent run.
const (
	lendBudget = 200 * time.Microsecond
	lendCheck  = 32
)

// RetryAfter implements proto.Host.
func (t *Thread) RetryAfter(kind proto.TokenKind, obj memory.ObjectID) {
	time.AfterFunc(retryDelay, func() {
		t.node.mu.Lock()
		t.mbox.put(proto.Token{Kind: kind, Obj: obj})
		t.node.unlock()
		t.wakeHome()
	})
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
