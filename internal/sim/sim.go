// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel. It is the substrate on which the simulated cluster
// runs: every application thread is a Proc scheduled in virtual time, and
// every node daemon a queue consumer (Queue.Consume) — callbacks the
// kernel schedules in the very (time, sequence) slot where it would have
// woken a Proc parked on that queue, so events fire in the order a daemon
// process produced and a coroutine switch is paid only when a thread blocks.
//
// Determinism: all execution is serialized through a single event queue
// ordered by (time, sequence number). A Proc is a coroutine (iter.Pull):
// the kernel loop in Run resumes it, and it yields back to park, so
// exactly one of them runs at any instant. Two runs with the same inputs
// produce identical event orders, identical virtual times and identical
// statistics.
//
// Performance: the kernel is allocation-free in steady state. The 4-ary
// min-heap holds only 24-byte keys — time, sequence number and a slot
// index, no pointers — so sifting moves no pointer words and hits no write
// barrier. The payload of each event, a tagged union (activate-proc /
// deliver-to-queue / generic-fn), lives in a slab slot the key names,
// recycled through a free list; dispatch clears and frees the slot before
// it runs the event, so nothing fired stays reachable. Sleep, queue
// wakeups and message deliveries thus schedule without touching the heap
// allocator; queues are ring buffers with O(1) receive and one receiver.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// eventKind discriminates the scheduled-event union.
type eventKind uint8

const (
	// evFn runs an arbitrary callback (cold paths: retries, test hooks).
	evFn eventKind = iota
	// evActivate resumes a parked proc (Sleep wakeups, queue wakeups,
	// spawn activation) without allocating a closure.
	evActivate
	// evDeliver enqueues a payload on a queue at delivery time — the
	// simulated-network hot path.
	evDeliver
)

// key orders one scheduled event in the heap. seq breaks ties so that
// events scheduled earlier fire earlier, giving FIFO semantics at equal
// timestamps; slot names the event's payload in the Env's slab.
type key struct {
	t    Time
	seq  uint64
	slot int32
}

func (k key) before(other key) bool {
	if k.t != other.t {
		return k.t < other.t
	}
	return k.seq < other.seq
}

// event is a scheduled occurrence's payload. Exactly one of fn/proc/q is
// meaningful, per kind (a queue consumer's evFn names its queue as well).
type event struct {
	kind eventKind
	proc *Proc  // evActivate target
	q    *Queue // evDeliver target; evFn: the queue whose consumer fn is a step of, if any
	msg  any    // evDeliver payload
	// inflight, when non-nil, is decremented at delivery (evDeliver);
	// it lets the network model track undelivered messages without a
	// per-message closure.
	inflight *int
	fn       func() // evFn callback
}

// Env is a simulation environment: a virtual clock plus an event queue.
// It is not safe for concurrent use from multiple OS threads; all access
// happens from the single running Proc or from event callbacks.
type Env struct {
	now     Time
	seq     uint64
	heap    []key   // 4-ary min-heap ordered by (t, seq)
	slab    []event // payloads, indexed by key.slot
	free    []int32 // slab slots not holding a scheduled event
	handed  *Proc   // the proc a parking one dispatched to, for Run to resume
	procs   []*Proc
	nlive   int
	failure *PanicError
	running bool
	stats   EnvStats
}

// EnvStats reports kernel-level counters, useful for performance analysis
// of the simulation itself.
type EnvStats struct {
	Events      uint64 // events fired
	Activations uint64 // proc activations dispatched
	Spawned     int    // procs ever spawned
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Stats returns kernel counters accumulated so far.
func (e *Env) Stats() EnvStats { return e.stats }

// At schedules fn to run at virtual time now+d. Negative delays are
// clamped to zero. fn runs in event context: it must not block.
func (e *Env) At(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now + d).fn = fn
}

// DeliverAt schedules v to be enqueued on q at now+d (clamped to now).
// If inflight is non-nil it is decremented when the delivery fires. This
// is the allocation-free path for simulated message delivery: no closure
// is created, and v is enqueued as-is.
func (e *Env) DeliverAt(d Time, q *Queue, v any, inflight *int) {
	if d < 0 {
		d = 0
	}
	ev := e.schedule(e.now + d)
	ev.kind, ev.q, ev.msg, ev.inflight = evDeliver, q, v, inflight
}

// activateAt schedules proc p to resume at time t.
func (e *Env) activateAt(t Time, p *Proc) {
	ev := e.schedule(t)
	ev.kind, ev.proc = evActivate, p
}

// schedule files an event at time t, behind every event already filed,
// and returns its zeroed payload slot (an evFn) for the caller to fill in
// place. The pointer is good until the next schedule.
//
//dsm:hotpath
func (e *Env) schedule(t Time) *event {
	var slot int32
	if k := len(e.free); k > 0 {
		slot = e.free[k-1]
		e.free = e.free[:k-1]
	} else {
		slot = int32(len(e.slab))
		e.slab = append(e.slab, event{})
	}
	e.seq++
	e.push(key{t: t, seq: e.seq, slot: slot})
	return &e.slab[slot]
}

// push inserts k into the 4-ary heap. A hand-rolled heap over []key avoids
// the per-push interface boxing of container/heap (one allocation per
// scheduled event) and trades depth for width: 4-ary halves the levels
// touched by the frequent sift-ups.
//
//dsm:hotpath
func (e *Env) push(k key) {
	h := append(e.heap, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	e.heap = h
}

// pop removes and returns the earliest key.
//
//dsm:hotpath
func (e *Env) pop() key {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	if n > 0 {
		// Sift the hole down from the root, then drop last in.
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			min := first
			end := first + 4
			if end > n {
				end = n
			}
			for j := first + 1; j < end; j++ {
				if h[j].before(h[min]) {
					min = j
				}
			}
			if !h[min].before(last) {
				break
			}
			h[i] = h[min]
			i = min
		}
		h[i] = last
	}
	return top
}

// next dispatches events on the caller's stack, in (t, seq) order, until a
// proc's activation comes up, and returns that proc (a parking caller's
// own, possibly), or nil when there is nothing to dispatch — the heap
// drained, or a failure needs shutting down. The kernel loop and a
// parking proc both dispatch through here.
//
//dsm:hotpath
func (e *Env) next() *Proc {
	for e.failure == nil && len(e.heap) > 0 {
		k := e.pop()
		e.now = k.t
		e.stats.Events++
		// Read field by field rather than copying the slot out whole: the
		// block copy cost BenchmarkLockKernel ≈ 4 %.
		ev := &e.slab[k.slot]
		kind, proc, q, msg, inflight, fn := ev.kind, ev.proc, ev.q, ev.msg, ev.inflight, ev.fn
		*ev = event{} // a fired event keeps nothing reachable
		e.free = append(e.free, k.slot)
		switch kind {
		case evActivate:
			if !proc.done {
				e.stats.Activations++
				return proc
			}
		case evDeliver:
			if inflight != nil {
				*inflight--
			}
			q.Send(msg)
		default:
			e.runFn(fn, q)
		}
	}
	return nil
}

// runFn runs an evFn callback, converting a panic into the run's failure.
// Callbacks run on whichever stack is dispatching — a parking proc's,
// possibly — so without this a panic would unwind through (and be blamed
// on) an unrelated proc; a step of a queue's consumer is blamed on its
// label.
func (e *Env) runFn(fn func(), owner *Queue) {
	defer func() {
		if r := recover(); r != nil && e.failure == nil {
			name := "(event callback)"
			if owner != nil {
				name = owner.label()
			}
			e.failure = &PanicError{Proc: name, Value: r, Stack: string(debug.Stack())}
		}
	}()
	fn()
}

// killPanic unwinds a parked proc that shutdown stops.
type killPanic struct{}

// PanicError wraps a panic raised inside a Proc, with the proc name and a
// captured stack trace.
type PanicError struct {
	Proc  string
	Value any
	Stack string
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v\n%s", p.Proc, p.Value, p.Stack)
}

// DeadlockError is returned by Run when the event queue drains while procs
// remain parked: nothing can ever wake them.
type DeadlockError struct {
	Parked []string // "name (state)" for each stuck proc
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock, %d procs parked forever: %v", len(d.Parked), d.Parked)
}

// Proc is a simulated process, run as a coroutine. Procs run one at a
// time; they block only through the kernel (Sleep, Queue.Recv), never
// through OS primitives.
type Proc struct {
	Name string
	env  *Env
	// resume switches into the coroutine and stop ends it; yield, inside
	// it, switches back to the resumer and reports false once stopped.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	done   bool
	state  string
}

// Env returns the environment this proc belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Spawn creates a proc running fn, activated at the current virtual time
// (after already-scheduled events at this time).
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{Name: name, env: e, state: "new"}
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.main(fn)
	})
	e.procs = append(e.procs, p)
	e.nlive++
	e.stats.Spawned++
	e.activateAt(e.now, p)
	return p
}

// main is the coroutine's body: fn, then the proc's end. A panic becomes
// the run's failure, unless it is the killPanic of a stopped proc.
func (p *Proc) main(fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, isKill := r.(killPanic); !isKill && p.env.failure == nil {
				p.env.failure = &PanicError{Proc: p.Name, Value: r, Stack: string(debug.Stack())}
			}
		}
		p.done = true
		p.state = "done"
		p.env.nlive--
	}()
	p.state = "running"
	fn(p)
}

// park suspends the calling proc until its next activation.
//
// The parking proc dispatches events itself, on its own stack, in exactly
// the order the kernel loop would, and keeps running when the next
// activation is its own: a proc that sleeps or waits on a reply already
// due pays no coroutine switch at all. Otherwise it hands the proc whose
// activation came up (nil when there is none) to the kernel loop and
// yields; the loop resumes that proc. Event order, virtual times and
// kernel counters are identical to the loop dispatching everything — a
// variant that cost two switches on every own wake-up. Exactly one stack
// executes simulation code at any instant, so all kernel state stays
// single-threaded.
func (p *Proc) park(why string) {
	e := p.env
	p.state = why
	q := e.next()
	if q != p {
		e.handed = q
		if !p.yield(struct{}{}) {
			panic(killPanic{}) // stopped by shutdown: unwind the proc
		}
	}
	p.state = "running"
}

// Sleep advances this proc's progress by d of virtual time, letting other
// events fire in between.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	e := p.env
	e.activateAt(e.now+d, p)
	p.park("sleep")
}

// Run executes events until the queue drains. It returns nil on a clean
// finish (all procs done), a *DeadlockError if procs remain parked, or a
// *PanicError if any proc panicked.
func (e *Env) Run() error {
	if e.running {
		panic("sim: Env.Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	defer e.shutdown()
	for p := e.next(); p != nil; {
		p.resume()
		// p parked, handing over the next proc, or ended.
		if p, e.handed = e.handed, nil; p == nil {
			p = e.next()
		}
	}
	if f := e.failure; f != nil {
		return f
	}
	if e.nlive > 0 {
		var parked []string
		for _, p := range e.procs {
			if !p.done {
				parked = append(parked, fmt.Sprintf("%s (%s)", p.Name, p.state))
			}
		}
		sort.Strings(parked)
		return &DeadlockError{Parked: parked}
	}
	return nil
}

// shutdown stops every proc that has not ended, however Run returns: a
// parked one unwinds from its park, one never activated never starts.
func (e *Env) shutdown() {
	for _, p := range e.procs {
		if !p.done {
			p.stop()
		}
	}
}

// Queue is a FIFO message queue between procs with blocking receive.
// Sends never block. A queue has one receiver, as each thread owns its
// reply queue and each node daemon its inbox; any proc may poll with
// TryRecv. The buffer is a power-of-two ring, so receive is O(1).
//
// A receiver that never needs a stack of its own is a consumer (Consume),
// not a Proc: a callback scheduled where a parked receiver would be woken.
type Queue struct {
	env       *Env
	name      string
	recvState string        // "recv <name>", precomputed so parking never concatenates
	buf       []any         // ring storage, len(buf) is a power of two
	head      int           // index of the oldest item
	count     int           // buffered items
	waiter    *Proc         // the proc parked in Recv, if any
	consume   func()        // the consumer; nil on a queue procs receive from
	label     func() string // names the consumer in a PanicError
	armed     bool          // the consumer is idle: the next Send schedules it
}

// NewQueue creates a queue named for diagnostics.
func (e *Env) NewQueue(name string) *Queue {
	return &Queue{env: e, name: name, recvState: "recv " + name}
}

// Len reports the number of buffered items.
func (q *Queue) Len() int { return q.count }

// grow doubles the ring, unwrapping the contents to the front.
func (q *Queue) grow() {
	newCap := 2 * len(q.buf)
	if newCap == 0 {
		newCap = 8
	}
	nb := make([]any, newCap)
	for i := 0; i < q.count; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

// Consume makes fn the queue's receiver in place of a Proc blocked in
// Recv, and arms it. fn runs in event context (it must not block) and
// takes items with TryRecv. label names the consumer should one of its
// steps panic; it is called only then, so it may say what the step was at.
func (q *Queue) Consume(label func() string, fn func()) {
	q.label, q.consume, q.armed = label, fn, true
}

// Arm declares the consumer idle, the state of a receiver parked in Recv:
// the next Send schedules it at the current time — behind the events
// already queued at that instant, the slot of the (t, seq) order a parked
// receiver's wake-up takes — and disarms the queue, so what arrives before
// the consumer has drained the queue and armed again buffers without an
// event, as it does for a receiver that is awake.
func (q *Queue) Arm() { q.armed = true }

// After schedules fn at now+d as a further step of the queue's consumer:
// Env.At under the consumer's label. The caller binds fn once, so no
// closure is built per call.
//
//dsm:hotpath
func (q *Queue) After(d Time, fn func()) {
	ev := q.env.schedule(q.env.now + d)
	ev.q, ev.fn = q, fn
}

// Send enqueues v and wakes the parked receiver — or schedules the armed
// consumer — if any. Callable from proc or event context.
//
//dsm:hotpath
func (q *Queue) Send(v any) {
	if q.count == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.count)&(len(q.buf)-1)] = v
	q.count++
	if q.armed {
		q.armed = false
		q.After(0, q.consume)
		return
	}
	if w := q.waiter; w != nil {
		q.waiter = nil
		q.env.activateAt(q.env.now, w)
	}
}

// dequeue removes and returns the oldest item. The queue must be
// non-empty.
//
//dsm:hotpath
func (q *Queue) dequeue() any {
	v := q.buf[q.head]
	q.buf[q.head] = nil // release the reference for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.count--
	return v
}

// Recv blocks p until an item is available and returns it. It panics if
// another proc is parked in Recv on q.
func (q *Queue) Recv(p *Proc) any {
	for q.count == 0 {
		if q.waiter != nil {
			panic(fmt.Sprintf("sim: %s receives on queue %q, where %s is parked already", p.Name, q.name, q.waiter.Name))
		}
		q.waiter = p
		p.park(q.recvState)
	}
	return q.dequeue()
}

// TryRecv returns (item, true) if one is buffered, else (nil, false),
// without blocking.
func (q *Queue) TryRecv() (any, bool) {
	if q.count == 0 {
		return nil, false
	}
	return q.dequeue(), true
}
