// Package transport is the pluggable message-movement layer of the live
// DSM engine (internal/live): it carries encoded protocol frames between
// nodes. The engine encodes every message through the
// internal/wire binary codec before handing it to a Transport and
// decodes on receipt — even for the in-process backend — so the frame
// boundary is exactly what a TCP (or RDMA, or shared-memory-ring)
// backend would see, and a networked implementation is a drop-in.
//
// Contract:
//
//   - Send must not block indefinitely and must be safe for concurrent
//     use: the engine calls it holding a node lock, and two nodes
//     sending to each other over a bounded channel would deadlock.
//   - Frames between one (sender, receiver) pair are delivered in send
//     order (FIFO per pair, as a TCP connection would provide). The
//     ChanLoop backend is strictly FIFO per receiver.
//   - The transport owns the frame after Send; the caller must not
//     reuse the buffer. Recv transfers ownership to the caller, and so
//     does a Pusher's sink call.
//
// The live engine runs over a Pusher, checked at compile time (the type
// of its Config.Transport), and never calls Recv, which stays for the
// conformance suite, the benchmark's probes and a node whose sink is not
// installed yet. Deliverer, FatalSink and the engine's Finisher are
// optional, found by type assertion.
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/memory"
)

// Transport moves encoded protocol frames between nodes.
type Transport interface {
	// Send delivers frame to node to. It must not block indefinitely and
	// may be called concurrently from any goroutine. After Close, sends
	// are a silent drop (per the Queue contract) — a handler racing a
	// concurrent Close must not panic.
	Send(to memory.NodeID, frame []byte)
	// Recv blocks for the next frame addressed to node id. ok reports
	// false when the transport has been closed and no frames remain.
	Recv(id memory.NodeID) (frame []byte, ok bool)
	// Close shuts delivery down: blocked and future Recv calls drain
	// what was already sent, then return ok=false.
	Close()
}

// FatalSink is implemented by backends that can detect a mid-run
// failure — a peer death, a severed link, an injected fault — and
// report it instead of hanging. The live engine installs its abort
// hook here before any traffic flows, so a detected failure wakes
// every parked thread and Run returns an error within a bound rather
// than waiting forever on frames that will never arrive.
type FatalSink interface {
	// SetFatal installs the failure handler. The backend must invoke it
	// at most once, from a goroutine that holds no backend lock the
	// handler might need (the handler typically closes the transport).
	SetFatal(fn func(error))
}

// Pusher is a Transport that delivers a node's frames by calling the node
// instead of queueing them for Recv; the live engine runs over no other,
// installing one sink per node before traffic flows. A backend with
// goroutines of its own pushes on them (TCP's readers, the fault
// injector's delivery lines); one with none is a Deliverer.
type Pusher interface {
	Transport
	// SetSink installs node id's sink. From its return on, the backend
	// may call sink instead of queueing a frame for Recv(id), from any
	// goroutine, concurrently, never under a lock Send needs. Frames
	// that were queued for Recv(id) before the call are handed to sink
	// first, in order, so FIFO per pair holds across the installation.
	// The sink owns the frame (it ends in PutFrame or another Send) and
	// must not block; a non-nil error means the frame was not a protocol
	// frame, and the backend raises it as a link failure (FatalSink) once
	// it has left the call. After Close the backend drops late frames
	// into the pool rather than push them.
	SetSink(id memory.NodeID, sink func(frame []byte) error)
	// PeakDepth reports the high-water mark, in frames, over the backend's
	// delivery queues. A queue is unbounded (see Queue), so this is the
	// only evidence of a receiver falling behind: the live engine surfaces
	// it in its run metrics, dsmnode as dsm_inbox_peak.
	PeakDepth() int
}

// Deliverer is a Pusher that receives on no goroutine of its own: Send
// only queues, in the order the sender's lock admits, and the live engine
// calls the hook for each node it queued frames for once it drops that lock.
type Deliverer interface {
	Pusher
	// Deliver runs node to's sink on one batch of its queued frames, in
	// order, on the calling goroutine, and the rest on a fresh one Close
	// waits for — unless another goroutine is draining that node already,
	// which then takes them. The caller holds no lock a sink takes. Before
	// SetSink(to) it does nothing: the frames wait for Recv.
	Deliver(to memory.NodeID)
}

// Queue is an unbounded, closable FIFO guarded by a mutex and
// condition variable: Put never blocks (at any fan-in), Get blocks
// until an element or Close arrives, TryGetAll takes everything queued
// in one critical section without waiting. It backs ChanLoop's per-node
// inboxes, the live engine's per-thread mailboxes, the fault injector's
// delivery lines and the TCP backend's inbox, control and per-peer send
// queues — one implementation of the subtle blocking-queue logic.
//
// Storage is a power-of-two ring (the idiom of internal/sim's queue)
// that doubles when full and is kept when empty, so a steady
// Put→Get cycle allocates nothing. A vacated slot is zeroed: the ring
// never keeps a delivered element (a frame, a message) reachable.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []T // ring storage; len(buf) is zero or a power of two
	head   int // index of the oldest element
	count  int // queued elements
	peak   int
	closed bool
}

// NewQueue returns an empty open queue.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// grow doubles the ring, unwrapping the contents to the front.
func (q *Queue[T]) grow() {
	n := 2 * len(q.buf)
	if n == 0 {
		n = 8
	}
	nb := make([]T, n)
	k := copy(nb, q.buf[q.head:])
	copy(nb[k:], q.buf[:q.head])
	q.buf = nb
	q.head = 0
}

// Put appends v; it reports false (dropping v) when the queue is
// closed. It never blocks.
//
//dsm:hotpath
func (q *Queue[T]) Put(v T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.count == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.count)&(len(q.buf)-1)] = v
	q.count++
	if q.count > q.peak {
		q.peak = q.count
	}
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// Len reports the current queue depth.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	n := q.count
	q.mu.Unlock()
	return n
}

// Peak reports the high-water mark of Len over the queue's lifetime.
func (q *Queue[T]) Peak() int {
	q.mu.Lock()
	p := q.peak
	q.mu.Unlock()
	return p
}

// wait blocks until the queue holds an element or is closed and reports
// whether it holds one. The caller holds q.mu.
func (q *Queue[T]) wait() bool {
	for q.count == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.count > 0
}

// Get blocks for the next element; ok reports false once the queue is
// closed and drained.
func (q *Queue[T]) Get() (v T, ok bool) {
	q.mu.Lock()
	if !q.wait() {
		q.mu.Unlock()
		return v, false
	}
	var zero T
	v = q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.count--
	q.mu.Unlock()
	return v, true
}

// TryGetAll appends every queued element to dst, in order, and returns
// the extended slice — dst as given when nothing is queued: it never
// blocks. ok reports false once the queue is closed and drained. It is
// for a consumer that works in batches and waits elsewhere — the TCP
// link, whose writer goroutine is woken by the link and whose readers
// flush it in passing: one lock per batch rather than per element.
func (q *Queue[T]) TryGetAll(dst []T) (all []T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	// The queued elements are buf[head:head+n], then buf[:count-n]
	// where the ring wraps.
	n := min(q.count, len(q.buf)-q.head)
	first, wrapped := q.buf[q.head:q.head+n], q.buf[:q.count-n]
	dst = append(append(dst, first...), wrapped...)
	clear(first)
	clear(wrapped)
	ok = q.count > 0 || !q.closed
	q.head, q.count = 0, 0
	return dst, ok
}

// Close marks the queue closed: pending elements drain, then Get
// reports false; further Puts are dropped.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// framePool recycles encode buffers across the live send path. The
// ownership rule makes pooling safe without reference counting: the
// sender encodes into GetFrame and transfers the buffer to the
// transport at Send; whoever consumes the frame last — the receiving
// node's sink once it decoded the frame, a TCP writer once the bytes
// are packed for the socket, a closed backend dropping a late send —
// returns it with PutFrame.
//
// A sync.Pool holds pointers, so a pooled buffer travels in a *[]byte
// box. The boxes are recycled too: GetFrame empties one into boxPool,
// PutFrame refills one from it, and a frame hop allocates nothing.
var (
	framePool = sync.Pool{
		New: func() any {
			b := make([]byte, 0, 512)
			return &b
		},
	}
	boxPool = sync.Pool{New: func() any { return new([]byte) }}
)

// GetFrame returns an empty frame buffer from the pool; append-encode
// into it and hand it to a Transport (which owns it afterwards).
func GetFrame() []byte {
	box := framePool.Get().(*[]byte)
	frame := (*box)[:0]
	*box = nil
	boxPool.Put(box)
	return frame
}

// maxPooledFrame caps what PutFrame keeps: protocol frames stay well
// under it, but one-off giants (a cluster-wide state assignment
// carrying the whole final memory) must not permanently seed the pool
// with memory-image-sized buffers that every tiny ack then pins.
const maxPooledFrame = 1 << 20

// PutFrame returns a frame buffer whose contents are fully consumed.
// The caller must not touch the slice afterwards.
func PutFrame(frame []byte) {
	if cap(frame) > maxPooledFrame {
		return
	}
	box := boxPool.Get().(*[]byte)
	*box = frame
	framePool.Put(box)
}

// ChanLoop is the in-process loopback backend: one unbounded FIFO inbox
// per node. An unbounded queue (rather than a raw buffered channel)
// keeps Send non-blocking at any fan-in, which the Transport contract
// requires of every backend. It pulls until a node's sink is installed,
// then pushes at Deliver; a sink's error goes to the FatalSink handler.
type ChanLoop struct {
	inboxes []*Queue[[]byte]
	outlets []outlet
	closed  atomic.Bool
	relayMu sync.Mutex     // no relay starts once closed is set
	relays  sync.WaitGroup // Deliver's fresh goroutines, which Close waits for

	fatal     func(error)
	fatalOnce sync.Once
}

// outlet is one node's push side: its sink, and the claim of the one
// goroutine draining the inbox into it, whose batch buffer this is.
type outlet struct {
	sink  atomic.Pointer[func(frame []byte) error]
	busy  atomic.Bool
	batch [][]byte
}

// NewChanLoop builds the loopback transport for a cluster of n nodes.
func NewChanLoop(n int) *ChanLoop {
	if n <= 0 {
		panic(fmt.Sprintf("transport: chanloop over %d nodes", n))
	}
	t := &ChanLoop{inboxes: make([]*Queue[[]byte], n), outlets: make([]outlet, n)}
	for i := range t.inboxes {
		t.inboxes[i] = NewQueue[[]byte]()
	}
	return t
}

// SetSink implements Pusher. Frames already queued reach sink at the
// next Deliver(id).
func (t *ChanLoop) SetSink(id memory.NodeID, sink func(frame []byte) error) {
	t.outlets[id].sink.Store(&sink)
}

// SetFatal implements FatalSink: fn gets the first sink error.
func (t *ChanLoop) SetFatal(fn func(error)) { t.fatal = fn }

// Deliver implements Deliverer. A claim covers one batch and is given up
// before the inbox is looked at again: a frame put meanwhile — by another
// sender, or by this batch's sinks through a nested call, which claims a
// different inbox (so nesting is no deeper than the cluster is wide) —
// found the claim taken, and the re-check hands it to a fresh goroutine:
// the caller may be a thread whose mailbox holds what those frames wait
// for (the install that ends a forwarding cycle). After Close, or once a
// sink failed, the batch feeds the pool instead; the error reaches the
// fatal handler, which closes the transport, off the relay Close awaits.
func (t *ChanLoop) Deliver(to memory.NodeID) {
	o, in := &t.outlets[to], t.inboxes[to]
	sink := o.sink.Load()
	if sink == nil || !o.busy.CompareAndSwap(false, true) {
		return
	}
	var err error
	o.batch, _ = in.TryGetAll(o.batch[:0])
	for i, frame := range o.batch {
		o.batch[i] = nil
		if err == nil && !t.closed.Load() {
			err = (*sink)(frame)
		} else {
			PutFrame(frame)
		}
	}
	o.busy.Store(false)
	if err != nil {
		t.fatalOnce.Do(func() { go t.fatal(err) })
		return
	}
	if in.Len() > 0 {
		t.relayMu.Lock()
		if !t.closed.Load() {
			t.relays.Add(1)
			go func() { defer t.relays.Done(); t.Deliver(to) }()
		}
		t.relayMu.Unlock()
	}
}

// Send implements Transport. A send racing a concurrent Close is a
// silent drop, per the Queue contract: the frame's buffer feeds the
// pool and the handler that issued it carries on (its run is about to
// observe the closed transport itself).
func (t *ChanLoop) Send(to memory.NodeID, frame []byte) {
	if to < 0 || int(to) >= len(t.inboxes) {
		panic(fmt.Sprintf("transport: send to invalid node %d", to))
	}
	if !t.inboxes[to].Put(frame) {
		PutFrame(frame)
	}
}

// Recv implements Transport.
func (t *ChanLoop) Recv(id memory.NodeID) ([]byte, bool) {
	return t.inboxes[id].Get()
}

// Close implements Transport: Recv drains what an inbox holds, then
// returns false. A Deliver under way finishes the sink call it is in,
// then feeds the rest to the pool and returns; Close waits for those on
// relay goroutines.
func (t *ChanLoop) Close() {
	t.relayMu.Lock()
	t.closed.Store(true)
	t.relayMu.Unlock()
	for _, b := range t.inboxes {
		b.Close()
	}
	t.relays.Wait()
}

// InboxLen reports node id's current inbox depth (tests, observability).
func (t *ChanLoop) InboxLen(id memory.NodeID) int { return t.inboxes[id].Len() }

// PeakDepth implements Pusher: the deepest any node's inbox got.
func (t *ChanLoop) PeakDepth() int {
	max := 0
	for _, b := range t.inboxes {
		if p := b.Peak(); p > max {
			max = p
		}
	}
	return max
}

var _ Deliverer = (*ChanLoop)(nil)
