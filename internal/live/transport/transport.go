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
// installed yet. Deliverer, BatchEnder, FatalSink and the engine's
// Finisher are optional, found by type assertion.
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

// BatchEnder is a Pusher whose own goroutines push in batches — TCP's
// readers, each delivering every whole frame it holds before it reads
// the socket again. The live engine installs one hook, before its sinks,
// and runs on the calling goroutine the threads a batch readied.
type BatchEnder interface {
	Pusher
	// SetBatchEnd installs fn, which the backend calls after a batch of
	// sink calls has been delivered and what they sent flushed: never
	// inside a sink call, never under a lock Send needs, and no longer
	// once data delivery is closed. What fn sends leaves the way a sink's
	// replies do, without waking a writer goroutine of its own.
	SetBatchEnd(fn func())
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
// without waiting. It backs the fault injector's delivery lines and the
// TCP backend's inbox, control and per-peer send queues.
//
// Storage is one slice, kept the way ChanLoop's inbox keeps its frames:
// TryGetAll swaps it for the caller's spare, so a consumer that drains in
// batches and hands each batch back cleared allocates nothing in steady
// state. Get, for the consumers that take one element at a time (the
// fault injector's lines, TCP's control queue, its inbox until a sink is
// installed), moves what is left to the front. A vacated slot is zeroed:
// the queue never keeps a delivered element (a frame, a message)
// reachable.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []T
	peak   int
	closed bool
}

// NewQueue returns an empty open queue.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.cond.L = &q.mu
	return q
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
	q.items = append(q.items, v)
	q.peak = max(q.peak, len(q.items))
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// Len reports the current queue depth.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	n := len(q.items)
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

// Get blocks for the next element; ok reports false once the queue is
// closed and drained.
func (q *Queue[T]) Get() (v T, ok bool) {
	q.mu.Lock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if n := len(q.items) - 1; n >= 0 {
		v, ok = q.items[0], true
		copy(q.items, q.items[1:])
		var zero T
		q.items[n] = zero
		q.items = q.items[:n]
	}
	q.mu.Unlock()
	return v, ok
}

// TryGetAll hands over every queued element, in order, and keeps
// spare[:0] as the queue's storage: the caller gets the queue's slice and
// the queue gets the caller's, so spare's slots must hold nothing the
// caller still needs (the TCP link clears each slot of its batch as it
// packs it). It never blocks; ok reports false once the queue is closed
// and drained. It is for a consumer that works in batches and waits
// elsewhere — the TCP link, whose writer goroutine is woken by the link
// and whose readers flush it in passing: one lock per batch rather than
// per element.
func (q *Queue[T]) TryGetAll(spare []T) (all []T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	all, q.items = q.items, spare[:0]
	return all, len(all) > 0 || !q.closed
}

// Close marks the queue closed: pending elements drain, then Get
// reports false; further Puts are dropped.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// frames is the process-wide free list of encode buffers, the second of
// two tiers: a live node draws from and returns to a Frames list of its
// own, under the node lock it holds anyway, and comes here only when that
// list is empty or full; every other frame owner — the TCP backend's
// readers and writers, the fault injector, a closed backend dropping a
// late send — uses this list alone.
// The ownership rule makes both tiers safe without reference counting:
// the sender encodes into a drawn buffer and transfers it to the
// transport at Send; whoever consumes the frame last — the receiving
// node's sink once it decoded and handled the frame, a TCP writer once
// the bytes are packed for the socket — returns it. This list is a LIFO
// stack under one mutex, so the warmest buffer goes out first, and gets
// and puts count the calls that reached it (frameListOps). A frame whose
// size is known — a live node's message with a payload, a frame the TCP
// reader has the header of — is drawn with room for it (GetFrameFor):
// the topmost buffer that fits, found under smaller ones, so a large
// frame is neither grown while it is encoded nor read into a buffer
// made for it alone; a header-only frame fits any buffer and takes the
// top (GetFrame). Unlike a sync.Pool it never hands a buffer back to the
// GC, so it is bounded twice: it keeps at most maxFreeFrames buffers, and
// none larger than maxFreeFrame.
var frames = struct {
	mu         sync.Mutex
	free       [][]byte
	gets, puts int64
}{free: make([][]byte, 0, maxFreeFrames)}

const (
	// maxFreeFrames bounds the list's length. A node has a few frames in
	// flight per peer; a deeper list only holds memory (at 1024, a SOR
	// run without migration peaked at twice the resident memory).
	maxFreeFrames = 64
	// maxOwnFrames bounds a node's own list (Frames): a node keeps what
	// its own hops need, so a hop touches the process-wide list only when
	// a node receives more frames than it sends, or the other way round.
	maxOwnFrames = 8
	// maxFreeFrame bounds a kept buffer's capacity: protocol frames stay
	// well under it (a SOR row is 2 KiB), but one-off giants (a
	// cluster-wide state assignment carrying the whole final memory)
	// must not stay pinned for every tiny ack to draw.
	maxFreeFrame = 64 << 10
	// newFrame is the capacity of a buffer GetFrame makes when the list
	// is empty.
	newFrame = 512
	// poison fills a frame PutFrame takes back under the race detector
	// (poisonFrames): as a kind byte it is no kind.
	poison = 0xDB
)

// GetFrame returns an empty frame buffer from the free list; append-encode
// into it and hand it to a Transport (which owns it afterwards).
//
//dsm:hotpath
func GetFrame() []byte {
	frames.mu.Lock()
	frames.gets++
	if k := len(frames.free); k > 0 {
		frame := frames.free[k-1]
		frames.free[k-1] = nil
		frames.free = frames.free[:k-1]
		frames.mu.Unlock()
		return frame
	}
	frames.mu.Unlock()
	return make([]byte, 0, newFrame)
}

// GetFrameFor is GetFrame for a frame of n bytes: it returns the topmost
// buffer on the free list with room for n, or a new one, so a large
// frame is neither grown while it is encoded nor read into a buffer made
// for it alone. A frame with no payload fits any buffer: GetFrame.
//
//dsm:hotpath
func GetFrameFor(n int) []byte {
	frames.mu.Lock()
	frames.gets++
	if frame, ok := takeFit(frames.free, n); ok {
		frames.free = frames.free[:len(frames.free)-1]
		frames.mu.Unlock()
		return frame
	}
	frames.mu.Unlock()
	return make([]byte, 0, max(n, newFrame))
}

// takeFit removes the topmost frame with room for n from a free list,
// shifting the frames above it down one; when ok, the caller shortens the
// list by one.
func takeFit(free [][]byte, n int) (frame []byte, ok bool) {
	for i := len(free) - 1; i >= 0; i-- {
		if frame = free[i]; cap(frame) >= n {
			copy(free[i:], free[i+1:])
			free[len(free)-1] = nil
			return frame, true
		}
	}
	return nil, false
}

// PutFrame returns a frame buffer whose contents are fully consumed.
// The caller must not touch the slice afterwards: under the race
// detector its bytes are overwritten (poisonFrames), so a late reader
// decodes garbage instead of a frame that happens to be intact.
//
//dsm:hotpath
func PutFrame(frame []byte) {
	if frame, ok := reclaim(frame); ok {
		putShared(frame)
	}
}

// reclaim empties a consumed frame for a free list, poisoning its bytes
// under the race detector; ok is false for a frame no list keeps (none,
// or larger than maxFreeFrame), which goes to the GC.
func reclaim(frame []byte) (empty []byte, ok bool) {
	if c := cap(frame); c == 0 || c > maxFreeFrame {
		return nil, false
	}
	if poisonFrames {
		full := frame[:cap(frame)]
		for i := range full {
			full[i] = poison
		}
	}
	return frame[:0], true
}

// putShared pushes a reclaimed frame onto the process-wide list, or drops
// it when the list is full.
func putShared(frame []byte) {
	frames.mu.Lock()
	frames.puts++
	if len(frames.free) < maxFreeFrames {
		frames.free = append(frames.free, frame)
	}
	frames.mu.Unlock()
}

// frameListOps reports how many GetFrame(For) and putShared calls have
// reached the process-wide list. Nothing in the program reads it; the live
// engine's tests do, to hold a hop off the shared lock.
func frameListOps() (gets, puts int64) {
	frames.mu.Lock()
	defer frames.mu.Unlock()
	return frames.gets, frames.puts
}

// Frames is one owner's free list of frame buffers, the first tier in
// front of the process-wide list: Get pops the frame Put kept last, or
// draws from GetFrame when the list is empty, and GetFor takes the
// topmost kept frame with room for a known size, or draws from
// GetFrameFor when none has it; Put keeps at most
// maxOwnFrames frames and spills the rest to the process-wide list. It is
// not safe for concurrent use: its owner guards it with a lock of its
// own — a live node's lock, which its send and receive paths hold
// anyway — so a frame hop that stays in process takes no process-wide
// lock. Traffic that is not symmetric per node still reaches it: in the
// §5.2 lock kernel the lock's manager receives two frames per lock
// interval (the request, and the release, which gets no reply) and sends
// one (the grant), so its full list spills one frame per interval, and
// the worker, which sends two and receives one, draws one. The zero value
// is an empty list.
type Frames struct {
	free [maxOwnFrames][]byte
	n    int
}

// Get returns an empty frame buffer, the one Put kept last if any.
//
//dsm:hotpath
func (f *Frames) Get() []byte {
	if f.n == 0 {
		return GetFrame()
	}
	f.n--
	frame := f.free[f.n]
	f.free[f.n] = nil
	return frame
}

// GetFor is Get for a frame of n bytes: the topmost frame on the list
// with room for n, or GetFrameFor's when none has it.
//
//dsm:hotpath
func (f *Frames) GetFor(n int) []byte {
	frame, ok := takeFit(f.free[:f.n], n)
	if !ok {
		return GetFrameFor(n)
	}
	f.n--
	return frame
}

// Put takes back a consumed frame, under the same rules as PutFrame (the
// caller must not touch it afterwards; under the race detector its bytes
// are poisoned), and keeps it unless the list is full.
//
//dsm:hotpath
func (f *Frames) Put(frame []byte) {
	frame, ok := reclaim(frame)
	if !ok {
		return
	}
	if f.n == len(f.free) {
		putShared(frame)
		return
	}
	f.free[f.n] = frame
	f.n++
}

// ChanLoop is the in-process loopback backend: one unbounded FIFO inbox
// per node. An unbounded queue (rather than a raw buffered channel)
// keeps Send non-blocking at any fan-in, which the Transport contract
// requires of every backend. It pulls until a node's sink is installed,
// then pushes at Deliver; a sink's error goes to the FatalSink handler.
type ChanLoop struct {
	inboxes []inbox
	closed  atomic.Bool
	relayMu sync.Mutex     // no relay starts once closed is set
	relays  sync.WaitGroup // Deliver's fresh goroutines, which Close waits for

	fatal     func(error)
	fatalOnce sync.Once
}

// inbox is one node's queue and push side under one mutex: the frames
// queued since the last drain, the sink, the claim of the one goroutine
// draining into it (whose batch is swapped with queued at each drain),
// closed, the peak depth, and a cond signalled only while Recv waits.
// relay, bound once by NewChanLoop, is the body of a goroutine handOff
// starts to drain the inbox: a hand-off builds no closure.
type inbox struct {
	mu               sync.Mutex
	queued, batch    [][]byte
	sink             func(frame []byte) error
	draining, closed bool
	peak, waiting    int
	ready            sync.Cond
	relay            func()
}

// NewChanLoop builds the loopback transport for a cluster of n nodes.
func NewChanLoop(n int) *ChanLoop {
	if n <= 0 {
		panic(fmt.Sprintf("transport: chanloop over %d nodes", n))
	}
	t := &ChanLoop{inboxes: make([]inbox, n)}
	for i := range t.inboxes {
		in, to := &t.inboxes[i], memory.NodeID(i)
		in.ready.L = &in.mu
		in.relay = func() {
			defer t.relays.Done()
			t.Deliver(to)
		}
	}
	return t
}

// SetSink implements Pusher. Frames already queued reach sink at the
// next Deliver(id).
func (t *ChanLoop) SetSink(id memory.NodeID, sink func(frame []byte) error) {
	in := &t.inboxes[id]
	in.mu.Lock()
	in.sink = sink
	in.mu.Unlock()
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
//
//dsm:hotpath
func (t *ChanLoop) Deliver(to memory.NodeID) {
	in := &t.inboxes[to]
	in.mu.Lock()
	if in.sink == nil || in.draining || len(in.queued) == 0 {
		in.mu.Unlock()
		return
	}
	in.draining = true
	in.batch, in.queued = in.queued, in.batch[:0]
	sink := in.sink
	in.mu.Unlock()
	var err error
	for i, frame := range in.batch {
		in.batch[i] = nil
		if err == nil && !t.closed.Load() {
			err = sink(frame)
		} else {
			PutFrame(frame)
		}
	}
	in.mu.Lock()
	in.draining = false
	more := len(in.queued) > 0
	in.mu.Unlock()
	if err != nil || more {
		t.handOff(to, err)
	}
}

// handOff follows a drain that failed — the first sink error goes to the
// fatal handler, on a goroutine of its own — or left frames behind, which
// a fresh goroutine takes unless the transport is closed (Close waits).
func (t *ChanLoop) handOff(to memory.NodeID, err error) {
	if err != nil {
		t.fatalOnce.Do(func() { go t.fatal(err) })
		return
	}
	t.relayMu.Lock()
	if !t.closed.Load() {
		t.relays.Add(1)
		go t.inboxes[to].relay()
	}
	t.relayMu.Unlock()
}

// Send implements Transport. A send racing a concurrent Close is a
// silent drop, per the Transport contract: the frame's buffer feeds the
// pool and the handler that issued it carries on (its run is about to
// observe the closed transport itself).
//
//dsm:hotpath
func (t *ChanLoop) Send(to memory.NodeID, frame []byte) {
	if to < 0 || int(to) >= len(t.inboxes) {
		panic(fmt.Sprintf("transport: send to invalid node %d", to))
	}
	in := &t.inboxes[to]
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		PutFrame(frame)
		return
	}
	in.queued = append(in.queued, frame)
	in.peak = max(in.peak, len(in.queued))
	if in.waiting > 0 {
		in.ready.Signal()
	}
	in.mu.Unlock()
}

// Recv implements Transport, moving the frames behind the one it takes
// to the front (pull mode keeps the push side's two slices whole).
func (t *ChanLoop) Recv(id memory.NodeID) ([]byte, bool) {
	in := &t.inboxes[id]
	in.mu.Lock()
	defer in.mu.Unlock()
	for len(in.queued) == 0 && !in.closed {
		in.waiting++
		in.ready.Wait()
		in.waiting--
	}
	if len(in.queued) == 0 {
		return nil, false
	}
	frame := in.queued[0]
	n := copy(in.queued, in.queued[1:])
	in.queued[n] = nil
	in.queued = in.queued[:n]
	return frame, true
}

// Close implements Transport: Recv drains what an inbox holds, then
// returns false. A Deliver under way finishes the sink call it is in,
// then feeds the rest to the pool and returns; Close waits for those on
// relay goroutines.
func (t *ChanLoop) Close() {
	t.relayMu.Lock()
	t.closed.Store(true)
	t.relayMu.Unlock()
	for i := range t.inboxes {
		in := &t.inboxes[i]
		in.mu.Lock()
		in.closed = true
		in.ready.Broadcast()
		in.mu.Unlock()
	}
	t.relays.Wait()
}

// InboxLen reports node id's current inbox depth (tests, observability).
func (t *ChanLoop) InboxLen(id memory.NodeID) int {
	in := &t.inboxes[id]
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.queued)
}

// PeakDepth implements Pusher: the deepest any node's inbox got.
func (t *ChanLoop) PeakDepth() int {
	peak := 0
	for i := range t.inboxes {
		in := &t.inboxes[i]
		in.mu.Lock()
		peak = max(peak, in.peak)
		in.mu.Unlock()
	}
	return peak
}

var _ Deliverer = (*ChanLoop)(nil)
