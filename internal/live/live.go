//dsm:wallclock the live engine runs on real goroutines: spin backoff and run timing are wall-clock

// Package live runs the Global Object Space protocol on real
// goroutines: application threads as coroutines (iter.Pull) that park on
// a mailbox for fault-in replies, lock grants and diff acks — its tokens
// guarded by the node lock every putter holds, while the park decision
// and the resumer's recheck read two atomics, tokens pending and closed —
// and one receive path per node (node.receive: decode, check, handle
// under the node lock) run by whoever delivers the frame, as the transport
// decides: the sender's own goroutine once node.unlock has released its
// lock (ChanLoop, a transport.Deliverer), or the transport's own (the TCP
// socket's reader, the fault injector's delivery line). The engine needs
// a transport.Pusher (Config.Transport has that type) and never calls
// Recv. A parked thread is resumed by whoever wakes it, on their own
// goroutine: on a batching backend (transport.BatchEnder: TCP) the reader
// whose frames readied it runs it at the end of the batch, after the
// batch's replies are flushed, and what the thread sends next leaves in
// that reader's next flush — a round trip costs no goroutine wake-up at
// either end; every other wake goes to the thread's home goroutine. A
// borrowed reader is always given back (Thread), and the contract is: a
// thread must not block outside the DSM. Flight rings are the engine's
// own; every other subscriber attaches through Subscribe
// (proto.Space.Subscribe), as on sim, and synchronizes itself: nodes
// deliver to it concurrently.
// A frame that cannot be routed yet is parked at its node until an
// unlock finds it routable. Messages between nodes cross a pluggable
// transport (internal/live/transport) and are always encoded through the
// internal/wire binary codec — even in-process — so a networked backend
// is a drop-in. A payload is therefore a copy with one owner on each
// side: the receive path decodes into buffers from the node's
// twindiff.Pool, returns a handled frame's diffs to it and lets a
// fault-in reply's data become the cached copy; Send returns a served
// fault-in's snapshot and a sync message's piggybacked diffs once
// encoded, and a thread's flushed diff stays the driver's until
// acknowledged. (Under sim the receiver shares the sender's buffers
// instead, and returns none.)
//
// The protocol — node-side handlers and thread-side driver alike — is
// the same code the virtual-time simulator runs (internal/proto): this
// package contributes real scheduling (node is the proto.Engine, Thread
// the proto.Host; a mutex serializes each node's state between whoever
// runs its receive path and its local threads), real nondeterminism,
// and wall-clock metrics.
// A live run is not reproducible event-for-event — that is the point —
// but for the deterministic programs the scenario engine generates, its
// final memory digest must equal the sim engine's under every policy,
// and every run must satisfy the same invariants and LRC oracle.
//
// Scalar Read/Write accesses are fully synchronized (they run under the
// node's state lock) and carry no restrictions. The bulk ReadView/
// WriteView slices are weaker than under sim, whose cooperative
// scheduler makes a view atomic until the thread's next protocol
// action: live, a view is raw memory shared with the node's receive path.
// Write views of home objects are pinned until the holder's next
// synchronization, or until its function returns (proto.Node.PinView):
// the home does not migrate, so a mid-view demote cannot silently drop
// writes. A fault-in for such an object is served from the home copy
// itself, but only while no holder of a view on it runs application
// code: the receive path parks it while a holder is outside the DSM
// (proto.Node.CanRoute), and the first node.unlock that finds every
// holder inside — at the latest the holder's next DSM call, which retries
// the parked frames before it leaves the DSM again — serves it. So the
// receive path never reads the words a holder is writing, and the
// contract is: a thread holding a write view must not block outside the
// DSM; a fault-in of that object waits for its next DSM call. With
// several threads on one node there is one further caveat: a view must
// not be held while *another* thread of the same node synchronizes (the
// acquire may recycle a clean copy's buffer).
package live

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/hlc"
	"repro/internal/live/transport"
	"repro/internal/memory"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Config parameterizes one live DSM run: the protocol selection and
// layout both engines share (proto.Shared, handed to proto.NewSpace as
// is) plus what only the goroutine engine has — the transport,
// the one-node mode, the flight rings and the scrape registry. Observers
// attach through Subscribe (Space.Subscribe), after New.
type Config struct {
	proto.Shared
	// Transport carries encoded frames between nodes; nil selects the
	// in-process ChanLoop backend.
	Transport transport.Pusher
	// LocalNode, when non-nil, is the one node this process runs; the
	// others run in peer processes that Transport reaches and that declare
	// the same layout. Run keeps this node's protocol state, sink and
	// threads and releases the rest.
	LocalNode *memory.NodeID
	// FlightCap, when positive, attaches a flight recorder of that
	// capacity to every node, stamped from one engine-local hybrid
	// logical clock. Ignored when FlightLocal is set.
	FlightCap int
	// FlightLocal, when non-nil, is an externally owned recorder to
	// attach to the node whose ID it carries — the multi-process mode,
	// where the cluster member owns the recorder so its HLC stamps
	// observe remote frames and the finish exchange can gather the ring.
	// No other node gets a recorder.
	FlightLocal *flight.Recorder
	// Metrics, when non-nil, receives the engine's live metrics
	// (cluster-wide frame counters, per-node protocol counters, merged
	// latency histograms) so a scrape endpoint can read them mid-run.
	// All registered reads are race-safe: atomics, or sums taken under
	// each node's mutex.
	Metrics *telemetry.Registry
}

// Finisher is the end-of-run hook of a transport that spans processes,
// called once this process's workers have finished and before Close.
// Such a process holds one node (Config.LocalNode), so neither the
// quiescence wait nor the end state is its own to see. FinishRun must
// first block until no protocol frame is in flight anywhere in the
// cluster (every process's workers have finished and all trailing
// traffic — lock releases, manager updates, acks — has been fully
// handled); inflight reports this process's own counter (sent minus
// fully handled, so the cluster-wide sum is zero exactly at global
// quiescence). Then it gathers every member's proto.NodeReport on node
// 0, which runs proto.Assemble — what the in-process engines read — and
// keeps the memory, and Installs this process's view of it in sp.
// In-process backends don't implement it: Run spins on the counter and
// reads the end state off its own nodes.
type Finisher interface {
	FinishRun(sp *proto.Space, inflight func() int64) error
}

// Cluster is a configured live DSM instance. Build it with New, declare
// shared objects, locks and barriers, then call Run (once).
type Cluster struct {
	cfg Config
	// Space holds the declared layout and every node's protocol state;
	// its AddObject/InitObject/AddLock/AddBarrier and post-run inspection
	// methods (valid only after Run returned) are the cluster's own.
	*proto.Space
	tr    transport.Pusher
	push  transport.Deliverer // tr's delivery hook, when it has one
	nodes []*node             // the nodes this process runs: all, or Config.LocalNode
	// relay: tr is a transport.BatchEnder, so every sink call runs on a
	// goroutine that ends its batch in resumeReadied.
	relay bool

	start    time.Time
	inflight atomic.Int64 // frames sent, not yet fully handled

	// abortMu serializes Abort against thread registration; abortErr is
	// the first abort cause, aborted its lock-free mirror for hot loops.
	abortMu  sync.Mutex
	abortErr error
	aborted  atomic.Bool
}

// ErrAborted wraps every error returned by a run that was torn down by
// Abort (a transport-detected peer death, an injected fault, a
// watchdog). Test with errors.Is.
var ErrAborted = errors.New("live: run aborted")

// ErrProtocol wraps the abort cause when a peer sent bytes that are not
// a protocol frame, or a frame naming something the cluster's layout
// does not have: the run ends (wrapping ErrAborted too), the process does
// not panic.
var ErrProtocol = errors.New("live: protocol violation")

// abortPanic unwinds a thread parked in a protocol wait when the run
// aborts: Abort closes every thread mailbox and wakes the parked threads,
// Recv finds the mailbox closed and panics with this value, and the
// thread's coroutine recovers it (Thread.body). User code never sees it
// (the protocol waits all live inside Thread methods).
type abortPanic struct{}

// Abort tears the run down: it records err as the run's failure, closes
// the transport (in-flight frames drop) and closes every thread mailbox,
// waking the parked threads, so protocol waits unwind instead of parking
// forever on frames that will never arrive. Run then returns an error
// wrapping ErrAborted.
// The first cause wins; later calls are no-ops. Safe to call from any
// goroutine — the engine installs it as the transport's fatal handler
// (transport.FatalSink) so a detected peer death aborts the run within a
// bound.
func (c *Cluster) Abort(err error) {
	c.abortMu.Lock()
	defer c.abortMu.Unlock()
	if c.abortErr != nil {
		return
	}
	if err == nil {
		err = errors.New("unspecified failure")
	}
	c.abortErr = fmt.Errorf("%w: %w", ErrAborted, err)
	c.aborted.Store(true)
	for _, n := range c.nodes {
		if n.ps.On(flight.Abort) {
			n.ps.Emit(flight.Event{Kind: flight.Abort})
			break
		}
	}
	c.tr.Close()
	for _, n := range c.nodes {
		for _, t := range n.threads {
			t.mbox.closed.Store(true)
			t.wakeHome()
		}
	}
}

// abortCause returns the recorded abort error (nil when not aborted).
func (c *Cluster) abortCause() error {
	c.abortMu.Lock()
	defer c.abortMu.Unlock()
	return c.abortErr
}

// New builds a live cluster per cfg, taken as given: the paper's
// selection is proto.DefaultShared, which dsm.New starts from. A nil
// Transport selects the in-process ChanLoop.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("live: cluster needs at least one node")
	}
	c := &Cluster{cfg: cfg, tr: cfg.Transport}
	if c.tr == nil {
		c.tr = transport.NewChanLoop(cfg.Nodes)
	}
	c.push, _ = c.tr.(transport.Deliverer)
	_, c.relay = c.tr.(transport.BatchEnder)
	c.Space = proto.NewSpace(&c.cfg.Shared)
	var stamp func() hlc.Stamp
	if cfg.FlightLocal == nil && cfg.FlightCap > 0 {
		stamp = hlc.New(nil).Tick
	}
	for i := 0; i < cfg.Nodes; i++ {
		ps := c.NewNode(memory.NodeID(i))
		if cfg.LocalNode != nil && *cfg.LocalNode != ps.ID {
			continue // declared here, run elsewhere: Run releases it
		}
		n := &node{c: c, ps: ps}
		n.ps.Eng = n
		n.ps.Counters = &n.counters
		switch {
		case cfg.FlightLocal != nil && cfg.FlightLocal.Node() == ps.ID:
			c.AttachFlight(cfg.FlightLocal)
		case stamp != nil:
			c.AttachFlight(flight.NewRecorder(ps.ID, cfg.FlightCap, stamp))
		}
		c.nodes = append(c.nodes, n)
	}
	if cfg.Metrics != nil {
		c.registerMetrics(cfg.Metrics)
	}
	return c
}

// registerMetrics exposes the engine's internals on a telemetry
// registry. Every read function is safe against a mid-run scrape: the
// in-flight gauge is an atomic, and the per-node protocol counters —
// the frames sent among them — and latency histograms are summed under
// each node's mutex (the same lock the receive path and threads hold
// while mutating them).
func (c *Cluster) registerMetrics(reg *telemetry.Registry) {
	counter := func(get func(cs *stats.Counters) int64) func() int64 {
		return func() int64 {
			var total int64
			for _, n := range c.nodes {
				n.mu.Lock()
				total += get(&n.counters)
				n.unlock()
			}
			return total
		}
	}
	reg.CounterFunc("dsm_live_frames_total",
		"Protocol frames sent by this process's engine.", "",
		counter(func(cs *stats.Counters) int64 { return cs.TotalMsgs(true) }))
	reg.CounterFunc("dsm_live_frame_bytes_total",
		"Encoded protocol frame bytes sent by this process's engine.", "",
		counter(func(cs *stats.Counters) int64 { return cs.TotalBytes(true) }))
	reg.GaugeFunc("dsm_inflight_frames",
		"Frames sent but not yet fully handled (the quiescence counter).", "", c.inflight.Load)
	reg.CounterFunc("dsm_migrations_total",
		"Home migrations performed by this process's nodes.", "",
		counter(func(cs *stats.Counters) int64 { return cs.Migrations }))
	reg.CounterFunc("dsm_fault_ins_total",
		"Object fault-ins served.", "",
		counter(func(cs *stats.Counters) int64 { return cs.FaultIns }))
	reg.CounterFunc("dsm_remote_writes_total",
		"Remote diffs applied at home copies.", "",
		counter(func(cs *stats.Counters) int64 { return cs.RemoteWrites }))
	reg.CounterFunc("dsm_home_reads_total",
		"Read faults trapped at home copies.", "",
		counter(func(cs *stats.Counters) int64 { return cs.HomeReads }))
	reg.CounterFunc("dsm_home_writes_total",
		"Write faults trapped at home copies.", "",
		counter(func(cs *stats.Counters) int64 { return cs.HomeWrites }))
	reg.CounterFunc("dsm_redirect_hops_total",
		"Locator redirection hops accumulated by fault-ins.", "",
		counter(func(cs *stats.Counters) int64 { return cs.RedirectHops }))
	hist := func(get func(cs *stats.Counters) *stats.Hist) func(dst *stats.Hist) {
		return func(dst *stats.Hist) {
			for _, n := range c.nodes {
				n.mu.Lock()
				dst.Add(get(&n.counters))
				n.unlock()
			}
		}
	}
	reg.HistFunc("dsm_lock_handoff_ns",
		"Lock acquire-to-grant latency in nanoseconds (log2 buckets).", "",
		hist(func(cs *stats.Counters) *stats.Hist { return &cs.LockHandoffNs }))
	reg.HistFunc("dsm_barrier_wait_ns",
		"Barrier arrive-to-release latency in nanoseconds (log2 buckets).", "",
		hist(func(cs *stats.Counters) *stats.Hist { return &cs.BarrierNs }))
	reg.HistFunc("dsm_fault_rtt_ns",
		"Object fault-in round-trip latency in nanoseconds (log2 buckets).", "",
		hist(func(cs *stats.Counters) *stats.Hist { return &cs.RoundTripNs }))
}

// Run executes the workers to completion on real goroutines and returns
// the run metrics. ExecTime/FinalTime stay zero (there is no virtual
// clock); Wall and the LiveMsgs/LiveBytes frame counters report the
// run's real cost, and Counters classify the protocol traffic exactly
// as the sim engine does.
func (c *Cluster) Run(workers []proto.Worker) (stats.Metrics, error) {
	c.Seal()
	if c.cfg.LocalNode != nil {
		c.Release(*c.cfg.LocalNode)
	}
	c.start = time.Now()
	// Register every thread before any sink is installed: receive paths
	// read the per-node thread tables (ToThread) without locks. Registration
	// holds abortMu so an Abort that arrives this early still closes
	// every mailbox it is racing into existence. Ids and slots count over
	// the full list, so cluster members agree on them.
	byID := make([]*node, c.cfg.Nodes) // nil: another process runs it
	for _, n := range c.nodes {
		byID[n.ps.ID] = n
	}
	c.abortMu.Lock()
	for i, w := range workers {
		if w.Node < 0 || int(w.Node) >= c.cfg.Nodes {
			c.abortMu.Unlock()
			panic(fmt.Sprintf("live: worker %d on invalid node %d", i, w.Node))
		}
		n := byID[w.Node]
		if n == nil {
			continue
		}
		t := &Thread{node: n, fn: w.Fn, wake: make(chan struct{}, 1)}
		t.Driver = proto.NewDriver(n.ps, t, i, int32(len(n.threads)), w.Name)
		n.threads = append(n.threads, t)
		t.mbox.closed.Store(c.abortErr != nil)
	}
	c.abortMu.Unlock()
	// A failure-detecting transport gets the abort hook before any
	// traffic flows, so a peer death wakes every parked thread.
	if fs, ok := c.tr.(transport.FatalSink); ok {
		fs.SetFatal(c.Abort)
	}
	// A batching backend gets the batch-end hook before any sink: the
	// threads a reader's batch readies run on that reader.
	if be, ok := c.tr.(transport.BatchEnder); ok {
		be.SetBatchEnd(c.resumeReadied)
	}
	// The backend runs a node's receive path on whichever goroutine delivers.
	for _, n := range c.nodes {
		c.tr.SetSink(n.ps.ID, n.receive)
	}
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		for _, t := range n.threads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t.home()
			}()
		}
	}
	wg.Wait()
	wall := time.Since(c.start)
	// Quiesce: fire-and-forget traffic (lock releases with piggybacked
	// diffs, manager updates, broadcasts) may still be crossing the
	// transport or being handled. Every frame increments inflight at
	// send and decrements after its handler completed — including any
	// frames the handler itself sent — so inflight can only reach zero
	// once no causally-pending protocol work remains. A transport that
	// spans processes supplies the cluster-wide version of the same
	// condition, and the end state, through the Finisher hook.
	var runErr error
	if f, ok := c.tr.(Finisher); !ok {
		for c.inflight.Load() != 0 && !c.aborted.Load() {
			time.Sleep(20 * time.Microsecond)
		}
	} else if !c.aborted.Load() {
		runErr = f.FinishRun(c.Space, c.inflight.Load)
	}
	c.tr.Close()
	// An abort outranks whatever the quiesce or finish steps reported:
	// their failures are downstream of the torn transport.
	if err := c.abortCause(); err != nil {
		runErr = err
	}
	// The fold takes each node's lock: on an aborted run a delivering
	// goroutine may still be inside receive.
	var m stats.Metrics
	for _, n := range c.nodes {
		n.mu.Lock()
		m.Counters.Add(&n.counters)
		for _, t := range n.threads {
			m.LivePeakMailbox = max(m.LivePeakMailbox, t.mbox.peak)
		}
		n.unlock()
	}
	m.LivePeakInbox = c.tr.PeakDepth()
	m.Wall = wall
	m.LiveMsgs, m.LiveBytes = m.TotalMsgs(true), m.TotalBytes(true)
	return m, runErr
}

// node is one live cluster node: the shared protocol state plus the
// mutex that serializes it between the node's receive path and its
// local application threads. The node itself is the proto.Engine.
type node struct {
	c  *Cluster
	ps *proto.Node
	// mu guards ps, counters, frames, parked, dests, rec and diffs — held
	// by receive around Handle and by local threads around access checks
	// and sync operations, released (always through unlock or leave)
	// while a thread waits on its mailbox.
	mu       sync.Mutex
	threads  []*Thread
	counters stats.Counters
	// frames is the node's own free list of frame buffers: Send encodes
	// into it, receive returns what it handled to it.
	frames transport.Frames
	// relay is set while receive runs a frame for a batching backend
	// (Cluster.relay): a thread it readies waits for the reader's
	// batch-end hook instead of its home goroutine.
	relay bool
	// parked holds the frames CanRoute rejected, decoded, in arrival
	// order; dests the nodes this node queued frames for on a Deliverer
	// since the lock was last released.
	parked []wire.Msg
	dests  []memory.NodeID
	// rec is where receive decodes a migrating reply's record; ToThread
	// copies it into the thread's own (Thread.rec) before the next frame
	// decodes.
	rec core.Record
	// diffs is the array receive decodes a sync message's piggybacked
	// diffs into; a parked message takes a copy.
	diffs []wire.ObjDiff
}

// unlock releases the node lock; every release goes through here or
// through leave.
func (n *node) unlock() { n.leave(-1) }

// leave is unlock for the thread in slot ending a DSM call (-1: no
// thread's call ends). Under the lock it first handles each parked frame
// that has become routable: whatever made it so — a migrating reply
// installed, a barrier-go applied, every holder of a viewed object inside
// the DSM — happened under this same lock. Only then does the thread leave
// the DSM (proto.Node.Leave), so a fault-in that waited for its views is
// served now, not at its next DSM call. After releasing the lock, it
// pushes the frames the holder queued (c.push) to their nodes, on this
// goroutine.
func (n *node) leave(slot int32) {
	for retry := true; retry && len(n.parked) > 0; {
		retry = false
		kept := n.parked[:0]
		for i := range n.parked {
			if msg := &n.parked[i]; n.ps.CanRoute(msg) {
				n.handle(msg)
				retry = true
			} else {
				kept = append(kept, *msg)
			}
		}
		clear(n.parked[len(kept):])
		n.parked = kept
	}
	if slot >= 0 {
		n.ps.Leave(slot)
	}
	n.relay = false
	if len(n.dests) == 0 {
		n.mu.Unlock()
		return
	}
	var buf [8]memory.NodeID
	dests := append(buf[:0], n.dests...)
	n.dests = n.dests[:0]
	n.mu.Unlock()
	for _, to := range dests {
		n.c.push.Deliver(to)
	}
}

// Send implements proto.Engine: encode through the wire codec into a
// buffer from the node's own free list (n.frames, which falls back to the
// process-wide one) and hand it to the transport, which owns it from here
// (a receiving node returns a frame to its own list once handled; the TCP
// backend returns them to the process-wide list once packed for the
// socket). A message with a payload is encoded into a frame with room for
// its WireSize; a header-only one, the lock traffic, takes the frame on
// top unsized. The frame is a copy of msg's payloads, so a served
// fault-in's snapshot — drawn from this node's pool by serveFault, kept
// by nobody else — goes back to the pool here, and so do the diffs a
// lock release or barrier arrival piggybacks, which nothing acknowledges,
// with their list (proto.Node.ReturnPiggyback); a thread's flushed diff
// does not: it waits in the driver for its ack and may be resent.
// Same-node sends are a protocol bug, as on the simulated interconnect.
// The caller holds the node lock, which guards n.frames too.
func (n *node) Send(msg wire.Msg, cat stats.Category) {
	if msg.From == msg.To {
		panic(fmt.Sprintf("live: same-node send of %v on node %d", msg.Kind, msg.From))
	}
	var frame []byte
	if msg.Data == nil && msg.Diff.Empty() && msg.Diffs == nil && msg.Pairs == nil {
		frame = msg.Encode(n.frames.Get()) // a header fits any frame
	} else {
		frame = msg.Encode(n.frames.GetFor(msg.WireSize()))
	}
	if msg.Kind == wire.ObjReply {
		n.ps.Pool.PutWords(msg.Data)
	}
	if msg.Diffs != nil {
		n.ps.ReturnPiggyback(msg.Diffs)
	}
	n.counters.Record(cat, len(frame))
	if n.ps.On(flight.FrameSend) {
		n.ps.Emit(flight.Event{Kind: flight.FrameSend, Tag: uint8(msg.Kind), Peer: msg.To, Bytes: int32(len(frame))})
	}
	n.c.inflight.Add(1)
	n.c.tr.Send(msg.To, frame)
	if n.c.push != nil && !slices.Contains(n.dests, msg.To) {
		n.dests = append(n.dests, msg.To)
	}
}

// ToThread implements proto.Engine: local handler→thread handoff,
// bypassing the transport (within a node there is no wire). A migrating
// reply's record moves into the thread's own, which nothing else writes
// until the thread has installed the reply: it awaits one fault-in at a
// time. A token put by a batching reader's receive path readies the
// thread for that reader's batch-end hook (Cluster.resumeReadied); any
// other rings the thread's home goroutine.
func (n *node) ToThread(slot int32, msg wire.Msg) {
	t := n.threads[slot]
	if msg.Rec != nil {
		t.rec = *msg.Rec
		msg.Rec = &t.rec
	}
	t.mbox.put(proto.Token{Msg: msg})
	if n.relay {
		t.readied = true
	} else {
		t.wakeHome()
	}
}

// resumeReadied is the batch-end hook of a batching backend
// (transport.BatchEnder): on the calling reader's goroutine, it resumes
// every thread a receive path readied since the last hook and that is
// parked — a thread already running rechecks its mailbox when it parks —
// and each runs until it parks, ends, or hands the goroutine back
// (Thread.run). What they send leaves in the reader's flush.
func (c *Cluster) resumeReadied() {
	for _, n := range c.nodes {
		var buf [8]*Thread
		ready := buf[:0]
		n.mu.Lock()
		for _, t := range n.threads {
			if t.readied {
				t.readied = false
				ready = append(ready, t)
			}
		}
		n.unlock()
		for _, t := range ready {
			if t.state.CompareAndSwap(parked, running) {
				t.run(true)
			}
		}
	}
}

// receive is the node's transport.Pusher sink, its receive path for one
// frame, run by whoever delivers it. Under the node lock it decodes the
// frame in place into the one Msg this call owns, its payloads copied
// into buffers from the node's pool, a migrating reply's record into the
// node's (n.rec) and a piggyback list into the node's array (n.diffs),
// checks that Msg, and handles it by pointer — or
// parks it when CanRoute rejects it: the home transfer that makes it
// routable is still in flight (our thread holds the migrating reply in
// its mailbox, or the barrier-go carrying the reassignment is behind this
// frame). Deliveries
// to one node may run concurrently (one TCP reader per peer), and the
// pool is the node's, so decoding waits for the lock too. A parked
// message stays counted as in flight, so quiescence waits for it, and
// keeps its payloads, and copies of its record and piggyback list, until
// it is handled.
// Either way the frame goes to the node's own free list (n.frames) before
// the lock is released, after the handler's own sends drew theirs, for
// the node's next Send. A frame Decode rejects, or one naming an object,
// lock, barrier, node or thread slot the layout does not have
// (proto.Node.CheckFrame — the handlers subscript with those ids), is a
// peer's doing, not a state a bug alone can produce: it comes back as an
// ErrProtocol error, formatted before the frame it quotes is released,
// which the backend raises through the engine's fatal handler, aborting
// the run.
func (n *node) receive(frame []byte) error {
	var msg wire.Msg
	n.mu.Lock()
	msg.Diffs = n.diffs
	if err := msg.DecodePooled(frame, n.ps.Pool, &n.rec); err != nil {
		err = fmt.Errorf("%w: node %d received a %d-byte frame, kind byte %#x, that does not decode: %v",
			ErrProtocol, n.ps.ID, len(frame), frame[:min(len(frame), 1)], err)
		n.frames.Put(frame)
		n.unlock()
		return err
	}
	if err := n.ps.CheckFrame(&msg, len(n.threads)); err != nil {
		n.frames.Put(frame)
		n.unlock()
		return fmt.Errorf("%w: node %d received %v", ErrProtocol, n.ps.ID, err)
	}
	n.relay = n.c.relay
	if n.ps.CanRoute(&msg) {
		n.handle(&msg)
		if msg.Diffs != nil {
			n.diffs = msg.Diffs[:0]
		}
	} else {
		if msg.Rec != nil {
			rec := *msg.Rec
			msg.Rec = &rec
		}
		msg.Diffs = slices.Clone(msg.Diffs)
		n.parked = append(n.parked, msg)
	}
	n.frames.Put(frame)
	n.unlock()
	return nil
}

// handle runs one routable message's handler, then returns its diffs to
// the node's pool: the handlers apply a diff or forward it through Send,
// which encodes a copy, and keep none. Data is not returned: a fault-in
// reply's payload becomes the thread's cached copy. The caller holds the
// lock.
func (n *node) handle(msg *wire.Msg) {
	if n.ps.On(flight.FrameRecv) {
		n.ps.Emit(flight.Event{Kind: flight.FrameRecv, Tag: uint8(msg.Kind), Peer: msg.From, Bytes: int32(msg.WireSize())})
	}
	n.ps.Dispatch(msg)
	n.ps.Pool.PutDiff(msg.Diff)
	for _, od := range msg.Diffs {
		n.ps.Pool.PutDiff(od.D)
	}
	n.c.inflight.Add(-1)
}
