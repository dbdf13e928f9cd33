//dsm:wallclock heartbeat tickers and read deadlines run on the wall clock

// Package tcp is the networked transport backend of the live DSM
// engine: encoded protocol frames cross real sockets, one persistent
// connection per node pair, so a cluster can span OS processes (and
// machines). The package is the data plane only — it runs over
// connections that are already established and identified; dialing,
// accepting and the hello handshake that pairs a connection with a node
// ID live in internal/live/cluster.
//
// Wire format: every frame is [uint32 length][byte channel][int64 hlc
// wall][uint32 hlc logical][payload], little-endian, length counting
// the payload bytes only. Channel 0 carries engine frames (the
// internal/wire codec's output, opaque here); channel 1 carries the
// cluster layer's control messages (the bodies and replies of its
// rounds: start, poll, report, verdict, bye); channel 2 carries
// heartbeats (empty payload); channel 3 carries telemetry snapshots.
// Multiplexing all of them keeps one connection per node pair, and with
// it one FIFO order per pair. The hlc fields piggyback the sender's hybrid logical
// clock (internal/hlc) on every frame: the receiver folds them into
// its own clock, which keeps the cluster's oracle event stamps ordered
// consistently with happens-before no matter how the machines' wall
// clocks are skewed. An unclocked transport (Options.Clock nil) sends
// zero stamps, which receivers ignore.
//
// Failure model: outside an orderly shutdown, any connection error —
// including a heartbeat timeout, when enabled — records the failure,
// closes both the data and control planes so every blocked Recv/
// RecvCtrl returns instead of hanging, and raises OnFatal exactly
// once. A silent peer is detected within Options.HeartbeatTimeout.
//
// Delivery contract: a TCP connection is FIFO, and each (sender,
// receiver) pair has exactly one, so frames between a pair arrive in
// send order — the Transport contract's FIFO-per-pair guarantee. Sends
// never block: each peer has an unbounded send queue (transport.Queue,
// the same structure that backs the in-process backend) and a dedicated
// writer goroutine that may block on the socket in the sender's place,
// so two nodes sending to each other cannot deadlock on full socket
// buffers. There is no loopback: a node never sends to itself — the live
// engine parks a frame it cannot route yet at its node — so a send to
// the local node is a bug and panics, as it does in the engine.
//
// Receiving is pull until the engine installs a sink (transport.Pusher),
// push from then on. Pull: the reader queues each data frame on the
// local inbox for Recv. Push: the reader calls the sink — the node's
// whole receive path, decode to handler — on its own goroutine, one
// peer's frames in arrival order, several peers' readers concurrently.
// Frames that reached the inbox before the installation go to the sink
// first, under the lock that a reader still seeing no sink must take,
// so FIFO per pair holds across it. Control, heartbeat and telemetry
// frames are untouched by the sink; after CloseData a late data frame
// feeds the pool instead. The transport serves its local node
// only: Recv, InboxLen and SetSink for any other id find nothing.
//
// The link is batched at both ends, because a small frame's cost is
// the socket call and the wake-up it causes, not its bytes. Whoever
// writes takes everything the peer's queue holds and packs it — each
// frame still under its own header and its own clock stamp — into one
// slab that leaves in one write; frames sent back to back to one peer
// (a lock release and the next request) cost the peer one wake-up and
// one read. The reader reads the socket through one fixed buffer and
// delivers every complete frame it holds before reading again. Neither
// waits for a batch to fill: a lone frame goes out at once. A frame
// larger than the slab or the read buffer is not copied through them:
// it is written from, and its tail read into, its own buffer. The wire
// bytes are those that one write per frame would produce.
//
// Who writes: the peer's writer goroutine, woken by Send — except for
// what is sent while a reader is pushing. A reader that calls a sink is
// running handlers, and a handler's reply is usually the only frame its
// link will carry for a while; waking a parked writer for it costs more
// than the write. So while any reader is inside a delivery batch, Send
// only enqueues, and when the reader holds no further complete frame —
// before it touches the socket again, so a burst of acks is still one
// write — it flushes every non-empty queue itself: try-lock the peer's
// write side, pack, one write that never waits. Whatever that cannot
// finish (the write side is busy, the socket buffer is full, a frame
// larger than the slab, a connection with no descriptor to write to
// directly) stays where it is, bytes already packed ahead of frames
// still queued, and the writer goroutine is woken to send it, blocking
// if it must. The write side's lock covers dequeueing as well as
// packing, so the two writers cannot reorder a pair's frames.
//
// Frame buffers follow the transport ownership rule: Send transfers the
// buffer; whoever packs it returns it to the frame pool once its bytes
// are in the slab (or dropped, on a dead link) — exactly once either
// way — and the reader copies each payload it delivers out of its read
// buffer into a buffer from the same pool, which the receiver — the
// caller of Recv, or the sink — returns or sends on.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/flight"
	"repro/internal/hlc"
	"repro/internal/live/transport"
	"repro/internal/memory"
)

// maxFrame bounds a single frame (64 MiB): a length prefix beyond it is
// treated as stream corruption rather than an allocation request.
const maxFrame = 64 << 20

// headSize is the frame header: [u32 length][u8 channel][i64 hlc
// wall][u32 hlc logical].
const headSize = 4 + 1 + 8 + 4

// writeSlabSize is the writer's batch slab: the frames of one wake-up
// are packed into it and leave in one write. readBufSize is the
// reader's socket buffer: one read takes in up to that many bytes of
// frames. Both are per peer; 32 KB holds a flush burst of a few dozen
// diff frames, and a frame that fits neither is not copied through them.
const (
	writeSlabSize = 32 << 10
	readBufSize   = 32 << 10
)

// Frame channels.
const (
	chanData  byte = 0
	chanCtrl  byte = 1
	chanHeart byte = 2
	chanTelem byte = 3
)

// Ctrl is one control-channel message as received: the peer that sent
// it and its payload (owned by the receiver).
type Ctrl struct {
	From    memory.NodeID
	Payload []byte
}

// Options tunes a Transport.
type Options struct {
	// OnFatal is called (once) when a connection fails outside an
	// orderly shutdown — a peer process died mid-run. nil panics: a
	// broken cluster cannot make progress and silence would present as
	// a hang. The cluster layer installs a handler that reports the
	// peer and exits the daemon.
	OnFatal func(error)

	// Clock, when set, is stamped onto every outgoing frame and fed
	// every received stamp, keeping hybrid logical time flowing with the
	// traffic. nil sends zero stamps and ignores received ones.
	Clock *hlc.Clock

	// HeartbeatInterval > 0 sends an empty heartbeat frame to every peer
	// at that period, so the pair connections carry traffic even when
	// the protocol is quiet (and idle clocks keep exchanging stamps).
	HeartbeatInterval time.Duration

	// HeartbeatTimeout > 0 arms a deadline on every socket read: a peer
	// that stays silent for that long (no data, control or heartbeat
	// frames) is declared dead and OnFatal fires. Pair it with an
	// interval a few times shorter on every member. Close also bounds
	// its final drain by it. Zero disables both.
	HeartbeatTimeout time.Duration

	// Flight, when non-nil, records heartbeat send/receive events into
	// the node's flight recorder (the liveness traffic is otherwise
	// invisible to the protocol layer).
	Flight *flight.Recorder

	// OnTelemetry, when non-nil, receives every telemetry-channel frame
	// (SendTelemetry on the sending side). It runs on the reader
	// goroutine and must not retain payload: the buffer returns to the
	// frame pool when the handler returns. Telemetry frames with no
	// handler are dropped.
	OnTelemetry func(from memory.NodeID, payload []byte)
}

// outFrame is one queued frame with its channel tag.
type outFrame struct {
	tag     byte
	payload []byte
}

// peer is the per-remote-node link state: the pair connection, its send
// queue and its write side.
type peer struct {
	id   memory.NodeID
	conn net.Conn
	out  *transport.Queue[outFrame]
	// wake holds at most one token, "out or the write side has work for
	// the writer goroutine"; a full buffer means it already knows.
	wake chan struct{}

	// The write side, guarded by wmu: the writer goroutine holds it
	// around each drain, a reader's flush only try-locks it. Everything
	// taken from out goes through these fields in order — slab, then big,
	// then batch[next:] — so what one holder leaves unwritten the next
	// one sends first.
	wmu    sync.Mutex
	slab   []byte     // packed frames, not yet written
	packed int        // frames whose header is in slab
	big    []byte     // payload larger than the slab, leaves right after it
	batch  []outFrame // taken from out; batch[next:] is not packed yet
	next   int
	broken bool // a write failed: the link is dead, frames drain to the pool

	// raw is the connection's descriptor for a reader's write that never
	// waits; nil (net.Pipe, a wrapped conn) leaves all writing to the
	// writer goroutine. writeNow is its callback, built once — a closure
	// per flush would allocate — and reports through wrote.
	raw      syscall.RawConn
	writeNow func(fd uintptr) bool
	wrote    int

	// Link counters for the telemetry surface, updated by the reader
	// and writer goroutines and read by PeerStats mid-run.
	framesSent atomic.Int64
	framesRecv atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	writes     atomic.Int64 // socket writes (one per flushed batch)
	relayed    atomic.Int64 // frames that left in a reader's flush
	reads      atomic.Int64 // socket reads
	heartbeats atomic.Int64 // heartbeat frames received
	lastRecv   atomic.Int64 // wall nanos of the last socket read that returned bytes
}

// Transport implements transport.Transport over per-pair TCP
// connections for one node of a multi-process cluster.
type Transport struct {
	local memory.NodeID
	n     int
	peers []*peer // nil at local (and for absent peers in tests)

	// inbox receives every data frame addressed to this node until the
	// sink is installed.
	inbox *transport.Queue[[]byte]
	ctrl  *transport.Queue[Ctrl]

	// sink, once installed, receives the local node's data frames from
	// the readers in place of the inbox. sinkMu orders the
	// installation (which drains the inbox into the sink) against a
	// reader that still saw no sink.
	sink   atomic.Pointer[func(frame []byte) error]
	sinkMu sync.Mutex
	// relaying counts the readers inside a delivery batch. While it is
	// non-zero Send leaves the writers asleep: every such reader flushes
	// the send queues itself when its batch ends.
	relaying atomic.Int32

	dataSent atomic.Int64
	dataRecv atomic.Int64

	shuttingDown atomic.Bool
	dataClosed   atomic.Bool
	closeOnce    sync.Once

	writers sync.WaitGroup
	readers sync.WaitGroup

	clock     *hlc.Clock
	fl        *flight.Recorder
	onTelem   func(from memory.NodeID, payload []byte)
	hbTimeout time.Duration
	hbStop    chan struct{}
	hbWG      sync.WaitGroup

	onFatal   func(error)
	fatalOnce sync.Once
	errMu     sync.Mutex
	err       error
}

// New builds the transport for node local of an n-node cluster over
// established pair connections: conns[j] is the connection to node j
// (nil at local; nil elsewhere is allowed in tests for unreachable
// peers, whose sends then drop). It starts one reader and one writer
// goroutine per connection and takes ownership of the conns.
func New(local memory.NodeID, conns []net.Conn, opt Options) *Transport {
	n := len(conns)
	if local < 0 || int(local) >= n {
		panic(fmt.Sprintf("tcp: local node %d outside cluster of %d", local, n))
	}
	t := &Transport{
		local:     local,
		n:         n,
		peers:     make([]*peer, n),
		inbox:     transport.NewQueue[[]byte](),
		ctrl:      transport.NewQueue[Ctrl](),
		clock:     opt.Clock,
		fl:        opt.Flight,
		onTelem:   opt.OnTelemetry,
		hbTimeout: opt.HeartbeatTimeout,
		onFatal:   opt.OnFatal,
	}
	for j, conn := range conns {
		if conn == nil {
			continue
		}
		if memory.NodeID(j) == local {
			panic(fmt.Sprintf("tcp: connection to self on node %d", local))
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true) // protocol frames are latency-bound
		}
		p := &peer{
			id: memory.NodeID(j), conn: conn, out: transport.NewQueue[outFrame](),
			wake: make(chan struct{}, 1), slab: make([]byte, 0, writeSlabSize),
		}
		if sc, ok := conn.(syscall.Conn); ok && canWriteNow {
			if raw, err := sc.SyscallConn(); err == nil {
				p.raw = raw
				p.writeNow = func(fd uintptr) bool {
					p.wrote = writeNow(fd, p.slab)
					return true // done either way: never wait for the socket
				}
			}
		}
		t.peers[j] = p
		t.writers.Add(1)
		go t.writer(p)
		t.readers.Add(1)
		go t.reader(p)
	}
	if opt.HeartbeatInterval > 0 {
		t.hbStop = make(chan struct{})
		t.hbWG.Add(1)
		go t.heartbeat(opt.HeartbeatInterval)
	}
	return t
}

// heartbeat queues an empty frame to every peer each interval until
// Close, keeping the connections audibly alive for the peers' read
// deadlines (and the clocks exchanging stamps while idle).
func (t *Transport) heartbeat(interval time.Duration) {
	defer t.hbWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-t.hbStop:
			return
		case <-tick.C:
			for _, p := range t.peers {
				if p != nil {
					t.fl.Record(flight.Event{Kind: flight.HeartbeatSend, Tag: chanHeart, Peer: p.id})
					t.enqueue(p, outFrame{tag: chanHeart})
				}
			}
		}
	}
}

// Send implements transport.Transport: queue the frame on the
// destination pair's writer. Sends racing Close drop silently (the frame
// feeds the pool).
func (t *Transport) Send(to memory.NodeID, frame []byte) {
	if to < 0 || int(to) >= t.n {
		panic(fmt.Sprintf("tcp: send to invalid node %d", to))
	}
	if to == t.local {
		panic(fmt.Sprintf("tcp: same-node send on node %d", to))
	}
	p := t.peers[to]
	if p == nil || !t.enqueue(p, outFrame{tag: chanData, payload: frame}) {
		transport.PutFrame(frame)
		return
	}
	t.dataSent.Add(1)
}

// enqueue queues f for p and reports false when the link is closed (f
// stays the caller's). It wakes p's writer unless a reader is inside a
// delivery batch and will flush the queue itself: the sender enqueues,
// then loads relaying; the reader decrements relaying, then scans the
// queues — one of them sees the other, so the frame is never stranded.
func (t *Transport) enqueue(p *peer, f outFrame) bool {
	if !p.out.Put(f) {
		return false
	}
	if t.relaying.Load() == 0 {
		p.kick()
	}
	return true
}

// kick wakes p's writer goroutine, or leaves the token for its next
// look if it is busy.
func (p *peer) kick() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// SetSink implements transport.Pusher for the local node; no frame for
// another node ever arrives here, so a sink for one is ignored.
func (t *Transport) SetSink(id memory.NodeID, sink func(frame []byte) error) {
	if id != t.local {
		return
	}
	t.sinkMu.Lock()
	queued, _ := t.inbox.TryGetAll(nil)
	var err error
	for _, frame := range queued {
		if err != nil {
			transport.PutFrame(frame)
		} else {
			err = sink(frame)
		}
	}
	t.sink.Store(&sink)
	t.sinkMu.Unlock()
	if err != nil {
		t.raise(fmt.Errorf("tcp: node %d: deliver of a frame queued before the sink failed: %w", t.local, err))
	}
}

// deliver hands one data frame read from a peer to the local node: to
// its sink, on the calling reader's goroutine, or while there is none to
// the inbox (to the pool after CloseData). The first sink call opens the
// reader's delivery batch (*batch, closed by endBatch); a non-nil error
// is the sink's.
func (t *Transport) deliver(frame []byte, batch *bool) error {
	sink := t.sink.Load()
	if sink == nil {
		t.sinkMu.Lock()
		if sink = t.sink.Load(); sink == nil {
			if t.inbox.Put(frame) {
				t.dataRecv.Add(1)
			} else {
				transport.PutFrame(frame)
			}
		}
		t.sinkMu.Unlock()
		if sink == nil {
			return nil
		}
	}
	if t.dataClosed.Load() {
		transport.PutFrame(frame) // late frame after CloseData
		return nil
	}
	if !*batch {
		*batch = true
		t.relaying.Add(1)
	}
	t.dataRecv.Add(1)
	return (*sink)(frame)
}

// Recv implements transport.Transport for the local node. Any other id
// — a node that runs in a peer process, or no node at all — has no
// inbox here, and Recv reports closed at once.
func (t *Transport) Recv(id memory.NodeID) ([]byte, bool) {
	if id != t.local {
		return nil, false
	}
	return t.inbox.Get()
}

// SendCtrl queues a control-channel message for peer to. The payload
// is copied; the caller keeps ownership of buf.
func (t *Transport) SendCtrl(to memory.NodeID, buf []byte) {
	payload := append(transport.GetFrame(), buf...)
	p := t.peers[to]
	if p == nil || !t.enqueue(p, outFrame{tag: chanCtrl, payload: payload}) {
		transport.PutFrame(payload)
	}
}

// RecvCtrl blocks for the next control message; ok reports false once
// the transport is fully closed (or has failed).
func (t *Transport) RecvCtrl() (Ctrl, bool) {
	return t.ctrl.Get()
}

// SendTelemetry queues a telemetry-channel frame for peer to. The
// payload is copied; the caller keeps ownership of buf. Telemetry is
// best-effort: frames racing shutdown drop silently.
func (t *Transport) SendTelemetry(to memory.NodeID, buf []byte) {
	payload := append(transport.GetFrame(), buf...)
	p := t.peers[to]
	if p == nil || !t.enqueue(p, outFrame{tag: chanTelem, payload: payload}) {
		transport.PutFrame(payload)
	}
}

// PeerStats is one pair link's traffic state for the telemetry surface.
type PeerStats struct {
	FramesSent int64 // frames written to this peer (all channels)
	FramesRecv int64 // frames read from this peer (all channels)
	BytesSent  int64 // wire bytes written, headers included
	BytesRecv  int64 // wire bytes read, headers included
	Writes     int64 // socket writes; FramesSent/Writes is the coalescing ratio
	Relayed    int64 // frames a reader flushed itself; Relayed/FramesSent cost no writer wake-up
	Reads      int64 // socket reads; FramesRecv/Reads is the receive-side ratio
	Heartbeats int64 // heartbeat frames received
	LastRecv   int64 // wall nanos of the last bytes read; 0 when none yet
}

// PeerMetrics names each PeerStats field as the series a member exports it
// under, once per peer: a field added above gets its row here. Gauge marks
// the one reading that is not a running total.
var PeerMetrics = []struct {
	Name, Help string
	Gauge      bool
	Read       func(PeerStats) int64
}{
	{"dsm_peer_frames_sent_total", "Frames sent to this peer across all channels.", false, func(ps PeerStats) int64 { return ps.FramesSent }},
	{"dsm_peer_frames_recv_total", "Frames received from this peer across all channels.", false, func(ps PeerStats) int64 { return ps.FramesRecv }},
	{"dsm_peer_bytes_sent_total", "Wire bytes (headers included) sent to this peer.", false, func(ps PeerStats) int64 { return ps.BytesSent }},
	{"dsm_peer_bytes_recv_total", "Wire bytes (headers included) received from this peer.", false, func(ps PeerStats) int64 { return ps.BytesRecv }},
	{"dsm_peer_writes_total", "Socket writes to this peer; frames sent over writes is the coalescing ratio.", false, func(ps PeerStats) int64 { return ps.Writes }},
	{"dsm_peer_relayed_frames_total", "Frames to this peer that a reader flushed itself; over frames sent, the share that cost no goroutine hand-off.", false, func(ps PeerStats) int64 { return ps.Relayed }},
	{"dsm_peer_reads_total", "Socket reads from this peer; frames received over reads is the receive-side ratio.", false, func(ps PeerStats) int64 { return ps.Reads }},
	{"dsm_peer_heartbeats_total", "Heartbeat frames received from this peer.", false, func(ps PeerStats) int64 { return ps.Heartbeats }},
	{"dsm_peer_silence_ms", "Milliseconds since anything was last received from this peer (0 until first receipt).", true, func(ps PeerStats) int64 {
		if ps.LastRecv == 0 {
			return 0
		}
		return (time.Now().UnixNano() - ps.LastRecv) / 1e6
	}},
}

// PeerStats reports the link counters toward node id; ok is false for
// the local node and absent peers.
func (t *Transport) PeerStats(id memory.NodeID) (PeerStats, bool) {
	if id < 0 || int(id) >= t.n || t.peers[id] == nil {
		return PeerStats{}, false
	}
	p := t.peers[id]
	return PeerStats{
		FramesSent: p.framesSent.Load(),
		FramesRecv: p.framesRecv.Load(),
		BytesSent:  p.bytesSent.Load(),
		BytesRecv:  p.bytesRecv.Load(),
		Writes:     p.writes.Load(),
		Relayed:    p.relayed.Load(),
		Reads:      p.reads.Load(),
		Heartbeats: p.heartbeats.Load(),
		LastRecv:   p.lastRecv.Load(),
	}, true
}

// DataSent reports the data frames handed to peer writers so far.
func (t *Transport) DataSent() int64 { return t.dataSent.Load() }

// DataRecv reports the data frames delivered to the local node so far —
// queued on its inbox or pushed to its sink. Its monotonic growth is the
// activity signal the cluster layer's quiescence waves watch.
func (t *Transport) DataRecv() int64 { return t.dataRecv.Load() }

// InboxLen reports node id's current inbox depth (tests, observability):
// zero for any node but the local one.
func (t *Transport) InboxLen(id memory.NodeID) int {
	if id != t.local {
		return 0
	}
	return t.inbox.Len()
}

// PeakDepth implements transport.Pusher: the deepest any
// delivery queue got — the local inbox or a peer send queue.
func (t *Transport) PeakDepth() int {
	max := t.inbox.Peak()
	for _, p := range t.peers {
		if p != nil {
			if d := p.out.Peak(); d > max {
				max = d
			}
		}
	}
	return max
}

// MarkShutdown declares that an orderly teardown is under way: from now
// on connection errors (a peer closing first) are expected and silent.
// The cluster layer calls it once the shutdown barrier has passed.
func (t *Transport) MarkShutdown() { t.shuttingDown.Store(true) }

// CloseData closes engine-frame delivery only: a receiver blocked in Recv
// drains the inbox and exits and readers stop pushing (a sink call
// already under way completes), while the connections, writers and the
// control channel stay up for the cluster layer's post-run rounds
// (verdict, drain barrier). The live engine's Close maps here
// when the transport is wrapped by a cluster member; the final teardown
// is Close.
func (t *Transport) CloseData() {
	if t.dataClosed.Swap(true) {
		return
	}
	t.inbox.Close()
}

// Close implements transport.Transport: full teardown. Queued frames
// are still written (graceful drain), then the connections close and
// every blocked Recv/RecvCtrl returns false. With HeartbeatTimeout set
// the drain is bounded by it: a peer that is alive but not reading
// (stopped, its socket buffers full) gets what fits within the timeout
// and the rest is dropped, rather than holding Close forever.
func (t *Transport) Close() {
	t.closeOnce.Do(func() {
		t.MarkShutdown()
		if t.hbStop != nil {
			close(t.hbStop)
			t.hbWG.Wait()
		}
		t.CloseData()
		for _, p := range t.peers {
			if p != nil {
				if t.hbTimeout > 0 {
					p.conn.SetWriteDeadline(time.Now().Add(t.hbTimeout))
				}
				p.out.Close() // writer drains the queue, then exits
				p.kick()
			}
		}
		t.writers.Wait()
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close() // unblocks the reader
			}
		}
		t.readers.Wait()
		t.ctrl.Close()
	})
}

// Sever force-fails the transport: record err as its failure, close
// both delivery planes, and close every connection so peers detect the
// failure promptly (conn reset) instead of waiting out their heartbeat
// timeouts. The cluster layer's abort grace timer uses it to convert a
// wedged verdict round into peer-death failures everywhere.
func (t *Transport) Sever(err error) {
	t.errMu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.errMu.Unlock()
	t.CloseData()
	t.ctrl.Close()
	for _, p := range t.peers {
		if p != nil {
			p.conn.Close()
		}
	}
}

// Err reports the first connection failure, if any.
func (t *Transport) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

// fail records a connection failure and raises it, unless an orderly
// shutdown explains it — in which case the control channel still
// closes (after draining), so a peer that died mid-teardown cannot
// leave the shutdown barrier blocked in RecvCtrl forever. Outside a
// shutdown, both delivery planes close after the error is recorded: a
// broken cluster must surface everywhere within a bound — every
// blocked Recv and RecvCtrl returns and callers find Err set — never
// present as a hang.
func (t *Transport) fail(p *peer, op string, err error) {
	t.raise(fmt.Errorf("tcp: node %d: %s with node %d failed: %w", t.local, op, p.id, err))
}

// raise is fail for an error that already names its link.
func (t *Transport) raise(err error) {
	if t.shuttingDown.Load() {
		t.ctrl.Close()
		return
	}
	t.errMu.Lock()
	if t.err == nil {
		t.err = err
	}
	ferr := t.err
	t.errMu.Unlock()
	t.CloseData()
	t.ctrl.Close()
	t.fatalOnce.Do(func() {
		if t.onFatal != nil {
			t.onFatal(ferr)
			return
		}
		panic(ferr)
	})
}

// writer is p's writer goroutine: the one party that may block on the
// socket. Each token on p.wake is a drain; it exits once the send queue
// is closed and everything taken from it has been written or dropped.
func (t *Transport) writer(p *peer) {
	defer t.writers.Done()
	for range p.wake {
		open, err := t.drain(p)
		if err != nil {
			t.fail(p, "write", err)
		}
		if !open {
			return
		}
	}
}

// drain puts everything p's write side and send queue hold on the wire
// in as few writes as it fits, blocking where the socket makes it wait:
// first what a reader's flush left behind, then the queue, taken whole
// and packed slab by slab, until nothing is queued. open reports false
// once the queue is closed and drained. After a write error the link is
// dead: the error is returned once, for fail, and the queue keeps
// draining — pack drops what it takes — so senders' frames feed the pool
// and Close can complete.
func (t *Transport) drain(p *peer) (open bool, err error) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	for {
		if p.next == len(p.batch) {
			p.next = 0
			p.batch, open = p.out.TryGetAll(p.batch[:0])
			if len(p.batch) == 0 && len(p.slab) == 0 {
				return open, err
			}
		}
		t.pack(p)
		if werr := p.flush(); werr != nil {
			p.broken, err = true, werr
		}
	}
}

// pack moves frames from p.batch[p.next:] into the slab until the batch
// is spent or the next frame does not fit; on a dead link it drops them
// instead. Every frame — heartbeats
// included — carries its own header and its own stamp, ticked from the
// transport's clock as the frame is packed, so hybrid logical time rides
// the existing traffic for free, and stamps rise along the link whoever
// packs. A packed payload returns to the frame pool at once, and its
// batch slot is cleared: the reused batch must not keep it reachable. A
// frame larger than the slab is never copied: its header joins the slab,
// its payload becomes p.big — which ends the packing — and rides
// alongside in the same writev. The caller holds p.wmu.
func (t *Transport) pack(p *peer) {
	for p.next < len(p.batch) && p.big == nil {
		f := p.batch[p.next]
		if !p.broken {
			need := headSize + len(f.payload)
			big := need > cap(p.slab)
			if big {
				need = headSize // only the header is packed
			}
			if len(p.slab)+need > cap(p.slab) {
				return
			}
			p.slab = t.appendHead(p.slab, f)
			p.packed++
			if big {
				p.big, f.payload = f.payload, nil
			} else {
				p.slab = append(p.slab, f.payload...)
			}
		}
		p.batch[p.next] = outFrame{}
		p.next++
		if f.payload != nil {
			transport.PutFrame(f.payload)
		}
	}
}

// flush writes the slab, and the big payload after it, waiting for the
// socket as long as it takes. The caller holds p.wmu.
func (p *peer) flush() error {
	if len(p.slab) == 0 {
		return nil
	}
	var err error
	if p.big == nil {
		_, err = p.conn.Write(p.slab)
	} else {
		bufs := net.Buffers{p.slab, p.big}
		_, err = bufs.WriteTo(p.conn)
	}
	p.writes.Add(1)
	if err == nil {
		// Bytes before frames: whoever reads a frame count finds its
		// bytes already counted.
		p.bytesSent.Add(int64(len(p.slab) + len(p.big)))
		p.framesSent.Add(int64(p.packed))
	}
	if p.big != nil {
		transport.PutFrame(p.big)
		p.big = nil
	}
	p.slab, p.packed = p.slab[:0], 0
	return err
}

// endBatch closes the calling reader's delivery batch: what its handlers
// — and any other sender meanwhile — queued without waking a writer
// leaves now, from this goroutine.
func (t *Transport) endBatch() {
	t.relaying.Add(-1)
	for _, p := range t.peers {
		if p != nil && p.out.Len() > 0 && !t.relay(p) {
			p.kick()
		}
	}
}

// relay is a reader's flush of p's send queue: the queue packed into
// the slab and one write that does not wait. It reports false when the
// writer goroutine has to take over — the write side is busy or holds
// older bytes, the link is dead or has no descriptor, a frame needs the
// writev, the kernel took only part, or more was queued than one slab
// holds. Whatever was taken and not written stays in the write side,
// ahead of the queue.
func (t *Transport) relay(p *peer) bool {
	if p.raw == nil || !p.wmu.TryLock() {
		return false
	}
	defer p.wmu.Unlock()
	if p.broken || len(p.slab) > 0 || p.next < len(p.batch) {
		return false
	}
	p.next = 0
	p.batch, _ = p.out.TryGetAll(p.batch[:0])
	t.pack(p)
	if p.big != nil {
		return false
	}
	if len(p.slab) == 0 {
		return true // the writer got there first
	}
	p.wrote = 0
	if err := p.raw.Write(p.writeNow); err != nil {
		return false // closing, or past Close's write deadline: the writer reports it
	}
	p.writes.Add(1)
	p.bytesSent.Add(int64(p.wrote))
	if p.wrote < len(p.slab) {
		p.slab = p.slab[:copy(p.slab, p.slab[p.wrote:])]
		return false
	}
	p.framesSent.Add(int64(p.packed))
	p.relayed.Add(int64(p.packed))
	p.slab, p.packed = p.slab[:0], 0
	return p.next == len(p.batch)
}

// appendHead appends f's frame header, stamped now, to dst.
func (t *Transport) appendHead(dst []byte, f outFrame) []byte {
	var s hlc.Stamp
	if t.clock != nil {
		s = t.clock.Tick()
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.payload)))
	dst = append(dst, f.tag)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Wall))
	return binary.LittleEndian.AppendUint32(dst, s.Logical)
}

// socketReader is the reader's view of its connection: each Read is one
// read of the socket, counted, under a fresh heartbeat deadline. The
// buffered reader above it comes here only when it holds no complete
// frame, so the deadline is armed when the reader is about to block,
// not once per frame.
type socketReader struct {
	p       *peer
	timeout time.Duration
}

func (r socketReader) Read(b []byte) (int, error) {
	if r.timeout > 0 {
		r.p.conn.SetReadDeadline(time.Now().Add(r.timeout))
	}
	n, err := r.p.conn.Read(b)
	r.p.reads.Add(1)
	if n > 0 {
		r.p.lastRecv.Store(time.Now().UnixNano())
	}
	return n, err
}

// holdsFrame reports whether br has a whole frame buffered: taking it
// will not touch the socket.
func holdsFrame(br *bufio.Reader) bool {
	if br.Buffered() < headSize {
		return false
	}
	head, _ := br.Peek(headSize)
	return uint64(br.Buffered()-headSize) >= uint64(binary.LittleEndian.Uint32(head))
}

// reader delivers one peer's incoming frames: data to the local node
// (deliver: its sink, or the inbox), control to the control queue,
// heartbeats to the void (their stamp and their deadline-resetting
// arrival are their whole job). It reads the socket through one fixed
// buffer and parses every complete frame the buffer holds before
// reading again; each delivered payload is copied into its own pooled
// buffer, and a frame that does not fit the read buffer has its tail
// read straight into that buffer. A delivery batch opened by a sink
// call ends — the send queues are flushed — when the buffer holds no
// further whole frame, and before a sink's error is raised, so that the
// failure handler never runs inside a delivery. With HeartbeatTimeout
// armed, each socket read carries a deadline: a peer silent beyond it
// is declared dead.
func (t *Transport) reader(p *peer) {
	defer t.readers.Done()
	br := bufio.NewReaderSize(socketReader{p, t.hbTimeout}, readBufSize)
	batch := false
	endBatch := func() {
		if batch {
			batch = false
			t.endBatch()
		}
	}
	defer endBatch()
	for {
		if batch && !holdsFrame(br) {
			endBatch()
		}
		head, err := br.Peek(headSize)
		if err != nil {
			switch {
			case isTimeout(err):
				t.fail(p, "read", fmt.Errorf("no frames within %v (silent peer): %w", t.hbTimeout, err))
			case !errors.Is(err, io.EOF):
				t.fail(p, "read", err)
			case len(head) > 0:
				t.fail(p, "read", io.ErrUnexpectedEOF)
			default:
				t.fail(p, "read (peer closed)", err)
			}
			return
		}
		size := int(binary.LittleEndian.Uint32(head[:4]))
		tag := head[4]
		if size > maxFrame {
			t.fail(p, "read", fmt.Errorf("frame of %d bytes exceeds limit", size))
			return
		}
		stamp := hlc.Stamp{
			Wall:    int64(binary.LittleEndian.Uint64(head[5:13])),
			Logical: binary.LittleEndian.Uint32(head[13:17]),
		}
		br.Discard(headSize)
		if t.clock != nil && !stamp.IsZero() {
			t.clock.Observe(stamp)
		}
		buf := transport.GetFrame()
		if cap(buf) < size {
			transport.PutFrame(buf)
			buf = make([]byte, size)
		} else {
			buf = buf[:size]
		}
		if _, err := io.ReadFull(br, buf); err != nil {
			transport.PutFrame(buf) // framelint: the early return leaked the pooled buffer
			t.fail(p, "read", err)
			return
		}
		p.framesRecv.Add(1)
		p.bytesRecv.Add(int64(headSize + size))
		switch tag {
		case chanData:
			if err := t.deliver(buf, &batch); err != nil {
				endBatch()
				t.fail(p, "deliver", err)
				return
			}
		case chanCtrl:
			if !t.ctrl.Put(Ctrl{From: p.id, Payload: buf}) {
				transport.PutFrame(buf)
			}
		case chanHeart:
			p.heartbeats.Add(1)
			t.fl.Record(flight.Event{Kind: flight.HeartbeatRecv, Tag: chanHeart, Peer: p.id})
			transport.PutFrame(buf)
		case chanTelem:
			if h := t.onTelem; h != nil {
				h(p.id, buf)
			}
			transport.PutFrame(buf)
		default:
			transport.PutFrame(buf) // framelint: the early return leaked the pooled buffer
			t.fail(p, "read", fmt.Errorf("unknown frame channel %d", tag))
			return
		}
	}
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// compile-time interface check.
var _ transport.Pusher = (*Transport)(nil)
