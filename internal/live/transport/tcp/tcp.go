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
// cluster layer's control messages (bootstrap barrier, distributed
// quiescence, state gather, shutdown); channel 2 carries heartbeats
// (empty payload); channel 3 carries telemetry snapshots. Multiplexing
// all of them on the pair connection keeps the "one connection per node
// pair" property the ISSUE's design calls for. The hlc fields piggyback the sender's hybrid logical
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
// never block: each peer has an unbounded send queue drained by a
// dedicated writer goroutine (transport.Queue, the same structure that
// backs the in-process backend), so two nodes sending to each other
// cannot deadlock on full socket buffers. Self-sends (the daemon's
// requeue path) loop back to the local inbox without touching a socket.
//
// The link is batched at both ends, because a small frame's cost is
// the socket call and the wake-up it causes, not its bytes. The writer
// takes everything its queue holds per wake-up and packs it — each
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
// Frame buffers follow the transport ownership rule: Send transfers the
// buffer; the writer returns it to the frame pool once its bytes are
// packed for the wire (or dropped, on a dead link) — exactly once
// either way — and the reader copies each payload it delivers out of
// its read buffer into a buffer from the same pool, which the receiving
// daemon returns after decoding.
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
	// goroutine — or the sender's goroutine for loopback — and must not
	// retain payload: the buffer returns to the frame pool when the
	// handler returns. Telemetry frames with no handler are dropped.
	OnTelemetry func(from memory.NodeID, payload []byte)
}

// outFrame is one queued frame with its channel tag.
type outFrame struct {
	tag     byte
	payload []byte
}

// peer is the per-remote-node link state: the pair connection and its
// writer's send queue.
type peer struct {
	id   memory.NodeID
	conn net.Conn
	out  *transport.Queue[outFrame]

	// Link counters for the telemetry surface, updated by the reader
	// and writer goroutines and read by PeerStats mid-run.
	framesSent atomic.Int64
	framesRecv atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	writes     atomic.Int64 // socket writes (one per flushed batch)
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

	// inboxes[local] receives every data frame addressed to this node
	// (network + loopback). The other entries exist only so the live
	// engine's daemons for non-local node replicas can park in Recv
	// until Close — they never carry a frame.
	inboxes []*transport.Queue[[]byte]
	ctrl    *transport.Queue[Ctrl]

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
		inboxes:   make([]*transport.Queue[[]byte], n),
		ctrl:      transport.NewQueue[Ctrl](),
		clock:     opt.Clock,
		fl:        opt.Flight,
		onTelem:   opt.OnTelemetry,
		hbTimeout: opt.HeartbeatTimeout,
		onFatal:   opt.OnFatal,
	}
	for i := range t.inboxes {
		t.inboxes[i] = transport.NewQueue[[]byte]()
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
		p := &peer{id: memory.NodeID(j), conn: conn, out: transport.NewQueue[outFrame]()}
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
					if f := t.fl; f != nil {
						f.Record(flight.Event{Kind: flight.HeartbeatSend, Tag: chanHeart, Peer: p.id})
					}
					p.out.Put(outFrame{tag: chanHeart})
				}
			}
		}
	}
}

// Local reports the node this transport belongs to.
func (t *Transport) Local() memory.NodeID { return t.local }

// Nodes reports the cluster size.
func (t *Transport) Nodes() int { return t.n }

// Send implements transport.Transport: loop self-sends back to the
// local inbox, queue the rest on the destination pair's writer. Sends
// racing Close drop silently (the frame feeds the pool).
func (t *Transport) Send(to memory.NodeID, frame []byte) {
	if to < 0 || int(to) >= t.n {
		panic(fmt.Sprintf("tcp: send to invalid node %d", to))
	}
	if to == t.local {
		if t.inboxes[to].Put(frame) {
			t.dataRecv.Add(1)
		} else {
			transport.PutFrame(frame)
		}
		return
	}
	p := t.peers[to]
	if p == nil || !p.out.Put(outFrame{tag: chanData, payload: frame}) {
		transport.PutFrame(frame)
		return
	}
	t.dataSent.Add(1)
}

// Recv implements transport.Transport. Only the local node's inbox ever
// receives frames; Recv for other ids parks until Close (those ids'
// daemons belong to remote processes — the local replicas idle).
func (t *Transport) Recv(id memory.NodeID) ([]byte, bool) {
	return t.inboxes[id].Get()
}

// SendCtrl queues a control-channel message for node to (loopback for
// the local node, so a coordinator can treat itself uniformly). The
// payload is copied; the caller keeps ownership of buf.
func (t *Transport) SendCtrl(to memory.NodeID, buf []byte) {
	payload := append(transport.GetFrame(), buf...)
	if to == t.local {
		if !t.ctrl.Put(Ctrl{From: t.local, Payload: payload}) {
			transport.PutFrame(payload)
		}
		return
	}
	p := t.peers[to]
	if p == nil || !p.out.Put(outFrame{tag: chanCtrl, payload: payload}) {
		transport.PutFrame(payload)
	}
}

// RecvCtrl blocks for the next control message; ok reports false once
// the transport is fully closed (or has failed).
func (t *Transport) RecvCtrl() (Ctrl, bool) {
	return t.ctrl.Get()
}

// SendTelemetry queues a telemetry-channel frame for node to (loopback
// invokes OnTelemetry synchronously for the local node, so a cluster
// view can treat its own node uniformly). The payload is copied; the
// caller keeps ownership of buf. Telemetry is best-effort: frames
// racing shutdown drop silently.
func (t *Transport) SendTelemetry(to memory.NodeID, buf []byte) {
	if to == t.local {
		if h := t.onTelem; h != nil {
			h(t.local, buf)
		}
		return
	}
	payload := append(transport.GetFrame(), buf...)
	p := t.peers[to]
	if p == nil || !p.out.Put(outFrame{tag: chanTelem, payload: payload}) {
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
	Reads      int64 // socket reads; FramesRecv/Reads is the receive-side ratio
	Heartbeats int64 // heartbeat frames received
	LastRecv   int64 // wall nanos of the last bytes read; 0 when none yet
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
		Reads:      p.reads.Load(),
		Heartbeats: p.heartbeats.Load(),
		LastRecv:   p.lastRecv.Load(),
	}, true
}

// DataSent reports the data frames handed to peer writers so far.
func (t *Transport) DataSent() int64 { return t.dataSent.Load() }

// DataRecv reports the data frames delivered to the local inbox so far
// (network and loopback). Its monotonic growth is the activity signal
// the cluster layer's distributed-quiescence waves watch.
func (t *Transport) DataRecv() int64 { return t.dataRecv.Load() }

// InboxLen reports node id's current inbox depth (tests, observability).
func (t *Transport) InboxLen(id memory.NodeID) int { return t.inboxes[id].Len() }

// PeakDepth implements transport.DepthReporter: the deepest any
// delivery queue got — the local inbox or a peer send queue.
func (t *Transport) PeakDepth() int {
	max := t.inboxes[t.local].Peak()
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

// CloseData closes engine-frame delivery only: daemons blocked in Recv
// drain their inboxes and exit, while the connections, writers and the
// control channel stay up for the cluster layer's post-run exchanges
// (metrics merge, shutdown barrier). The live engine's Close maps here
// when the transport is wrapped by a cluster member; the final teardown
// is Close.
func (t *Transport) CloseData() {
	if t.dataClosed.Swap(true) {
		return
	}
	for _, b := range t.inboxes {
		b.Close()
	}
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
// wedged verdict exchange into peer-death failures everywhere.
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
	if t.shuttingDown.Load() {
		t.ctrl.Close()
		return
	}
	t.errMu.Lock()
	if t.err == nil {
		t.err = fmt.Errorf("tcp: node %d: %s with node %d failed: %w", t.local, op, p.id, err)
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

// writer drains one peer's send queue onto its connection: every
// wake-up takes the whole queue and puts it on the wire in as few
// writes as it fits. Frames are packed, header and payload, into the
// slab, which goes out when the next frame does not fit and at the end
// of the batch; a packed payload returns to the frame pool at once. A
// frame larger than the slab is never copied: its header joins the
// slab and its payload rides alongside in the same writev. Every frame
// — heartbeats included — carries its own header and its own stamp,
// ticked from the transport's clock as the frame is packed, so hybrid
// logical time rides the existing traffic for free. After a write
// error the link is dead: fail is raised once and the writer keeps
// draining, so senders' queues empty and Close can complete; the
// frames go nowhere.
func (t *Transport) writer(p *peer) {
	defer t.writers.Done()
	slab := make([]byte, 0, writeSlabSize)
	var batch []outFrame
	packed, broken := 0, false // frames with a header in slab; link failed
	// flush writes the slab, and tail after it when non-nil.
	flush := func(tail []byte) {
		if packed > 0 && !broken {
			var err error
			if tail == nil {
				_, err = p.conn.Write(slab)
			} else {
				bufs := net.Buffers{slab, tail}
				_, err = bufs.WriteTo(p.conn)
			}
			p.writes.Add(1)
			if err != nil {
				broken = true
				t.fail(p, "write", err)
			} else {
				// Bytes before frames: whoever reads a frame count
				// finds its bytes already counted.
				p.bytesSent.Add(int64(len(slab) + len(tail)))
				p.framesSent.Add(int64(packed))
			}
		}
		slab, packed = slab[:0], 0
	}
	for {
		var ok bool
		if batch, ok = p.out.GetAll(batch[:0]); !ok {
			return
		}
		for _, f := range batch {
			if !broken {
				need := headSize + len(f.payload)
				big := need > cap(slab)
				if big {
					need = headSize // only the header is packed
				}
				if len(slab)+need > cap(slab) {
					flush(nil)
				}
				slab = t.appendHead(slab, f)
				packed++
				if big {
					flush(f.payload)
				} else {
					slab = append(slab, f.payload...)
				}
			}
			if f.payload != nil {
				transport.PutFrame(f.payload)
			}
		}
		flush(nil)
		clear(batch) // reused: must not keep the returned payloads reachable
	}
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

// reader delivers one peer's incoming frames: data to the local inbox,
// control to the control queue, heartbeats to the void (their stamp
// and their deadline-resetting arrival are their whole job). It reads
// the socket through one fixed buffer and parses every complete frame
// the buffer holds before reading again; each delivered payload is
// copied into its own pooled buffer, and a frame that does not fit the
// read buffer has its tail read straight into that buffer. With
// HeartbeatTimeout armed, each socket read carries a deadline: a peer
// silent beyond it is declared dead.
func (t *Transport) reader(p *peer) {
	defer t.readers.Done()
	br := bufio.NewReaderSize(socketReader{p, t.hbTimeout}, readBufSize)
	for {
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
			if t.inboxes[t.local].Put(buf) {
				t.dataRecv.Add(1)
			} else {
				transport.PutFrame(buf) // late frame after CloseData
			}
		case chanCtrl:
			if !t.ctrl.Put(Ctrl{From: p.id, Payload: buf}) {
				transport.PutFrame(buf)
			}
		case chanHeart:
			p.heartbeats.Add(1)
			if f := t.fl; f != nil {
				f.Record(flight.Event{Kind: flight.HeartbeatRecv, Tag: chanHeart, Peer: p.id})
			}
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

// compile-time interface checks.
var (
	_ transport.Transport     = (*Transport)(nil)
	_ transport.DepthReporter = (*Transport)(nil)
)
