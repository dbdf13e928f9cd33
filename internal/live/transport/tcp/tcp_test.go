package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hlc"
	"repro/internal/live/transport"
	"repro/internal/live/transport/transporttest"
	"repro/internal/memory"
)

// dialMesh wires n tcp.Transports over real loopback sockets, one
// connection per node pair, exactly as the cluster bootstrap does
// (higher id dials lower): the in-process stand-in for n daemon
// processes.
func dialMesh(t testing.TB, n int, opt Options) []*Transport {
	trs, _ := dialMeshConns(t, n, func(int) Options { return opt })
	return trs
}

// dialMeshConns additionally returns the raw per-node connections so
// fault tests can sever them underneath the transports, and lets each
// node carry its own Options (per-node fatal handlers).
func dialMeshConns(t testing.TB, n int, optFor func(node int) Options) ([]*Transport, [][]net.Conn) {
	t.Helper()
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
	}
	conns := make([][]net.Conn, n)
	for i := range conns {
		conns[i] = make([]net.Conn, n)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Node i accepts one connection from every higher-id node; the
		// dialer announces itself with a one-byte id preamble.
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := i + 1; k < n; k++ {
				c, err := lns[i].Accept()
				if err != nil {
					t.Error(err)
					return
				}
				var id [1]byte
				if _, err := c.Read(id[:]); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				conns[i][id[0]] = c
				mu.Unlock()
			}
		}(i)
		for j := 0; j < i; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				c, err := net.Dial("tcp", lns[j].Addr().String())
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Write([]byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				conns[i][j] = c
				mu.Unlock()
			}(i, j)
		}
	}
	wg.Wait()
	for _, ln := range lns {
		ln.Close()
	}
	if t.Failed() {
		t.Fatal("mesh wiring failed")
	}
	trs := make([]*Transport, n)
	for i := 0; i < n; i++ {
		trs[i] = New(memory.NodeID(i), conns[i], optFor(i))
	}
	return trs, conns
}

// tcpMesh adapts the dialed transports to the conformance suite.
type tcpMesh struct{ trs []*Transport }

func (m tcpMesh) Node(i int) transport.Pusher { return m.trs[i] }

// Close tears the mesh down in two phases: mark every transport as
// shutting down first, so the EOFs the closes provoke on still-open
// peers read as orderly rather than fatal.
func (m tcpMesh) Close() {
	for _, tr := range m.trs {
		tr.MarkShutdown()
	}
	for _, tr := range m.trs {
		tr.Close()
	}
}

// TestTCPConformance runs the exported transport conformance suite over
// real loopback sockets.
func TestTCPConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T, n int) transporttest.Mesh {
		return tcpMesh{trs: dialMesh(t, n, Options{})}
	})
}

// TestForeignNodeIDs: a transport serves its local node and has nothing
// for any other id — a peer's, or one outside the cluster. Recv reports
// closed at once instead of parking (or indexing past a table), the depth
// is zero, and a sink installed for such an id is never fed.
func TestForeignNodeIDs(t *testing.T) {
	m := tcpMesh{trs: dialMesh(t, 2, Options{})}
	defer m.Close()
	tr := m.trs[0]
	for _, id := range []memory.NodeID{1, 2, -1} {
		done := make(chan bool, 1)
		go func() {
			_, ok := tr.Recv(id)
			done <- ok
		}()
		select {
		case ok := <-done:
			if ok {
				t.Errorf("Recv(%d) on node 0's transport returned a frame", id)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Recv(%d) on node 0's transport parked", id)
		}
		if d := tr.InboxLen(id); d != 0 {
			t.Errorf("node 0's transport reports depth %d for node %d", d, id)
		}
		tr.SetSink(id, func(frame []byte) error {
			t.Errorf("node 0's transport fed node %d's sink", id)
			transport.PutFrame(frame)
			return nil
		})
	}
	m.trs[1].Send(0, append(transport.GetFrame(), 7))
	if frame, ok := tr.Recv(0); !ok || len(frame) != 1 || frame[0] != 7 {
		t.Fatalf("node 0's own frame did not arrive through Recv(0): %v %v", frame, ok)
	}
}

// tcpFaultMesh adds abrupt peer death to the socket mesh: Kill severs
// every connection of one node without the shutdown barrier, exactly
// what the surviving daemons observe when a member's process crashes.
type tcpFaultMesh struct {
	tcpMesh
	conns  [][]net.Conn
	fatals []atomic.Int32
}

func (m *tcpFaultMesh) Kill(node int) {
	for _, c := range m.conns[node] {
		if c != nil {
			c.Close()
		}
	}
}

func (m *tcpFaultMesh) Fatals(node int) int { return int(m.fatals[node].Load()) }

// TestTCPFaults runs the peer-death conformance suite over real
// sockets: survivors must detect the crash (fatal exactly once), their
// delivery planes must close so parked daemons unblock, and teardown
// must complete.
func TestTCPFaults(t *testing.T) {
	transporttest.RunFaults(t, func(t *testing.T, n int) transporttest.FaultMesh {
		m := &tcpFaultMesh{fatals: make([]atomic.Int32, n)}
		m.trs, m.conns = dialMeshConns(t, n, func(node int) Options {
			return Options{OnFatal: func(error) { m.fatals[node].Add(1) }}
		})
		return m
	})
}

// TestHeartbeatDetectsSilentPeer: with heartbeats enabled, a peer that
// stays connected but falls silent (its process wedged, not crashed)
// is detected within the timeout — the read deadline fires and raises
// the fatal handler naming the silence.
func TestHeartbeatDetectsSilentPeer(t *testing.T) {
	fatal := make(chan error, 2)
	// Node 1 heartbeats and enforces the silence bound; node 0 neither
	// sends heartbeats nor frames — a wedged peer.
	trs, _ := dialMeshConns(t, 2, func(node int) Options {
		opt := Options{OnFatal: func(err error) { fatal <- err }}
		if node == 1 {
			opt.HeartbeatInterval = 20 * time.Millisecond
			opt.HeartbeatTimeout = 250 * time.Millisecond
		}
		return opt
	})
	select {
	case err := <-fatal:
		if err == nil {
			t.Fatal("nil fatal error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent peer never detected")
	}
	for _, tr := range trs {
		tr.MarkShutdown()
		tr.Close()
	}
}

// TestHeartbeatKeepsQuietPeerAlive: heartbeats on both sides mean a
// peer with no data traffic is NOT declared dead — the liveness bound
// must measure silence, not idleness.
func TestHeartbeatKeepsQuietPeerAlive(t *testing.T) {
	fatal := make(chan error, 2)
	opt := func(int) Options {
		return Options{
			OnFatal:           func(err error) { fatal <- err },
			HeartbeatInterval: 20 * time.Millisecond,
			HeartbeatTimeout:  200 * time.Millisecond,
		}
	}
	trs, _ := dialMeshConns(t, 2, opt)
	select {
	case err := <-fatal:
		t.Fatalf("idle-but-heartbeating peer declared dead: %v", err)
	case <-time.After(time.Second): // 5x the timeout: silence would have fired
	}
	// Data still flows after sustained idleness.
	trs[0].Send(1, append(transport.GetFrame(), 7))
	if f, ok := trs[1].Recv(1); !ok || f[0] != 7 {
		t.Fatalf("post-idle frame: %v ok=%v", f, ok)
	}
	for _, tr := range trs {
		tr.MarkShutdown()
	}
	for _, tr := range trs {
		tr.Close()
	}
}

// TestControlChannel: control messages multiplex on the pair
// connections without disturbing data frames, in FIFO order per pair.
func TestControlChannel(t *testing.T) {
	trs := dialMesh(t, 2, Options{})
	defer tcpMesh{trs}.Close()
	for i := 0; i < 10; i++ {
		trs[1].SendCtrl(0, []byte(fmt.Sprintf("ctrl-%d", i)))
		trs[1].Send(0, append(transport.GetFrame(), byte(i)))
	}
	for seen := 0; seen < 10; seen++ {
		c, ok := trs[0].RecvCtrl()
		if !ok {
			t.Fatal("control channel closed early")
		}
		if want := fmt.Sprintf("ctrl-%d", seen); c.From != 1 || string(c.Payload) != want {
			t.Fatalf("ctrl out of order: got %q from node %d, want %q from node 1", c.Payload, c.From, want)
		}
	}
	for i := 0; i < 10; i++ {
		f, ok := trs[0].Recv(0)
		if !ok || int(f[0]) != i {
			t.Fatalf("data frame %d: got %v ok=%v", i, f, ok)
		}
	}
}

// TestPeerDeathRaisesFatal: a peer vanishing mid-run (no shutdown
// barrier) must raise OnFatal on the survivor — a silently broken
// cluster would present as a hang.
func TestPeerDeathRaisesFatal(t *testing.T) {
	fatal := make(chan error, 2)
	trs := dialMesh(t, 2, Options{OnFatal: func(err error) { fatal <- err }})
	trs[0].Close() // node 0 dies without MarkShutdown on node 1
	select {
	case err := <-fatal:
		if err == nil {
			t.Fatal("nil fatal error")
		}
		if trs[1].Err() == nil {
			t.Fatal("Err() not recorded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivor never noticed the dead peer")
	}
	trs[1].MarkShutdown()
	trs[1].Close()
}

// TestPeerDeathDuringShutdownUnblocksCtrl: a peer dying after this
// side entered shutdown must still close the control channel, so a
// member blocked in a shutdown-barrier RecvCtrl returns instead of
// hanging forever (the Leave liveness guarantee).
func TestPeerDeathDuringShutdownUnblocksCtrl(t *testing.T) {
	trs := dialMesh(t, 2, Options{OnFatal: func(error) {}})
	trs[1].MarkShutdown()
	done := make(chan bool, 1)
	go func() {
		_, ok := trs[1].RecvCtrl()
		done <- ok
	}()
	trs[0].Close() // peer vanishes without the shutdown barrier
	select {
	case ok := <-done:
		if ok {
			t.Fatal("RecvCtrl returned a message from a dead cluster")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvCtrl still blocked after the peer died")
	}
	trs[1].Close()
}

// TestSameNodeSendPanics: there is no loopback. The engine never sends a
// frame to its own node, so a send to the local node is a bug and panics,
// naming the node, as the engine's own check does.
func TestSameNodeSendPanics(t *testing.T) {
	trs := dialMesh(t, 2, Options{})
	defer tcpMesh{trs}.Close()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "same-node send on node 0") {
			t.Fatalf("send to self: %q, want a same-node panic", msg)
		}
	}()
	trs[0].Send(0, append(transport.GetFrame(), 42))
}

// rawFrame appends one wire frame — header as the writer packs it, then
// the payload — to dst.
func rawFrame(dst []byte, tag byte, stamp hlc.Stamp, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, tag)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(stamp.Wall))
	dst = binary.LittleEndian.AppendUint32(dst, stamp.Logical)
	return append(dst, payload...)
}

// fill returns n bytes that depend on seed, so frames are distinguishable.
func fill(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + seed)
	}
	return b
}

// pipeTransport builds node 0's transport over one end of an in-memory
// pipe and returns the other end raw: the test plays peer 1 byte by
// byte. A pipe write blocks until the reader has taken every byte, so
// what each read of the transport returns is exactly determined.
func pipeTransport(t *testing.T, opt Options) (*Transport, net.Conn) {
	t.Helper()
	local, remote := net.Pipe()
	return New(0, []net.Conn{nil, local}, opt), remote
}

// TestReaderParsesBatchedStream: the reader takes frames as they lie
// in its buffer, not one per read. A frame whose header or whose body
// straddles the end of the read buffer, a frame larger than the buffer,
// and heartbeat, control and telemetry frames in the middle of a data
// batch all parse, in order, byte for byte, and every frame is counted
// with its 17 bytes of header.
func TestReaderParsesBatchedStream(t *testing.T) {
	for _, tc := range []struct {
		name string
		pad  int // first frame's payload: places the second frame's header
	}{
		{"HeaderStraddles", readBufSize - headSize - 8},
		{"BodyStraddles", readBufSize - 2*headSize - 10},
		{"EndsOnBoundary", readBufSize - headSize},
		{"LargerThanBuffer", readBufSize + 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var telem [][]byte
			tr, raw := pipeTransport(t, Options{
				OnFatal:     func(err error) { t.Errorf("fatal: %v", err) },
				OnTelemetry: func(from memory.NodeID, p []byte) { telem = append(telem, append([]byte(nil), p...)) },
			})
			data := [][]byte{fill(tc.pad, 1), fill(36, 2), {}, fill(2048, 3), fill(36, 4)}
			var stream []byte
			stream = rawFrame(stream, chanData, hlc.Stamp{}, data[0])
			stream = rawFrame(stream, chanData, hlc.Stamp{}, data[1])
			stream = rawFrame(stream, chanHeart, hlc.Stamp{}, nil)
			stream = rawFrame(stream, chanData, hlc.Stamp{}, data[2])
			stream = rawFrame(stream, chanCtrl, hlc.Stamp{}, []byte("ctrl"))
			stream = rawFrame(stream, chanData, hlc.Stamp{}, data[3])
			stream = rawFrame(stream, chanTelem, hlc.Stamp{}, []byte("telem"))
			stream = rawFrame(stream, chanData, hlc.Stamp{}, data[4])
			const frames = 8
			go raw.Write(stream)
			for i, want := range data {
				got, ok := tr.Recv(0)
				if !ok || !bytes.Equal(got, want) {
					t.Fatalf("data frame %d: got %d bytes ok=%v, want %d", i, len(got), ok, len(want))
				}
			}
			if c, ok := tr.RecvCtrl(); !ok || c.From != 1 || string(c.Payload) != "ctrl" {
				t.Fatalf("control frame: %+v ok=%v", c, ok)
			}
			// The last data frame came after the telemetry frame on the
			// same reader goroutine, so the handler has run.
			if len(telem) != 1 || string(telem[0]) != "telem" {
				t.Fatalf("telemetry frames: %q", telem)
			}
			ps, _ := tr.PeerStats(1)
			if ps.FramesRecv != frames || ps.BytesRecv != int64(len(stream)) || ps.Heartbeats != 1 {
				t.Fatalf("PeerStats = %+v, want %d frames, %d bytes, 1 heartbeat", ps, frames, len(stream))
			}
			if ps.Reads >= frames {
				t.Fatalf("%d socket reads for %d frames: the reader is not batching", ps.Reads, frames)
			}
			tr.MarkShutdown()
			raw.Close()
			tr.Close()
		})
	}
}

// TestReaderKeepsALargeFrame: a data frame larger than the frame on top
// of the process-wide list is read into a kept frame that has room for
// it, or into a new one that the list then keeps: the second of two
// large frames, read with a small frame back on top, lands in the first
// one's array.
func TestReaderKeepsALargeFrame(t *testing.T) {
	tr, raw := pipeTransport(t, Options{OnFatal: func(err error) { t.Errorf("fatal: %v", err) }})
	defer func() {
		tr.MarkShutdown()
		raw.Close()
		tr.Close()
	}()
	const size = 16 << 10
	for range 64 { // empty the list, whatever ran before: a kept frame needs room
		transport.PutFrame(transport.GetFrame()[:0:0])
	}
	small := func() { transport.PutFrame(make([]byte, 0, 64)) }
	read := func(seed int) []byte {
		want := fill(size, seed)
		go raw.Write(rawFrame(nil, chanData, hlc.Stamp{}, want))
		got, ok := tr.Recv(0)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("large frame %d: got %d bytes ok=%v, want %d", seed, len(got), ok, size)
		}
		return got
	}
	small()
	first := read(1)
	if cap(first) < size {
		t.Fatalf("a %d-byte frame read into a frame of cap %d", size, cap(first))
	}
	at := &first[0]
	transport.PutFrame(first)
	small()
	second := read(2)
	if &second[0] != at {
		t.Fatal("the second large frame was not read into the first one's kept array")
	}
	transport.PutFrame(second)
}

// TestReaderRejectsBadFrames: inside a batch the reader is as strict as
// on a frame of its own — an unknown channel, an oversize length and a
// stream that ends inside a frame each raise the fatal handler.
func TestReaderRejectsBadFrames(t *testing.T) {
	good := rawFrame(nil, chanData, hlc.Stamp{}, fill(36, 1))
	oversize := rawFrame(nil, chanData, hlc.Stamp{}, nil)
	binary.LittleEndian.PutUint32(oversize, maxFrame+1)
	for _, tc := range []struct {
		name string
		bad  []byte
		want error // nil: any failure
	}{
		{"UnknownChannel", rawFrame(nil, 9, hlc.Stamp{}, []byte("x")), nil},
		{"Oversize", oversize, nil},
		{"TruncatedHeader", good[:headSize-3], io.ErrUnexpectedEOF},
		{"TruncatedBody", good[:headSize+5], io.ErrUnexpectedEOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fatal := make(chan error, 1)
			tr, raw := pipeTransport(t, Options{OnFatal: func(err error) { fatal <- err }})
			go func() {
				raw.Write(append(append([]byte(nil), good...), tc.bad...))
				raw.Close()
			}()
			if got, ok := tr.Recv(0); !ok || !bytes.Equal(got, good[headSize:]) {
				t.Fatalf("frame ahead of the bad one: %d bytes ok=%v", len(got), ok)
			}
			select {
			case err := <-fatal:
				if tc.want != nil && !errors.Is(err, tc.want) {
					t.Fatalf("failure reported as %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("bad frame never raised the fatal handler")
			}
			if _, ok := tr.Recv(0); ok {
				t.Fatal("a frame was delivered after the failure")
			}
			tr.Close()
		})
	}
}

// readFrames parses n wire frames from r.
func readFrames(t *testing.T, r io.Reader, n int) (tags []byte, stamps []hlc.Stamp, payloads [][]byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		var head [headSize]byte
		if _, err := io.ReadFull(r, head[:]); err != nil {
			t.Fatalf("frame %d header: %v", i, err)
		}
		payload := make([]byte, binary.LittleEndian.Uint32(head[:4]))
		if _, err := io.ReadFull(r, payload); err != nil {
			t.Fatalf("frame %d payload: %v", i, err)
		}
		tags = append(tags, head[4])
		stamps = append(stamps, hlc.Stamp{
			Wall:    int64(binary.LittleEndian.Uint64(head[5:13])),
			Logical: binary.LittleEndian.Uint32(head[13:17]),
		})
		payloads = append(payloads, payload)
	}
	return
}

// TestWriterCoalescesQueuedFrames: what queues up while the writer is
// busy leaves in one write, yet the wire is what one write per frame
// would have produced — every frame under its own 17-byte header with
// its own, strictly later, clock stamp, in send order — and the link
// counters count frames and wire bytes, not writes.
func TestWriterCoalescesQueuedFrames(t *testing.T) {
	tr, raw := pipeTransport(t, Options{
		OnFatal: func(err error) { t.Errorf("fatal: %v", err) },
		Clock:   hlc.New(nil),
	})
	// Hold the writer in its first write: one byte of the first frame
	// read, the rest pending.
	sent := [][]byte{fill(36, 0)}
	tr.Send(1, append(transport.GetFrame(), sent[0]...))
	var one [1]byte
	if _, err := io.ReadFull(raw, one[:]); err != nil {
		t.Fatal(err)
	}
	// Queue a batch behind it: small frames, an empty one, a control
	// frame, and one frame larger than the slab in the middle.
	wantTags := []byte{chanData}
	for i, size := range []int{36, 0, 2048, 36, writeSlabSize + 1000, 36, 36} {
		sent = append(sent, fill(size, i+1))
		wantTags = append(wantTags, chanData)
		tr.Send(1, append(transport.GetFrame(), sent[len(sent)-1]...))
		if i == 3 {
			sent = append(sent, []byte("ctrl"))
			wantTags = append(wantTags, chanCtrl)
			tr.SendCtrl(1, []byte("ctrl"))
		}
	}
	wire := 0
	for _, p := range sent {
		wire += headSize + len(p)
	}
	tags, stamps, payloads := readFrames(t, io.MultiReader(bytes.NewReader(one[:]), raw), len(sent))
	for i := range sent {
		if tags[i] != wantTags[i] || !bytes.Equal(payloads[i], sent[i]) {
			t.Fatalf("frame %d: tag %d, %d bytes; want tag %d, %d bytes", i, tags[i], len(payloads[i]), wantTags[i], len(sent[i]))
		}
		if i > 0 && !stamps[i-1].Less(stamps[i]) {
			t.Fatalf("frame %d stamp %v not after frame %d stamp %v", i, stamps[i], i-1, stamps[i-1])
		}
	}
	var ps PeerStats
	for deadline := time.Now().Add(5 * time.Second); ; {
		// The writer counts after its write returns, which trails the
		// last byte's arrival here.
		if ps, _ = tr.PeerStats(1); ps.FramesSent == int64(len(sent)) || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if ps.FramesSent != int64(len(sent)) || ps.BytesSent != int64(wire) {
		t.Fatalf("PeerStats = %+v, want %d frames, %d bytes", ps, len(sent), wire)
	}
	// The first frame alone, then the batch: up to the large frame's
	// payload in one write, what follows it in another.
	if ps.Writes != 3 {
		t.Fatalf("%d frames left in %d writes, want 3", len(sent), ps.Writes)
	}
	tr.MarkShutdown()
	raw.Close()
	tr.Close()
}

// failingConn fails every write after the first okWrites.
type failingConn struct {
	net.Conn
	okWrites int32
	writes   atomic.Int32
}

func (c *failingConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) > c.okWrites {
		return 0, errors.New("injected write failure")
	}
	return len(b), nil
}

// TestWriteErrorMidBatch: a write that fails in the middle of a batch
// raises the fatal handler once, nothing more is written on the dead
// link, the rest of the queue still drains (Close returns), only what
// reached the wire is counted, and no payload buffer is returned to the
// frame pool twice.
func TestWriteErrorMidBatch(t *testing.T) {
	local, remote := net.Pipe()
	defer remote.Close()
	conn := &failingConn{Conn: local, okWrites: 1}
	var fatals atomic.Int32
	tr := New(0, []net.Conn{nil, conn}, Options{OnFatal: func(error) { fatals.Add(1) }})
	// Frames of half a slab: each write carries one, so the batch needs
	// many writes and the second one fails.
	const frames = 40
	for i := 0; i < frames; i++ {
		tr.Send(1, append(transport.GetFrame(), fill(writeSlabSize/2, i)...))
	}
	for deadline := time.Now().Add(5 * time.Second); tr.peers[1].out.Len() > 0 || fatals.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("queue not drained after the failure: %d left, %d fatals", tr.peers[1].out.Len(), fatals.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
	tr.Send(1, append(transport.GetFrame(), 1)) // a send on the dead link drops quietly
	tr.Close()
	if got := fatals.Load(); got != 1 {
		t.Fatalf("fatal handler fired %d times, want 1", got)
	}
	if got := conn.writes.Load(); got != 2 {
		t.Fatalf("%d writes attempted, want 2 (one good, the failed one, none after)", got)
	}
	if ps, _ := tr.PeerStats(1); ps.FramesSent != 1 || ps.BytesSent != headSize+writeSlabSize/2 {
		t.Fatalf("PeerStats = %+v, want the one frame that was written", ps)
	}
	// A buffer put twice would come out of the pool twice.
	seen := map[*byte]bool{}
	for i := 0; i < 4*frames; i++ {
		f := transport.GetFrame()
		if cap(f) < writeSlabSize/2 {
			continue
		}
		if p := &f[:1][0]; seen[p] {
			t.Fatal("a payload buffer was returned to the frame pool twice")
		} else {
			seen[p] = true
		}
	}
}

// TestCloseDeliversQueuedBurst: Close is a graceful drain — a burst
// still queued behind the writer when Close is called reaches the peer
// whole and in order.
func TestCloseDeliversQueuedBurst(t *testing.T) {
	trs := dialMesh(t, 2, Options{})
	trs[1].MarkShutdown() // node 0 closing first is orderly
	const frames = 2000
	for i := 0; i < frames; i++ {
		trs[0].Send(1, append(transport.GetFrame(), byte(i), byte(i>>8)))
	}
	trs[0].Close()
	for i := 0; i < frames; i++ {
		f, ok := trs[1].Recv(1)
		if !ok || len(f) != 2 || int(f[0])|int(f[1])<<8 != i {
			t.Fatalf("frame %d: got %v ok=%v", i, f, ok)
		}
	}
	trs[1].Close()
}

// TestCloseBoundedWhenPeerStopsReading: a peer that is alive but not
// reading must not hold Close forever. With a heartbeat timeout set,
// Close gives the drain that long, drops what could not be written and
// returns.
func TestCloseBoundedWhenPeerStopsReading(t *testing.T) {
	const timeout = 200 * time.Millisecond
	tr, raw := pipeTransport(t, Options{OnFatal: func(error) {}, HeartbeatTimeout: timeout})
	defer raw.Close() // never read: the writer blocks in its first write
	for i := 0; i < 100; i++ {
		tr.Send(1, append(transport.GetFrame(), fill(2048, i)...))
	}
	tr.MarkShutdown() // the reader's own silence timeout is not under test
	done := make(chan struct{})
	go func() {
		tr.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * timeout):
		t.Fatal("Close still blocked on a peer that does not read")
	}
	if n := tr.peers[1].out.Len(); n != 0 {
		t.Fatalf("%d frames left queued after Close", n)
	}
}

// socketTransport builds node 0's transport over one end of a real
// loopback TCP connection and returns the other end raw: the test plays
// peer 1. Unlike a pipe the connection has a descriptor, so a reader's
// flush can write to it directly. tune, when non-nil, sees both ends
// before the transport takes its own.
func socketTransport(t testing.TB, opt Options, tune func(local, remote *net.TCPConn)) (*Transport, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	remote, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	local, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if tune != nil {
		tune(local.(*net.TCPConn), remote.(*net.TCPConn))
	}
	return New(0, []net.Conn{nil, local}, opt), remote
}

// seqFrame is fill(n, seq) with seq spelled out in its first three bytes.
func seqFrame(n, seq int) []byte {
	b := fill(n, seq)
	b[0], b[1], b[2] = byte(seq), byte(seq>>8), byte(seq>>16)
	return b
}

func seqOf(b []byte) int { return int(b[0]) | int(b[1])<<8 | int(b[2])<<16 }

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRelayNeverBlocksOnStoppedPeer: Send never blocks, and neither
// does the reader that flushes in Send's place. A peer that sends
// requests but stops reading the answers fills the socket; the reader
// keeps delivering every request all the same — its flush writes what
// the kernel takes and leaves the rest — and once the peer reads again
// every answer arrives, in order and whole, the tail through the writer
// goroutine.
func TestRelayNeverBlocksOnStoppedPeer(t *testing.T) {
	tr, raw := socketTransport(t, Options{OnFatal: func(err error) { t.Errorf("fatal: %v", err) }},
		func(local, remote *net.TCPConn) {
			local.SetWriteBuffer(32 << 10) // a few dozen answers fill the link
			remote.SetReadBuffer(32 << 10)
		})
	const requests, answer = 1000, 2048
	var delivered atomic.Int64
	tr.SetSink(0, func(frame []byte) error {
		seq := seqOf(frame)
		transport.PutFrame(frame)
		tr.Send(1, append(transport.GetFrame(), seqFrame(answer, seq)...))
		delivered.Add(1)
		return nil
	})
	var stream []byte
	for i := 0; i < requests; i++ {
		stream = rawFrame(stream, chanData, hlc.Stamp{}, seqFrame(36, i))
	}
	if _, err := raw.Write(stream); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "every request delivered while the peer reads nothing", func() bool { return delivered.Load() == requests })
	ps, _ := tr.PeerStats(1)
	if ps.Relayed == 0 || ps.FramesSent >= requests {
		t.Fatalf("PeerStats = %+v: want some answers flushed by the reader and most still waiting for the peer", ps)
	}
	_, _, payloads := readFrames(t, raw, requests)
	for i, p := range payloads {
		if !bytes.Equal(p, seqFrame(answer, i)) {
			t.Fatalf("answer %d: %d bytes, seq %d, or contents differ", i, len(p), seqOf(p))
		}
	}
	waitUntil(t, "link counters", func() bool { ps, _ = tr.PeerStats(1); return ps.FramesSent == requests })
	if ps.BytesSent != requests*(headSize+answer) || ps.Relayed >= ps.FramesSent {
		t.Fatalf("PeerStats = %+v, want %d bytes and a tail that left through the writer", ps, requests*(headSize+answer))
	}
	tr.MarkShutdown()
	raw.Close()
	tr.Close()
}

// TestRelayAndWriterShareTheLink: a reader flushing answers and the
// writer goroutine sending a thread's frames write to one socket. Each
// takes the link's write side whole, so no frame's bytes interleave with
// another's: the peer parses every frame, both streams in order and
// byte for byte, clock stamps strictly rising along the link, and the
// counters agree with what it read. Which path carries an answer is the
// scheduler's choice (under -race a round can see no reader flush at
// all), so rounds repeat, every frame of each checked, until one has
// used both paths.
func TestRelayAndWriterShareTheLink(t *testing.T) {
	tr, raw := socketTransport(t, Options{
		OnFatal: func(err error) { t.Errorf("fatal: %v", err) },
		Clock:   hlc.New(nil),
	}, nil)
	var wg sync.WaitGroup
	t.Cleanup(func() {
		tr.MarkShutdown()
		raw.Close()
		wg.Wait()
		tr.Close()
	})
	const echoes, direct, rounds = 4000, 4000, 5
	size := func(i int) int { return []int{36, 3, 2048, 300}[i%4] }
	tr.SetSink(0, func(frame []byte) error {
		tr.Send(1, frame)
		return nil
	})
	var prev hlc.Stamp // the last stamp the peer read
	// round runs one exchange and returns the link counters it moved.
	round := func() PeerStats {
		before, _ := tr.PeerStats(1)
		// The first direct frame goes out before any request arrives: no
		// reader is relaying, so it is the writer goroutine's.
		tr.Send(1, append(transport.GetFrame(), seqFrame(size(0), 0)...))
		waitUntil(t, "first direct frame", func() bool { ps, _ := tr.PeerStats(1); return ps.FramesSent == before.FramesSent+1 })
		wg.Add(2)
		go func() { // the thread: direct frames, first byte's top bit clear
			defer wg.Done()
			for i := 1; i < direct; i++ {
				tr.Send(1, append(transport.GetFrame(), seqFrame(size(i), i)...))
				if i%16 == 0 {
					time.Sleep(20 * time.Microsecond) // a thread, not a flood: the link is idle in between
				}
			}
		}()
		go func() { // the peer's requests, in small writes so batches end and start
			defer wg.Done()
			var chunk []byte
			for i := 0; i < echoes; i++ {
				p := seqFrame(size(i), i)
				p[2] |= 0x80 // marks the echoed stream
				chunk = rawFrame(chunk, chanData, hlc.Stamp{}, p)
				if i%7 == 6 || i == echoes-1 {
					if _, err := raw.Write(chunk); err != nil {
						t.Error(err)
						return
					}
					chunk = chunk[:0]
				}
			}
		}()
		_, stamps, payloads := readFrames(t, raw, echoes+direct)
		wg.Wait()
		var next [2]int
		wire := 0
		for i, p := range payloads {
			wire += headSize + len(p)
			s := int(p[2] >> 7)
			want := seqFrame(size(next[s]), next[s])
			want[2] |= byte(s << 7)
			if !bytes.Equal(p, want) {
				t.Fatalf("frame %d (stream %d, want seq %d): %d bytes, or contents differ", i, s, next[s], len(p))
			}
			next[s]++
			if !prev.Less(stamps[i]) {
				t.Fatalf("frame %d stamp %v not after the previous frame's %v", i, stamps[i], prev)
			}
			prev = stamps[i]
		}
		var ps PeerStats
		waitUntil(t, "link counters", func() bool {
			ps, _ = tr.PeerStats(1)
			return ps.FramesSent == before.FramesSent+echoes+direct
		})
		ps.FramesSent -= before.FramesSent
		ps.BytesSent -= before.BytesSent
		ps.Writes -= before.Writes
		ps.Relayed -= before.Relayed
		if ps.BytesSent != int64(wire) || ps.Writes > ps.FramesSent {
			t.Fatalf("PeerStats moved by %+v, want %d bytes and no more writes than frames", ps, wire)
		}
		return ps
	}
	for r := 1; ; r++ {
		ps := round()
		if ps.Relayed > 0 && ps.Relayed < ps.FramesSent {
			return
		}
		if r == rounds {
			t.Fatalf("%d rounds, none used both writers: the last moved PeerStats by %+v", rounds, ps)
		}
	}
}

// TestPipeFallsBackToWriter: a connection without a descriptor (an
// in-memory pipe) pushes to the sink like any other, and every answer
// leaves through the writer goroutine.
func TestPipeFallsBackToWriter(t *testing.T) {
	tr, raw := pipeTransport(t, Options{OnFatal: func(err error) { t.Errorf("fatal: %v", err) }})
	tr.SetSink(0, func(frame []byte) error {
		tr.Send(1, frame)
		return nil
	})
	const frames = 200
	go func() {
		for i := 0; i < frames; i++ {
			raw.Write(rawFrame(nil, chanData, hlc.Stamp{}, seqFrame(36+i, i)))
		}
	}()
	_, _, payloads := readFrames(t, raw, frames)
	for i, p := range payloads {
		if !bytes.Equal(p, seqFrame(36+i, i)) {
			t.Fatalf("answer %d: %d bytes, or contents differ", i, len(p))
		}
	}
	waitUntil(t, "link counters", func() bool { ps, _ := tr.PeerStats(1); return ps.FramesSent == frames })
	if ps, _ := tr.PeerStats(1); ps.Relayed != 0 {
		t.Fatalf("PeerStats = %+v: a reader wrote to a connection with no descriptor", ps)
	}
	tr.MarkShutdown()
	raw.Close()
	tr.Close()
}

// TestBatchEndHookOrder: the batch-end hook (SetBatchEnd) runs once the
// sink has taken every whole frame the read buffer holds, and never
// inside a sink call; what it sends leaves in one write by the reader
// itself once it returns, with no writer woken (a woken writer would have
// written them while the hook lingers); and once data delivery is closed
// it runs no more — not even for the batch that closed it — while the
// reader goes on reading.
func TestBatchEndHookOrder(t *testing.T) {
	tr, raw := socketTransport(t, Options{OnFatal: func(err error) { t.Errorf("fatal: %v", err) }}, nil)
	defer func() {
		tr.MarkShutdown()
		raw.Close()
		tr.Close()
	}()
	const burst, sends = 50, 2
	var delivered atomic.Int64
	var inSink, closeInSink atomic.Bool
	hooks := make(chan int64, 16)
	tr.SetBatchEnd(func() {
		if inSink.Load() {
			t.Error("the hook ran inside a sink call")
		}
		for i := 0; i < sends; i++ {
			tr.Send(1, append(transport.GetFrame(), seqFrame(36, i)...))
		}
		time.Sleep(5 * time.Millisecond) // a writer the sends woke would write them meanwhile
		hooks <- delivered.Load()
	})
	tr.SetSink(0, func(frame []byte) error {
		inSink.Store(true)
		defer inSink.Store(false)
		transport.PutFrame(frame)
		delivered.Add(1)
		if closeInSink.Load() {
			tr.CloseData()
		}
		return nil
	})
	var stream []byte
	for i := 0; i < burst; i++ {
		stream = rawFrame(stream, chanData, hlc.Stamp{}, seqFrame(36, i))
	}
	if _, err := raw.Write(stream); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-hooks:
		if n != burst {
			t.Fatalf("the hook ran after %d of the %d frames written in one go", n, burst)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no batch-end hook within 5s")
	}
	_, _, payloads := readFrames(t, raw, sends)
	for i, p := range payloads {
		if !bytes.Equal(p, seqFrame(36, i)) {
			t.Fatalf("frame %d sent from the hook: %d bytes, or contents differ", i, len(p))
		}
	}
	var ps PeerStats
	waitUntil(t, "link counters", func() bool { ps, _ = tr.PeerStats(1); return ps.FramesSent == sends })
	if ps.Relayed != sends || ps.Writes != 1 {
		t.Fatalf("PeerStats = %+v: want the hook's %d frames in one write by the reader", ps, sends)
	}

	// The first frame of a second burst closes data delivery from inside
	// its batch: the rest drop, and the batch ends without the hook.
	closeInSink.Store(true)
	if _, err := raw.Write(stream); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the burst read after CloseData", func() bool { ps, _ = tr.PeerStats(1); return ps.FramesRecv == 2*burst })
	// A heartbeat read after it shows the reader past that batch's end.
	if _, err := raw.Write(rawFrame(nil, chanHeart, hlc.Stamp{}, nil)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "a heartbeat after the burst", func() bool { ps, _ = tr.PeerStats(1); return ps.Heartbeats == 1 })
	if n := delivered.Load(); n != burst+1 || len(hooks) != 0 {
		t.Fatalf("after CloseData: %d frames delivered, %d hook runs; want %d and none", n, len(hooks), burst+1)
	}
}

// relayPair is two transports over one loopback socket, both pushing:
// node 1's sink answers every frame, node 0's sink recycles the answer
// and reports it on the returned channel.
func relayPair(t testing.TB) ([]*Transport, chan struct{}) {
	trs := dialMesh(t, 2, Options{})
	answered := make(chan struct{}, 1)
	trs[0].SetSink(0, func(frame []byte) error {
		transport.PutFrame(frame)
		answered <- struct{}{}
		return nil
	})
	trs[1].SetSink(1, func(frame []byte) error {
		trs[1].Send(0, frame)
		return nil
	})
	return trs, answered
}

// TestRelayAllocatesNothing: a round trip through two sinks — queue,
// writer, socket, reader, sink, the reader's own flush, socket, reader,
// sink — allocates nothing once warm.
func TestRelayAllocatesNothing(t *testing.T) {
	trs, answered := relayPair(t)
	defer tcpMesh{trs}.Close()
	payload := fill(36, 1)
	trip := func() {
		trs[0].Send(1, append(transport.GetFrame(), payload...))
		<-answered
	}
	for i := 0; i < 100; i++ {
		trip()
	}
	if n := testing.AllocsPerRun(500, trip); n != 0 {
		t.Fatalf("relayed round trip allocates %v times", n)
	}
	if ps, _ := trs[1].PeerStats(0); ps.Relayed == 0 {
		t.Fatalf("PeerStats = %+v: the answers did not leave in the reader's flush", ps)
	}
}
