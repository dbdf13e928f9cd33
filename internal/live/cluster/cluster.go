//dsm:wallclock cluster bootstrap uses wall-clock timeouts and dial-retry backoff

// Package cluster is the bootstrap and control plane for multi-process
// DSM clusters: it turns N independent OS processes (cmd/dsmnode) into
// one live-engine cluster over the TCP transport backend.
//
// Responsibilities, in run order:
//
//   - Bootstrap: establish one connection per node pair (higher id
//     dials lower, so there is exactly one link per pair), exchange a
//     hello — protocol version, node id, cluster size, configuration
//     digest — and reject mismatches (a member started with different
//     flags must not silently join), then barrier on start so no
//     engine runs before every member is wired.
//   - Quiescence: the live engine's end-of-run wait becomes a
//     distributed termination detection (the engine's local in-flight
//     counter cannot see other processes). Node 0 coordinates
//     two-wave polls in the style of Mattern's four-counter method:
//     the cluster is quiescent when the per-process in-flight counters
//     sum to zero over two consecutive waves with no frame delivered
//     in between.
//   - End state: each process owns its node's protocol state and
//     nothing else — from Run on the engine holds no other node. Every
//     member ships its node's report (proto.Node.Report: the home copies
//     it owns, its locator tables, the verdict of the node-local
//     invariant clauses) to node 0, which runs proto.Assemble over them
//     — the same definition of the end state, and under Config.Check the
//     same invariant check, the in-process engines use — and keeps the
//     assembled memory. Members get back every object's home and the
//     memory digest, never the memory: the applications' validators run
//     on node 0, and a member can read the objects it homes itself.
//   - Application verdict: oracle event logs (stamped with hybrid
//     logical clocks carried on every TCP frame, so the merged order
//     is causally consistent under arbitrary wall-clock skew) and
//     per-node metrics merge on node 0; the combined verdict — LRC
//     oracle over the merged log, per-node failures — is broadcast, so
//     every member exits with the same status. There is one digest, of
//     the memory node 0 assembled, and nothing to compare it with
//     inside the cluster: what holds it is the single-process run of
//     the same configuration, which must print the same one.
//   - Failure domains: dial and handshake carry deadlines with capped
//     exponential backoff, heartbeats on the pair connections detect a
//     silent peer within HeartbeatTimeout, any connection failure
//     closes both delivery planes so nothing blocks forever, and an
//     aborting member arms a grace timer that severs its transport if
//     the verdict exchange wedges — every process of a broken cluster
//     exits nonzero within a bound instead of hanging. Failures are
//     classified by sentinel (ErrConfigMismatch, ErrBootstrapTimeout,
//     ErrPeerDeath, ErrVerification) so cmd/dsmnode can map them to
//     distinct exit codes.
//   - Shutdown: a drain barrier (bye/shutdown) so no process tears its
//     sockets down while a peer still needs them.
//
// The live engine itself participates only through optional transport
// hooks it finds by type assertion — live.Quiescer and live.Finisher
// here, transport.Pusher passed through to the TCP backend; its protocol
// and message paths are untouched — the property PR 4 designed for.
package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/hlc"
	"repro/internal/live"
	"repro/internal/live/transport"
	"repro/internal/live/transport/tcp"
	"repro/internal/memory"
	"repro/internal/telemetry"
)

// Failure classification sentinels: every error a member surfaces
// wraps the one naming its failure domain, so callers (cmd/dsmnode)
// can map outcomes to distinct exit codes with errors.Is.
var (
	// ErrConfigMismatch: a peer presented a different protocol version,
	// cluster size or configuration digest during the hello handshake.
	ErrConfigMismatch = errors.New("cluster: configuration mismatch")
	// ErrBootstrapTimeout: a peer never became reachable within the
	// bootstrap budget.
	ErrBootstrapTimeout = errors.New("cluster: bootstrap timed out")
	// ErrPeerDeath: a connection failed mid-run — a peer process died,
	// went silent past the heartbeat bound, or severed on abort.
	ErrPeerDeath = errors.New("cluster: peer failure")
	// ErrVerification: the cluster-wide verdict failed — merged-oracle
	// violation, invariant failure, or a member's application error
	// (an application's own result check, a scenario's model check).
	ErrVerification = errors.New("cluster: verification failed")
)

// Wire constants of the bootstrap handshake.
const (
	helloMagic   = 0x474F5344 // "GOSD"
	helloVersion = 1
	helloSize    = 4 + 1 + 2 + 2 + 8 // magic, version, id, nodes, config digest
)

// Config describes this process's membership.
type Config struct {
	// ID is the node this process runs; Addrs[ID] is its listen
	// address and the other entries are its peers', index = node id.
	ID    memory.NodeID
	Addrs []string
	// Digest fingerprints the run configuration (application, problem
	// size, cluster size, policy, locator, seed, check mode...). Every
	// member must present the same digest: each process declares the
	// cluster layout independently, and the layouts must be identical.
	Digest uint64
	// Check holds the assembled end state to the protocol invariants
	// (the multi-process analogue of dsmrun -check).
	Check bool
	// DialTimeout bounds how long Join waits for a peer to come up
	// (members may start in any order). Zero means 20s.
	DialTimeout time.Duration
	// HeartbeatInterval is the period of the keepalive frames each
	// member sends on every pair connection; HeartbeatTimeout is how
	// long a peer may stay silent (no frames of any kind) before it is
	// declared dead. Zero selects the defaults (500ms and 5s); negative
	// disables heartbeats/detection. Timeout should be several
	// intervals, and every member should agree.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// AbortGrace bounds the abort verdict exchange: a member that calls
	// AbortApp severs its transport after this long if the exchange has
	// not completed, converting a wedged cluster into peer-death
	// failures every survivor detects. Zero means 5s.
	AbortGrace time.Duration
	// TelemetryInterval is Run's period of sampling the metric registry
	// and shipping a snapshot to node 0 (DefaultTelemetryInterval if ≤ 0).
	TelemetryInterval time.Duration
	// WallClock overrides the hybrid logical clock's physical source
	// (Unix nanoseconds); nil means the system clock. Tests inject
	// skewed sources to model machines whose clocks disagree.
	WallClock func() int64
	// FlightCap, when positive, attaches a flight recorder of that
	// capacity to this member, stamped from the member's hybrid logical
	// clock (the same clock every TCP frame carries), so the finish
	// exchange can merge every node's ring into one HLC-ordered cluster
	// timeline on node 0. Pass the recorder (FlightRecorder) to
	// dsm.Config.FlightLocal so the engine shares it.
	FlightCap int
	// Listener optionally supplies a pre-bound listener for Addrs[ID]
	// (tests bind :0 first to learn free ports). nil listens.
	Listener net.Listener
	// OnFatal handles a mid-run connection failure (a peer process
	// died), once the engine has been aborted so that Run returns it: a
	// daemon's handler exits, one of members sharing a process returns.
	// nil panics, which is right for a daemon: a broken cluster cannot
	// finish and must not hang.
	OnFatal func(error)
	// Logf, when non-nil, receives bootstrap progress lines.
	Logf func(format string, args ...any)
}

// Member is one process's handle on the cluster: the live engine's
// transport (with the lifecycle hooks), the apps layer's distributed
// finish, and the member's telemetry. A member's life is Join, Run, Leave.
type Member struct {
	cfg   Config
	n     int
	tr    *tcp.Transport
	clock *hlc.Clock // stamped on every frame; drives the oracle log

	rec     *timedRecorder // oracle event log, when Observer was asked
	threads int

	flight   *flight.Recorder // per-node flight ring, when Config.FlightCap > 0
	timeline []flight.Event   // merged cluster timeline (coordinator, after the verdict)

	digest    uint64 // final-memory digest, as node 0 assembled it (set by FinishRun)
	finished  bool   // FinishRun completed cluster-wide
	hasResult bool

	// engineAbort is the engine's abort (SetFatal); a connection failure
	// calls it before Config.OnFatal.
	engineAbort atomic.Pointer[func(error)]

	// Telemetry, always on: the member's own instruments (registerMetrics)
	// and, from Run on, the engine's; the hot-object sketch; Run's sampler.
	reg     *telemetry.Registry
	sink    *telemetry.Sink
	sampler *telemetry.Sampler

	// telView collects the latest telemetry snapshot per node, fed by
	// the transport's telemetry channel (every member ships its own
	// periodically; node 0 accumulates the cluster view its /metrics
	// endpoint serves).
	telMu   sync.Mutex
	telView map[memory.NodeID]telemetry.Snapshot
}

func (m *Member) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Join bootstraps this process into the cluster: listen, dial every
// lower-id peer (with retry — members start in any order), accept every
// higher-id peer, validate hellos both ways, then barrier on start.
// It returns only when every member of the cluster is connected and
// ready, or with an error naming what went wrong.
func Join(cfg Config) (*Member, error) {
	n := len(cfg.Addrs)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no addresses")
	}
	if cfg.ID < 0 || int(cfg.ID) >= n {
		return nil, fmt.Errorf("cluster: node id %d outside cluster of %d", cfg.ID, n)
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 20 * time.Second
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.HeartbeatInterval < 0 {
		cfg.HeartbeatInterval = 0
	}
	if cfg.HeartbeatTimeout < 0 {
		cfg.HeartbeatTimeout = 0
	}
	if cfg.AbortGrace == 0 {
		cfg.AbortGrace = 5 * time.Second
	}
	if cfg.TelemetryInterval <= 0 {
		cfg.TelemetryInterval = DefaultTelemetryInterval
	}
	m := &Member{cfg: cfg, n: n, clock: hlc.New(cfg.WallClock)}
	if cfg.FlightCap > 0 {
		m.flight = flight.NewRecorder(cfg.ID, cfg.FlightCap, m.clock.Tick)
	}

	ln := cfg.Listener
	if ln == nil && n > 1 {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.ID])
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d listen: %w", cfg.ID, err)
		}
	}
	conns := make([]net.Conn, n)
	cleanup := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		if ln != nil {
			ln.Close()
		}
	}

	// Accept from higher ids and dial lower ids concurrently: with
	// members starting in arbitrary order, doing either first could
	// deadlock a chain of processes each waiting on the other side.
	type result struct {
		id   memory.NodeID
		conn net.Conn
		err  error
	}
	results := make(chan result, n)
	accepts := n - 1 - int(cfg.ID)
	if accepts > 0 {
		go func() {
			for k := 0; k < accepts; k++ {
				conn, err := ln.Accept()
				if err != nil {
					results <- result{err: fmt.Errorf("accept: %w", err)}
					return
				}
				id, err := m.handshake(conn, memory.NoNode)
				if err != nil {
					conn.Close()
					results <- result{err: err}
					return
				}
				results <- result{id: id, conn: conn}
			}
		}()
	}
	for j := 0; j < int(cfg.ID); j++ {
		go func(j int) {
			conn, err := dialRetry(m.cfg.Addrs[j], m.cfg.DialTimeout)
			if err != nil {
				results <- result{err: fmt.Errorf("dial node %d (%s): %w", j, m.cfg.Addrs[j], err)}
				return
			}
			if _, err := m.handshake(conn, memory.NodeID(j)); err != nil {
				conn.Close()
				results <- result{err: err}
				return
			}
			results <- result{id: memory.NodeID(j), conn: conn}
		}(j)
	}
	deadline := time.NewTimer(cfg.DialTimeout + 10*time.Second)
	defer deadline.Stop()
	for have := 0; have < n-1; have++ {
		select {
		case r := <-results:
			if r.err != nil {
				cleanup()
				return nil, fmt.Errorf("cluster: node %d bootstrap: %w", cfg.ID, r.err)
			}
			if conns[r.id] != nil {
				r.conn.Close()
				cleanup()
				return nil, fmt.Errorf("cluster: node %d: duplicate connection for node %d", cfg.ID, r.id)
			}
			conns[r.id] = r.conn
			m.logf("node %d: linked with node %d", cfg.ID, r.id)
		case <-deadline.C:
			cleanup()
			return nil, fmt.Errorf("cluster: node %d: %w waiting for peers (budget %v)",
				cfg.ID, ErrBootstrapTimeout, cfg.DialTimeout+10*time.Second)
		}
	}
	if ln != nil {
		ln.Close() // all pairs are up; no further connections expected
	}
	// Every connection failure surfaces through OnFatal wrapped as peer
	// death; a nil handler panics (a daemon must be loud, never hang).
	onFatal := func(err error) {
		err = fmt.Errorf("%w: %v", ErrPeerDeath, err)
		if abort := m.engineAbort.Load(); abort != nil {
			(*abort)(err)
		}
		if cfg.OnFatal != nil {
			cfg.OnFatal(err)
			return
		}
		panic(err)
	}
	opts := tcp.Options{OnFatal: onFatal, Clock: m.clock, Flight: m.flight, OnTelemetry: m.handleTelemetry}
	if n > 1 {
		opts.HeartbeatInterval = cfg.HeartbeatInterval
		opts.HeartbeatTimeout = cfg.HeartbeatTimeout
	}
	m.tr = tcp.New(cfg.ID, conns, opts)
	m.reg = telemetry.NewRegistry(int(cfg.ID), "")
	m.sink = telemetry.NewSink(0)
	m.reg.AttachSink(m.sink)
	m.registerMetrics()

	// Start barrier: every member reports ready to node 0; node 0
	// releases the cluster. After this, engines may run.
	if cfg.ID != 0 {
		m.send(0, ctlReady, nil)
		if _, _, err := m.expect(ctlStart, ctlFail); err != nil {
			m.tr.Close()
			return nil, fmt.Errorf("cluster: node %d: start barrier: %w", cfg.ID, err)
		}
	} else {
		if _, err := m.gather(ctlReady); err != nil {
			m.tr.Close()
			return nil, fmt.Errorf("cluster: start barrier: %w", err)
		}
		m.broadcast(ctlStart, nil)
	}
	m.logf("node %d: cluster of %d up", cfg.ID, n)
	return m, nil
}

// dialRetry dials addr until it answers or the total budget runs out:
// peers start in arbitrary order, so refusals are expected at first.
// Retries back off exponentially from 20ms, capped at one second, and
// the returned error (wrapping ErrBootstrapTimeout) reports how long
// and how often the peer was tried plus the last dial failure.
func dialRetry(addr string, budget time.Duration) (net.Conn, error) {
	start := time.Now()
	deadline := start.Add(budget)
	backoff := 20 * time.Millisecond
	for attempt := 1; ; attempt++ {
		per := time.Second
		if rem := time.Until(deadline); rem < per {
			per = rem
		}
		var err error
		if per > 0 {
			var conn net.Conn
			conn, err = net.DialTimeout("tcp", addr, per)
			if err == nil {
				return conn, nil
			}
		} else {
			err = fmt.Errorf("retry budget exhausted")
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("%w: unreachable after %d attempt(s) over %v (last error: %v)",
				ErrBootstrapTimeout, attempt, time.Since(start).Round(time.Millisecond), err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// handshake exchanges and validates hellos on a fresh pair connection.
// want names the expected peer (dialed connections), NoNode accepts any
// valid higher id (accepted connections). Each side then confirms with
// a status byte, so a rejected member learns why instead of seeing a
// bare hangup — the config-mismatch rejection path.
func (m *Member) handshake(conn net.Conn, want memory.NodeID) (memory.NodeID, error) {
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	defer conn.SetDeadline(time.Time{})

	var hello [helloSize]byte
	le := binary.LittleEndian
	le.PutUint32(hello[0:], helloMagic)
	hello[4] = helloVersion
	le.PutUint16(hello[5:], uint16(m.cfg.ID))
	le.PutUint16(hello[7:], uint16(m.n))
	le.PutUint64(hello[9:], m.cfg.Digest)
	if _, err := conn.Write(hello[:]); err != nil {
		return 0, fmt.Errorf("handshake write: %w", err)
	}
	var peer [helloSize]byte
	if _, err := io.ReadFull(conn, peer[:]); err != nil {
		// A connected peer that never answers the hello is a bootstrap
		// timeout (half-open peer, wedged process), not a mismatch.
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return 0, fmt.Errorf("%w: peer connected but sent no hello within the handshake deadline: %v", ErrBootstrapTimeout, err)
		}
		return 0, fmt.Errorf("handshake read: %w", err)
	}
	verdict := func() string {
		if le.Uint32(peer[0:]) != helloMagic {
			return "not a dsmnode peer (bad magic)"
		}
		if peer[4] != helloVersion {
			return fmt.Sprintf("protocol version %d, want %d", peer[4], helloVersion)
		}
		if got := int(le.Uint16(peer[7:])); got != m.n {
			return fmt.Sprintf("cluster size %d, want %d", got, m.n)
		}
		if got := le.Uint64(peer[9:]); got != m.cfg.Digest {
			return fmt.Sprintf("config digest %#x, want %#x — members must run identical configurations", got, m.cfg.Digest)
		}
		id := memory.NodeID(int16(le.Uint16(peer[5:])))
		if want != memory.NoNode && id != want {
			return fmt.Sprintf("node id %d, want %d", id, want)
		}
		if want == memory.NoNode && (id <= m.cfg.ID || int(id) >= m.n) {
			return fmt.Sprintf("unexpected node id %d", id)
		}
		return ""
	}()
	// Status exchange: 0 accepts; anything else rejects, followed by a
	// length-prefixed reason.
	if verdict != "" {
		msg := []byte(verdict)
		status := append([]byte{1, byte(len(msg)), byte(len(msg) >> 8)}, msg...)
		conn.Write(status)
		return 0, fmt.Errorf("%w: rejecting peer: %s", ErrConfigMismatch, verdict)
	}
	if _, err := conn.Write([]byte{0, 0, 0}); err != nil {
		return 0, fmt.Errorf("handshake status write: %w", err)
	}
	var st [3]byte
	if _, err := io.ReadFull(conn, st[:]); err != nil {
		return 0, fmt.Errorf("handshake status read: %w", err)
	}
	if st[0] != 0 {
		reason := make([]byte, int(st[1])|int(st[2])<<8)
		io.ReadFull(conn, reason)
		return 0, fmt.Errorf("%w: peer rejected us: %s", ErrConfigMismatch, reason)
	}
	return memory.NodeID(int16(le.Uint16(peer[5:]))), nil
}

// --- control-plane message plumbing -------------------------------

// ctlKind tags every control payload.
type ctlKind byte

const (
	ctlReady ctlKind = iota + 1
	ctlStart
	ctlDone      // member → 0: local workers finished
	ctlPoll      // 0 → members: report activity
	ctlPollReply // member → 0: {inflight, frames delivered}
	ctlQuiesced  // 0 → members: cluster-wide quiescence reached
	ctlReport    // member → 0: end-of-run node state
	ctlAssign    // 0 → members: every object's home, the memory digest
	ctlAppReport // member → 0: application result
	ctlVerdict   // 0 → members: cluster-wide verdict
	ctlBye       // member → 0: ready to tear down
	ctlShutdown  // 0 → members: tear down now
	ctlFail      // 0 → members: cluster-wide failure, reason attached
)

func (k ctlKind) String() string {
	names := [...]string{"?", "ready", "start", "done", "poll", "pollreply",
		"quiesced", "report", "assign", "appreport", "verdict", "bye", "shutdown", "fail"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("ctl(%d)", byte(k))
}

// send gob-encodes body under kind and queues it for node to. A nil
// body sends the bare kind.
func (m *Member) send(to memory.NodeID, kind ctlKind, body any) {
	var buf bytes.Buffer
	buf.WriteByte(byte(kind))
	if body != nil {
		if err := gob.NewEncoder(&buf).Encode(body); err != nil {
			panic(fmt.Sprintf("cluster: encoding %v: %v", kind, err))
		}
	}
	m.tr.SendCtrl(to, buf.Bytes())
}

// broadcast sends kind/body to every other member.
func (m *Member) broadcast(kind ctlKind, body any) {
	for id := 0; id < m.n; id++ {
		if memory.NodeID(id) != m.cfg.ID {
			m.send(memory.NodeID(id), kind, body)
		}
	}
}

// recv blocks for the next control message. A control channel that
// closed because a connection failed surfaces the failure as peer
// death, so every wait on the control plane is bounded by the
// transport's detection (conn reset, or HeartbeatTimeout for a silent
// peer) instead of blocking forever.
func (m *Member) recv() (memory.NodeID, ctlKind, []byte, error) {
	c, ok := m.tr.RecvCtrl()
	if !ok {
		if err := m.tr.Err(); err != nil {
			return 0, 0, nil, fmt.Errorf("%w: %v", ErrPeerDeath, err)
		}
		return 0, 0, nil, fmt.Errorf("control channel closed")
	}
	if len(c.Payload) == 0 {
		return 0, 0, nil, fmt.Errorf("empty control frame from node %d", c.From)
	}
	return c.From, ctlKind(c.Payload[0]), c.Payload[1:], nil
}

// expect waits for one of the wanted kinds from node 0, treating
// ctlFail specially: its reason becomes the error. Anything else is a
// protocol violation.
func (m *Member) expect(wanted ...ctlKind) (ctlKind, []byte, error) {
	from, kind, body, err := m.recv()
	if err != nil {
		return 0, nil, err
	}
	if kind == ctlFail {
		var f failBody
		if err := decodeBody(body, &f); err != nil {
			return 0, nil, fmt.Errorf("cluster failed: node %d's reason does not decode: %w", from, err)
		}
		return 0, nil, fmt.Errorf("cluster failed: %s", f.Reason)
	}
	for _, w := range wanted {
		if kind == w {
			return kind, body, nil
		}
	}
	return 0, nil, fmt.Errorf("unexpected %v from node %d (want %v)", kind, from, wanted)
}

// gather waits until every other member has sent one message of the
// wanted kind (coordinator only) and returns the bodies indexed by sender.
// Anything else — a different kind, or a second message from a member
// while another's is outstanding, which would leave that one's slot empty
// — is a protocol violation naming the sender.
func (m *Member) gather(want ctlKind) ([][]byte, error) {
	bodies := make([][]byte, m.n)
	seen := make([]bool, m.n)
	for have := 0; have < m.n-1; have++ {
		from, kind, body, err := m.recv()
		if err != nil {
			return nil, err
		}
		if kind != want {
			return nil, fmt.Errorf("unexpected %v from node %d (want %v)", kind, from, want)
		}
		if seen[from] {
			return nil, fmt.Errorf("node %d reported %v twice", from, want)
		}
		seen[from], bodies[from] = true, body
	}
	return bodies, nil
}

func decodeBody(body []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}

type failBody struct{ Reason string }

// failCluster broadcasts a cluster-wide failure and returns it as an
// error (coordinator only).
func (m *Member) failCluster(reason string) error {
	m.broadcast(ctlFail, failBody{Reason: reason})
	return fmt.Errorf("cluster failed: %s", reason)
}

// failClusterErr broadcasts like failCluster but returns err itself, so
// the coordinator's failure keeps its classification sentinel (peer
// death, verification...) for exit-code mapping instead of flattening
// to a string.
func (m *Member) failClusterErr(err error) error {
	m.broadcast(ctlFail, failBody{Reason: err.Error()})
	return err
}

// --- transport.Transport (engine-facing) --------------------------

// Send implements transport.Transport by delegation.
func (m *Member) Send(to memory.NodeID, frame []byte) { m.tr.Send(to, frame) }

// Recv implements transport.Transport by delegation.
func (m *Member) Recv(id memory.NodeID) ([]byte, bool) { return m.tr.Recv(id) }

// Close implements transport.Transport for the engine: it closes the
// data plane only — the control plane stays up for the post-run
// exchanges (application verdict, shutdown barrier), which happen after
// the engine's Run has returned. Full teardown is Leave.
func (m *Member) Close() { m.tr.CloseData() }

// PeakDepth implements transport.DepthReporter by delegation.
func (m *Member) PeakDepth() int { return m.tr.PeakDepth() }

// SetSink implements transport.Pusher by delegation.
func (m *Member) SetSink(id memory.NodeID, sink func(frame []byte) error) { m.tr.SetSink(id, sink) }

// SetFatal implements transport.FatalSink: a peer's death aborts the
// engine, so threads parked on frames that will never come unwind.
func (m *Member) SetFatal(fn func(error)) { m.engineAbort.Store(&fn) }

// LocalNode reports the node this process executes.
func (m *Member) LocalNode() memory.NodeID { return m.cfg.ID }

// Digest reports the canonical cluster-wide final-memory digest,
// available after the run finished.
func (m *Member) Digest() uint64 { return m.digest }

// FlightRecorder returns this member's flight recorder (nil when
// Config.FlightCap was zero). Pass it to dsm.Config.FlightLocal so the
// engine records protocol events into the same ring the finish
// exchange gathers.
func (m *Member) FlightRecorder() *flight.Recorder { return m.flight }

// FlightTimeline returns the merged cluster-wide flight timeline in
// (Wall, Logical) HLC order. Populated on node 0 only, after the
// application verdict exchange (FinishApp or AbortApp) gathered every
// member's ring — node 0's own when a member died before handing its
// ring in; empty elsewhere or when recording was off.
func (m *Member) FlightTimeline() []flight.Event { return m.timeline }

// DataFrames reports the engine data frames this process has sent plus
// received so far — the activity meter dsmnode's chaos kill counts
// down before dying.
func (m *Member) DataFrames() int64 { return m.tr.DataSent() + m.tr.DataRecv() }

// InboxLen reports the local node's current inbox depth.
func (m *Member) InboxLen() int { return m.tr.InboxLen(m.cfg.ID) }

// PeerStats reports the pair-link traffic counters toward node id (ok
// is false for the local node).
func (m *Member) PeerStats(id memory.NodeID) (tcp.PeerStats, bool) { return m.tr.PeerStats(id) }

// handleTelemetry is the transport's telemetry-channel sink: decode the
// shipped snapshot and fold it into the cluster view. Runs on reader
// goroutines (or the shipper's, for loopback); decode errors drop the
// frame — telemetry is best-effort and must never take a member down.
func (m *Member) handleTelemetry(from memory.NodeID, payload []byte) {
	snap, err := telemetry.DecodeSnapshot(payload)
	if err != nil {
		return
	}
	m.telMu.Lock()
	if m.telView == nil {
		m.telView = make(map[memory.NodeID]telemetry.Snapshot)
	}
	m.telView[from] = snap
	m.telMu.Unlock()
}

// ShipTelemetry sends one metric snapshot to node 0's cluster view
// (loopback when this member is node 0). Best-effort: frames racing
// shutdown drop silently.
func (m *Member) ShipTelemetry(snap telemetry.Snapshot) {
	buf, err := telemetry.EncodeSnapshot(snap)
	if err != nil {
		return
	}
	m.tr.SendTelemetry(0, buf)
}

// TelemetrySnapshots returns the cluster view, sorted by node: this
// member's registry as it reads now and the latest snapshot each other
// member has shipped here (to node 0; elsewhere none).
func (m *Member) TelemetrySnapshots() []telemetry.Snapshot {
	snaps := []telemetry.Snapshot{m.reg.Snapshot()}
	m.telMu.Lock()
	for from, s := range m.telView {
		if from != m.cfg.ID {
			snaps = append(snaps, s)
		}
	}
	m.telMu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Node < snaps[j].Node })
	return snaps
}

// Completed reports whether the application verdict exchange has run
// (FinishApp or AbortApp): an application error from before the exchange
// must be reported into it so peers learn of the failure; one *from* the
// exchange must not run it twice (see Run).
func (m *Member) Completed() bool { return m.hasResult }

// Quiesce implements live.Quiescer: distributed termination detection.
// Called by the engine once this process's workers have finished.
func (m *Member) Quiesce(inflight func() int64) error {
	if m.n == 1 {
		for inflight() != 0 {
			time.Sleep(20 * time.Microsecond)
		}
		return nil
	}
	if m.cfg.ID != 0 {
		m.send(0, ctlDone, nil)
		for {
			kind, _, err := m.expect(ctlPoll, ctlQuiesced)
			if err != nil {
				return err
			}
			if kind == ctlQuiesced {
				return nil
			}
			m.send(0, ctlPollReply, pollBody{Inflight: inflight(), Delivered: m.tr.DataRecv()})
		}
	}
	// Coordinator: wait for every member's workers, then run poll
	// waves until two consecutive waves see a zero in-flight sum with
	// no frame delivered anywhere in between — at that point no
	// protocol frame exists in any queue, socket or handler.
	if _, err := m.gather(ctlDone); err != nil {
		return err
	}
	var prev []int64
	prevZero := false
	for wave := 0; ; wave++ {
		m.broadcast(ctlPoll, nil)
		sum := inflight()
		delivered := make([]int64, m.n)
		delivered[0] = m.tr.DataRecv()
		replies, err := m.gather(ctlPollReply)
		if err != nil {
			return err
		}
		for from := 1; from < m.n; from++ {
			var p pollBody
			if err := decodeBody(replies[from], &p); err != nil {
				return err
			}
			sum += p.Inflight
			delivered[from] = p.Delivered
		}
		stable := prevZero && sum == 0 && prev != nil
		if stable {
			for i := range delivered {
				if delivered[i] != prev[i] {
					stable = false
					break
				}
			}
		}
		if stable {
			m.broadcast(ctlQuiesced, nil)
			m.logf("node 0: cluster quiescent after %d waves", wave+1)
			return nil
		}
		prev, prevZero = delivered, sum == 0
		time.Sleep(200 * time.Microsecond)
	}
}

type pollBody struct {
	Inflight  int64
	Delivered int64
}

// Leave runs the shutdown drain barrier and tears the connections
// down. Call it after the application (and its verdict exchange) is
// done; it is safe to call after a failure, when it makes a best
// effort and never blocks forever.
func (m *Member) Leave() {
	if m.tr == nil {
		return
	}
	// Everything that matters has happened; from here, peer hangups
	// are expected.
	m.tr.MarkShutdown()
	if m.n > 1 {
		if m.cfg.ID != 0 {
			m.send(0, ctlBye, nil)
			m.expect(ctlShutdown) // best effort: errors just mean "go"
		} else {
			m.gather(ctlBye) // best effort, like the members' wait
			m.broadcast(ctlShutdown, nil)
		}
	}
	m.tr.Close()
}

// interface conformance (the apps.Member methods live in finish.go; the
// full apps.Member check is in cmd/dsmnode, avoiding an import here).
var (
	_ transport.Transport     = (*Member)(nil)
	_ transport.DepthReporter = (*Member)(nil)
	_ transport.Pusher        = (*Member)(nil)
	_ transport.FatalSink     = (*Member)(nil)
	_ live.Quiescer           = (*Member)(nil)
	_ live.Finisher           = (*Member)(nil)
)
