//dsm:wallclock cluster bootstrap uses wall-clock timeouts and dial-retry backoff

// Package cluster is the bootstrap and control plane for multi-process
// DSM clusters: it turns N independent OS processes (cmd/dsmnode) into
// one live-engine cluster over the TCP transport backend.
//
// Bootstrap opens one connection per node pair (higher id dials lower)
// and exchanges a hello — protocol version, node id, cluster size,
// configuration digest — rejecting mismatches: a member started with
// different flags must not silently join.
//
// Everything after that is one exchange, the round: every member sends
// node 0 a body of one kind; node 0 gathers all n, judges them and
// broadcasts the reply — or a failure naming the member whose body was of
// the wrong kind, came twice or did not decode. A run is five kinds of
// round:
//
//   - start: a barrier, so no engine runs before every member is wired.
//   - poll, repeated: distributed termination detection in the style of
//     Mattern's four-counter method — the cluster is quiescent when the
//     members' in-flight counters sum to zero over two consecutive waves
//     with no frame delivered in between.
//   - report: every member ships its node's proto.Node.Report; node 0
//     runs proto.Assemble over them (the in-process engines' end state
//     and, under the run's check gate, their invariant check), keeps the
//     memory and answers with every object's home and the digest. The
//     applications' validators run on node 0; a member reads the objects
//     it homes.
//   - verdict: oracle logs, stamped with the hybrid logical clock every
//     TCP frame carries (so their merge is causal under any wall-clock
//     skew), flight rings and metrics merge on node 0; the verdict — LRC
//     oracle over the merged log, per-node failures — reaches every
//     member, so all exit with the same status.
//   - bye: a drain barrier, so no process tears its sockets down while a
//     peer still needs them.
//
// Failure domains: dial and handshake carry deadlines with capped
// exponential backoff, heartbeats on the pair connections detect a peer
// silent for five seconds, any connection failure closes both delivery
// planes so no round waits forever, and an aborting member arms a grace
// timer that severs its transport if the verdict round wedges — every
// process of a broken cluster exits nonzero within a bound instead of
// hanging. Failures are classified by sentinel (ErrConfigMismatch,
// ErrBootstrapTimeout, ErrPeerDeath, ErrVerification) so cmd/dsmnode can
// map them to distinct exit codes.
//
// The live engine participates only through transport hooks: the
// transport.Pusher it requires at compile time, passed through to the
// TCP backend, and live.Finisher (the poll and report rounds), found by
// type assertion.
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
	"strings"
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

// Every member sends a keepalive on each pair connection every
// heartbeatInterval and declares a peer dead after heartbeatTimeout of
// silence.
const (
	heartbeatInterval = 500 * time.Millisecond
	heartbeatTimeout  = 5 * time.Second
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
	// (the multi-process analogue of dsmrun -check) in a run finished by
	// FinishApp without Run, as the benchmark harness does: Run takes the
	// gate from its options' Check.
	Check bool
	// DialTimeout bounds the whole bootstrap (members may start in any
	// order): dials, accepts and hello handshakes share one deadline this
	// long after Join starts. Zero means 20s.
	DialTimeout time.Duration
	// AbortGrace bounds the abort's verdict round: a member that calls
	// AbortApp severs its transport after this long if the round has
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
	// clock (the same clock every TCP frame carries), so the verdict
	// round can merge every node's ring into one HLC-ordered cluster
	// timeline on node 0. Pass the recorder (FlightRecorder) to
	// dsm.Config.FlightLocal so the engine shares it.
	FlightCap int
	// Listener optionally supplies a pre-bound listener for Addrs[ID]
	// (tests bind :0 first to learn free ports); it must take a deadline,
	// as every listener of package net does. nil listens.
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
// transport (with the lifecycle hooks), the wiring and the cluster-wide
// finish of its application run, and the member's telemetry. A member's
// life is Join, Run, Leave.
type Member struct {
	cfg   Config
	n     int
	tr    *tcp.Transport
	clock *hlc.Clock // stamped on every frame; drives the oracle log

	check bool        // the end-state gate: Config.Check, then Run's options'
	rec   *flight.Log // HLC-stamped oracle log, when Run's check gate is on

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

	// telView is node 0's cluster view: the latest snapshot each other
	// member shipped over the transport's telemetry channel.
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
// ready, or with an error naming what went wrong. Every dial, accept and
// handshake ends by one deadline, Config.DialTimeout after the call; a
// peer that has not linked by then is ErrBootstrapTimeout, named.
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
	if cfg.AbortGrace == 0 {
		cfg.AbortGrace = 5 * time.Second
	}
	if cfg.TelemetryInterval <= 0 {
		cfg.TelemetryInterval = DefaultTelemetryInterval
	}
	deadline := time.Now().Add(cfg.DialTimeout)
	m := &Member{cfg: cfg, n: n, clock: hlc.New(cfg.WallClock), check: cfg.Check}
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
	if ln != nil {
		if dl, ok := ln.(interface{ SetDeadline(time.Time) error }); !ok || dl.SetDeadline(deadline) != nil {
			ln.Close()
			return nil, fmt.Errorf("cluster: node %d: listener %T takes no deadline", cfg.ID, ln)
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
			linked := make([]bool, n)
			for k := 0; k < accepts; k++ {
				conn, err := ln.Accept()
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					var missing []string
					for j := int(cfg.ID) + 1; j < n; j++ {
						if !linked[j] {
							missing = append(missing, fmt.Sprintf("node %d (%s)", j, cfg.Addrs[j]))
						}
					}
					results <- result{err: fmt.Errorf("accept: %w: %s never connected", ErrBootstrapTimeout, strings.Join(missing, ", "))}
					return
				}
				if err != nil {
					results <- result{err: fmt.Errorf("accept: %w", err)}
					return
				}
				id, err := m.handshake(conn, memory.NoNode, deadline)
				if err != nil {
					conn.Close()
					results <- result{err: err}
					return
				}
				linked[id] = true
				results <- result{id: id, conn: conn}
			}
		}()
	}
	for j := 0; j < int(cfg.ID); j++ {
		go func(j int) {
			conn, err := dialRetry(m.cfg.Addrs[j], deadline)
			if err != nil {
				results <- result{err: fmt.Errorf("dial node %d (%s): %w", j, m.cfg.Addrs[j], err)}
				return
			}
			if _, err := m.handshake(conn, memory.NodeID(j), deadline); err != nil {
				conn.Close()
				results <- result{err: err}
				return
			}
			results <- result{id: memory.NodeID(j), conn: conn}
		}(j)
	}
	// Every dial, accept and handshake ends by the deadline, so every
	// goroutine reports.
	for have := 0; have < n-1; have++ {
		r := <-results
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
	m.tr = tcp.New(cfg.ID, conns, tcp.Options{
		OnFatal: onFatal, Clock: m.clock, Flight: m.flight, OnTelemetry: m.handleTelemetry,
		HeartbeatInterval: heartbeatInterval, HeartbeatTimeout: heartbeatTimeout,
	})
	m.reg = telemetry.NewRegistry(int(cfg.ID), "")
	m.sink = telemetry.NewSink(0)
	m.reg.AttachSink(m.sink)
	m.registerMetrics()

	if _, err := round(m, ctlStart, struct{}{}, barrier); err != nil {
		m.tr.Close()
		return nil, fmt.Errorf("cluster: node %d: start barrier: %w", cfg.ID, err)
	}
	m.logf("node %d: cluster of %d up", cfg.ID, n)
	return m, nil
}

// dialRetry dials addr until it answers or the deadline passes: peers
// start in arbitrary order, so refusals are expected at first. Retries
// back off exponentially from 20ms, capped at one second, and the
// returned error (wrapping ErrBootstrapTimeout) reports how long and how
// often the peer was tried plus the last dial failure.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	start := time.Now()
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
		time.Sleep(min(backoff, time.Until(deadline)))
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// handshake exchanges and validates hellos on a fresh pair connection.
// want names the expected peer (dialed connections), NoNode accepts any
// valid higher id (accepted connections). Each side then confirms with
// a status byte, so a rejected member learns why instead of seeing a
// bare hangup — the config-mismatch rejection path. The exchange ends by
// the bootstrap's deadline.
func (m *Member) handshake(conn net.Conn, want memory.NodeID, deadline time.Time) (memory.NodeID, error) {
	conn.SetDeadline(deadline)
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
			return 0, fmt.Errorf("%w: peer connected but sent no hello within the bootstrap deadline: %v", ErrBootstrapTimeout, err)
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

// --- the control plane: rounds ------------------------------------

// ctlKind tags every control payload. Each kind but ctlFail names a
// round: members send node 0 a body of that kind, node 0 answers with
// the same kind.
type ctlKind byte

const (
	ctlStart   ctlKind = iota + 1 // start barrier
	ctlPoll                       // one quiescence wave: {inflight, frames delivered} → quiescent?
	ctlReport                     // end state: node report → every object's home, the memory digest
	ctlVerdict                    // application result → cluster-wide verdict
	ctlBye                        // drain barrier
	ctlFail                       // 0 → members, instead of a reply: the round failed, reason attached
)

func (k ctlKind) String() string {
	names := [...]string{"?", "start", "poll", "report", "verdict", "bye", "fail"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("ctl(%d)", byte(k))
}

type failBody struct{ Reason string }

// round is the control plane's one exchange. Every member sends body
// under kind to node 0, which gathers all n bodies — its own as passed —
// indexed by node, judges them and broadcasts the reply; every member
// returns it. A body of another kind, a member's second body (which
// would leave another member's slot empty) and a body that does not
// decode fail the round naming the sender and the kind expected, and so
// does judge's error: node 0 then broadcasts ctlFail with the reason and
// returns the error itself, keeping its sentinel, and the others return
// "cluster failed: <reason>". judge runs on node 0 only, so a
// one-member round is its own judge.
func round[T, R any](m *Member, kind ctlKind, body T, judge func(bodies []T) (R, error)) (R, error) {
	if m.cfg.ID != 0 {
		m.tr.SendCtrl(0, encode(kind, body))
		return awaitReply[R](m, kind)
	}
	bodies := make([]T, m.n)
	bodies[0] = body
	seen := make([]bool, m.n)
	var err error
	for have := 1; have < m.n && err == nil; have++ {
		from, got, payload, rerr := m.recv()
		switch {
		case rerr != nil:
			err = rerr
		case got != kind:
			err = fmt.Errorf("unexpected %v from node %d (want %v)", got, from, kind)
		case seen[from]:
			err = fmt.Errorf("node %d sent %v twice", from, kind)
		default:
			seen[from] = true
			if derr := decode(payload, &bodies[from]); derr != nil {
				err = fmt.Errorf("node %d's %v does not decode: %v", from, kind, derr)
			}
		}
	}
	var reply R
	if err == nil {
		reply, err = judge(bodies)
	}
	if err != nil {
		m.broadcast(ctlFail, failBody{Reason: err.Error()})
		return reply, err
	}
	m.broadcast(kind, reply)
	return reply, nil
}

// awaitReply is a member's side of a round once its body is sent: node
// 0's reply, or the failure node 0 broadcast instead.
func awaitReply[R any](m *Member, kind ctlKind) (R, error) {
	var reply R
	from, got, payload, err := m.recv()
	switch {
	case err != nil:
	case got == ctlFail:
		var f failBody
		if err = decode(payload, &f); err != nil {
			err = fmt.Errorf("cluster failed: node %d's reason does not decode: %w", from, err)
		} else {
			err = fmt.Errorf("cluster failed: %s", f.Reason)
		}
	case got != kind:
		err = fmt.Errorf("unexpected %v from node %d (want %v)", got, from, kind)
	default:
		if err = decode(payload, &reply); err != nil {
			err = fmt.Errorf("node %d's %v does not decode: %w", from, kind, err)
		}
	}
	return reply, err
}

// barrier is the judge of a round that carries nothing either way.
func barrier([]struct{}) (struct{}, error) { return struct{}{}, nil }

// encode is a control payload: the kind byte, then body gob-encoded —
// nothing more for a struct{} body.
func encode(kind ctlKind, body any) []byte {
	var buf bytes.Buffer
	buf.WriteByte(byte(kind))
	if _, bare := body.(struct{}); !bare {
		if err := gob.NewEncoder(&buf).Encode(body); err != nil {
			panic(fmt.Sprintf("cluster: encoding %v: %v", kind, err))
		}
	}
	return buf.Bytes()
}

// decode reads a payload encode wrote into v.
func decode(payload []byte, v any) error {
	if _, bare := v.(*struct{}); bare {
		if len(payload) > 0 {
			return fmt.Errorf("%d bytes where none belong", len(payload))
		}
		return nil
	}
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// broadcast sends kind/body from node 0 to every other member.
func (m *Member) broadcast(kind ctlKind, body any) {
	payload := encode(kind, body)
	for id := 1; id < m.n; id++ {
		m.tr.SendCtrl(memory.NodeID(id), payload)
	}
}

// recv blocks for the next control message. A control channel that
// closed because a connection failed surfaces the failure as peer
// death, so every round is bounded by the transport's detection (conn
// reset, or the heartbeat timeout for a silent peer) instead of
// blocking forever.
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

// --- transport.Pusher (engine-facing) -----------------------------

// Send implements transport.Transport by delegation.
func (m *Member) Send(to memory.NodeID, frame []byte) { m.tr.Send(to, frame) }

// Recv implements transport.Transport by delegation.
func (m *Member) Recv(id memory.NodeID) ([]byte, bool) { return m.tr.Recv(id) }

// Close implements transport.Transport for the engine: it closes the
// data plane only — the control plane stays up for the verdict and bye
// rounds, which happen after the engine's Run has returned. Full
// teardown is Leave.
func (m *Member) Close() { m.tr.CloseData() }

// PeakDepth implements transport.Pusher by delegation.
func (m *Member) PeakDepth() int { return m.tr.PeakDepth() }

// SetSink implements transport.Pusher by delegation.
func (m *Member) SetSink(id memory.NodeID, sink func(frame []byte) error) { m.tr.SetSink(id, sink) }

// SetBatchEnd implements transport.BatchEnder by delegation: the engine's
// threads run on the socket readers that wake them.
func (m *Member) SetBatchEnd(fn func()) { m.tr.SetBatchEnd(fn) }

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
// engine records protocol events into the same ring the verdict round
// gathers.
func (m *Member) FlightRecorder() *flight.Recorder { return m.flight }

// FlightTimeline returns the merged cluster-wide flight timeline in
// (Wall, Logical) HLC order. Populated on node 0 only, after the verdict
// round (FinishApp or AbortApp) gathered every member's ring — node 0's
// own when a member died before handing its ring in; empty elsewhere or
// when recording was off.
func (m *Member) FlightTimeline() []flight.Event { return m.timeline }

// DataFrames reports the engine data frames this process has sent plus
// received so far — the activity meter dsmnode's chaos kill counts
// down before dying.
func (m *Member) DataFrames() int64 { return m.tr.DataSent() + m.tr.DataRecv() }

// InboxLen reports the local node's current inbox depth: the frames that
// arrived before the engine installed its sink, so 0 once a run is on
// (every later frame goes to the sink).
func (m *Member) InboxLen() int { return m.tr.InboxLen(m.cfg.ID) }

// PeerStats reports the pair-link traffic counters toward node id (ok
// is false for the local node).
func (m *Member) PeerStats(id memory.NodeID) (tcp.PeerStats, bool) { return m.tr.PeerStats(id) }

// handleTelemetry is the transport's telemetry-channel sink: decode the
// shipped snapshot and fold it into the cluster view under the link it
// arrived on, whatever node id the payload claims. Runs on reader
// goroutines; decode errors drop the frame — telemetry is best-effort
// and must never take a member down.
func (m *Member) handleTelemetry(from memory.NodeID, payload []byte) {
	snap, err := telemetry.DecodeSnapshot(payload)
	if err != nil {
		return
	}
	snap.Node = int(from)
	m.telMu.Lock()
	if m.telView == nil {
		m.telView = make(map[memory.NodeID]telemetry.Snapshot)
	}
	m.telView[from] = snap
	m.telMu.Unlock()
}

// ShipTelemetry sends one metric snapshot to node 0's cluster view; on
// node 0, which reads its own registry, it returns at once. Best-effort:
// frames racing shutdown drop silently.
func (m *Member) ShipTelemetry(snap telemetry.Snapshot) {
	if m.cfg.ID == 0 {
		return
	}
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
	for _, s := range m.telView {
		snaps = append(snaps, s)
	}
	m.telMu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Node < snaps[j].Node })
	return snaps
}

// Completed reports whether the verdict round has run (FinishApp or
// AbortApp): an application error from before the round must be
// reported into it so peers learn of the failure; one *from* the round
// must not run it twice (see Run).
func (m *Member) Completed() bool { return m.hasResult }

// Leave runs the drain barrier and tears the connections down. Call it
// after the application (and its verdict round) is done; it is safe to
// call after a failure, when it makes a best effort and never blocks
// forever.
func (m *Member) Leave() {
	if m.tr == nil {
		return
	}
	// Everything that matters has happened; from here, peer hangups
	// are expected.
	m.tr.MarkShutdown()
	round(m, ctlBye, struct{}{}, barrier) // best effort: a failure just means "go"
	m.tr.Close()
}

// interface conformance: the engine's transport and its end-of-run hook.
var (
	_ transport.BatchEnder = (*Member)(nil)
	_ transport.FatalSink  = (*Member)(nil)
	_ live.Finisher        = (*Member)(nil)
)
