// Package flight defines the one protocol event every observer of a run
// reads, the per-node flight recorder that keeps the newest of them, and
// the one unbounded event log.
//
// Event is emitted once per protocol site by proto.Node.Emit (handlers
// and the thread driver in internal/proto, the frame sites of the two
// engines) and fanned out to the node's Subscribers, each of which
// declares the kinds it wants: the Recorder ring here, the hot-object
// sketch (telemetry.Sink), the coherence oracle's checker
// (oracle.Checker, which judges each event as it arrives and keeps none),
// and a Log — a cluster member's HLC-stamped oracle log, which node 0
// merges and checks, or the access-pattern classifier's (dsm.Trace,
// trace.Kinds). The transports, which are not protocol sites, record
// heartbeats, injected faults and aborts straight into a Recorder.
//
// Recorder is a fixed-capacity, allocation-free ring of HLC-stamped
// events — frame traffic, migration decisions with the
// counter/threshold values the heuristic compared, lock grants, barrier
// episodes, heartbeats, injected faults and aborts. Each engine node
// owns one; recording is a stamp plus a ring write under a mutex. After
// a run — or on abort — the per-node rings merge in (Wall, Logical)
// hybrid-logical-clock order into one cluster timeline, exported as
// human-readable text or Chrome trace-event JSON (chrome://tracing,
// Perfetto) and read as is by internal/trace's classifier.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/hlc"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/wire"
)

// Kind classifies a flight-recorder event.
type Kind uint8

// Event kinds. Frame events carry the wire tag, peer and byte count;
// Decision events carry the migration verdict with its reason and the
// counter/threshold pair the heuristic compared; sync events carry the
// lock/barrier id; fault events carry the injected failure's victims.
// The kinds from Read on are the thread side of the protocol — per-word
// data accesses and the thread's own view of its lock and barrier
// operations — which the coherence oracle reads and the ring does not
// keep (see RingKinds).
const (
	FrameSend Kind = iota
	FrameRecv
	HeartbeatSend
	HeartbeatRecv
	Decision
	LockGrant
	BarrierRelease
	HomeRead
	HomeWrite
	RemoteWrite
	Request
	FaultInjected
	Abort
	Read
	Write
	Acquire
	Release
	BarrierArrive
	BarrierDepart
	NumKinds
)

var kindNames = [NumKinds]string{
	"frame-send", "frame-recv", "heartbeat-send", "heartbeat-recv",
	"decision", "lock-grant", "barrier-release", "home-read",
	"home-write", "remote-write", "request", "fault-injected", "abort",
	"read", "write", "acquire", "release", "barrier-arrive", "barrier-depart",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Mask is a set of event kinds.
type Mask uint32

// MaskOf returns the set holding kinds.
func MaskOf(kinds ...Kind) Mask {
	var m Mask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether k is in the set.
func (m Mask) Has(k Kind) bool { return m&(1<<k) != 0 }

// RingKinds is what a Recorder subscribes to: every kind up to Abort.
// The thread-side kinds stay out of the ring — one event per scalar
// access would wash the protocol events out of a fixed capacity.
const RingKinds Mask = 1<<Read - 1

// Subscriber consumes events. Kinds declares, once at subscription, the
// kinds it wants; Record then receives each such event, in emission
// order. A subscriber that keeps a stamp takes it in Record, on the
// events it keeps, so one subscriber's presence never shifts another's
// stamps.
type Subscriber interface {
	Kinds() Mask
	Record(ev Event)
}

// Event is one protocol observation. The struct is fixed-size (no
// pointers, slices or strings) so no subscriber need allocate to keep
// one and the cluster gather can gob it wholesale. Node is set by the
// emitting node, Wall/Logical by a subscriber that stamps (the
// Recorder); the remaining fields are per-kind:
//
//   - FrameSend/FrameRecv: Peer, Tag (wire message kind), Bytes
//   - HeartbeatSend/HeartbeatRecv: Peer
//   - Decision: Obj, Peer (requester or new home), Migrated, Reason,
//     Count and Limit — the values the heuristic compared (C vs the
//     threshold for FT/AT, sharers/epoch vs the cap for Jackal)
//   - LockGrant: Sync (lock id), Peer (grantee)
//   - BarrierRelease: Sync (barrier id)
//   - HomeRead/HomeWrite: Obj
//   - RemoteWrite: Obj, Peer (writer), Bytes (diff wire size)
//   - Request: Obj, Peer (requester), Hops (redirection accumulation)
//   - FaultInjected: Tag (FaultCut for a severed link, zero for a
//     killed node), Peer (the victim, or one end of the link), Sync (the
//     link's other end)
//   - Abort: Bytes is unused; the text rendering names the node
//   - Read/Write: Thread, Obj, Word, Val (the value read or stored)
//   - Acquire/Release: Thread, Sync (lock id)
//   - BarrierArrive/BarrierDepart: Thread, Sync (barrier id)
//
// Thread is meaningful for the thread-side kinds only; events emitted
// by a daemon leave it zero.
type Event struct {
	Wall     int64
	Logical  uint32
	Node     memory.NodeID
	Kind     Kind
	Tag      uint8
	Reason   migration.Reason
	Migrated bool
	Peer     memory.NodeID
	Obj      memory.ObjectID
	Sync     uint32
	Hops     int32
	Bytes    int32
	Thread   int32
	Count    float64
	Limit    float64
	Val      uint64
	Word     int32
}

// Stamp returns the event's HLC reading.
func (e Event) Stamp() hlc.Stamp { return hlc.Stamp{Wall: e.Wall, Logical: e.Logical} }

// FaultCut is the Tag of a FaultInjected event that severed a link; a kill's
// is zero (no node id can tell them apart: node 0 is both victim and end).
const FaultCut uint8 = 1

// Log is the one unbounded event log — a cluster member's HLC-stamped
// oracle log (oracle.Kinds), dsm.Trace (trace.Kinds): a Subscriber
// keeping every event of its kinds in delivery order, stamped as the
// Recorder stamps when it has a stamp source. Safe for concurrent use: it
// stamps and appends under its own mutex, so live nodes delivering at
// once append in one total order, stamps rising with it. Read Events
// after the run.
type Log struct {
	mu     sync.Mutex
	kinds  Mask
	stamp  func() hlc.Stamp
	Events []Event
}

// NewLog returns an empty log of kinds; stamp may be nil.
func NewLog(kinds Mask, stamp func() hlc.Stamp) *Log { return &Log{kinds: kinds, stamp: stamp} }

// Kinds implements Subscriber.
func (l *Log) Kinds() Mask { return l.kinds }

// Record implements Subscriber: stamp ev, when the log stamps, and keep it.
func (l *Log) Record(ev Event) {
	l.mu.Lock()
	if l.stamp != nil {
		s := l.stamp()
		ev.Wall, ev.Logical = s.Wall, s.Logical
	}
	l.Events = append(l.Events, ev)
	l.mu.Unlock()
}

// Recorder is one node's fixed-capacity event ring. Protocol sites
// reach it as one of the node's Subscribers; the transports' cold sites
// hold it directly, where a nil *Recorder means "recording disabled":
// Record on it is a no-op. All methods on a non-nil Recorder are safe
// for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	node  memory.NodeID
	stamp func() hlc.Stamp
	buf   []Event
	next  int
	n     int
	total uint64
}

// NewRecorder builds a recorder of the given capacity for one node.
// stamp supplies the HLC reading for each event: the live engine passes
// its hybrid logical clock's Tick (shared with the TCP transport in
// cluster mode, so cross-node merges respect happens-before); the sim
// engine passes a virtual-time stamp, which makes the merged timeline
// byte-identical across runs of the same seed.
func NewRecorder(node memory.NodeID, capacity int, stamp func() hlc.Stamp) *Recorder {
	if capacity <= 0 {
		panic(fmt.Sprintf("flight: recorder capacity %d must be positive", capacity))
	}
	if stamp == nil {
		panic("flight: recorder needs a stamp source")
	}
	return &Recorder{node: node, stamp: stamp, buf: make([]Event, capacity)}
}

// Kinds implements Subscriber.
func (r *Recorder) Kinds() Mask { return RingKinds }

// Record stamps ev (Wall, Logical, Node) and writes it into the ring,
// overwriting the oldest event once the ring is full. It never
// allocates. A nil recorder records nothing, so a holder of an optional
// recorder — the transports' heartbeat and fault sites, the member's
// abort — calls it without a test of its own.
//
//dsm:hotpath
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	s := r.stamp()
	ev.Wall = s.Wall
	ev.Logical = s.Logical
	ev.Node = r.node
	r.mu.Lock()
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
	r.mu.Unlock()
}

// Node reports the node this recorder stamps.
func (r *Recorder) Node() memory.NodeID { return r.node }

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Total reports how many events were ever recorded (recorded minus
// retained = overwritten).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot copies the retained events out, oldest first.
func (r *Recorder) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// LastN returns the most recent n retained events, oldest first — the
// dump-on-abort view.
func (r *Recorder) LastN(n int) []Event {
	evs := r.Snapshot()
	if n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Merge concatenates per-node event logs and orders them by (Wall,
// Logical) HLC stamp, ties broken by node then input order — the order
// the cluster's merged oracle check replays its members' logs in, by
// calling this. The merged timeline is consistent with happens-before
// whenever the stamps came from clocks that exchanged stamps with the
// traffic (live cluster runs) and deterministic whenever the stamps are
// virtual (sim runs).
func Merge(logs ...[]Event) []Event {
	var all []Event
	for _, l := range logs {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.Wall != b.Wall {
			return a.Wall < b.Wall
		}
		if a.Logical != b.Logical {
			return a.Logical < b.Logical
		}
		return a.Node < b.Node
	})
	return all
}

// describe renders the per-kind payload of one event.
func describe(e Event) string {
	switch e.Kind {
	case FrameSend:
		return fmt.Sprintf("to=%d kind=%v bytes=%d", e.Peer, wire.Kind(e.Tag), e.Bytes)
	case FrameRecv:
		return fmt.Sprintf("from=%d kind=%v bytes=%d", e.Peer, wire.Kind(e.Tag), e.Bytes)
	case HeartbeatSend:
		return fmt.Sprintf("to=%d", e.Peer)
	case HeartbeatRecv:
		return fmt.Sprintf("from=%d", e.Peer)
	case Decision:
		verdict := "stay"
		if e.Migrated {
			verdict = "migrate"
		}
		return fmt.Sprintf("obj=%d requester=%d %s reason=%s count=%g limit=%g",
			e.Obj, e.Peer, verdict, e.Reason, e.Count, e.Limit)
	case LockGrant:
		return fmt.Sprintf("lock=%d grantee=%d", e.Sync, e.Peer)
	case BarrierRelease:
		return fmt.Sprintf("barrier=%d", e.Sync)
	case HomeRead, HomeWrite:
		return fmt.Sprintf("obj=%d", e.Obj)
	case RemoteWrite:
		return fmt.Sprintf("obj=%d writer=%d bytes=%d", e.Obj, e.Peer, e.Bytes)
	case Request:
		return fmt.Sprintf("obj=%d requester=%d hops=%d", e.Obj, e.Peer, e.Hops)
	case FaultInjected:
		if e.Tag == FaultCut {
			return fmt.Sprintf("link=%d<->%d", e.Peer, e.Sync)
		}
		return fmt.Sprintf("victim=%d", e.Peer)
	default: // Abort has no payload; the ring keeps no thread-side kind
		return ""
	}
}

// WriteText renders events as one human-readable line each:
//
//	[wall.logical] node K kind payload...
func WriteText(w io.Writer, evs []Event) error {
	for _, e := range evs {
		if _, err := fmt.Fprintf(w, "[%d.%d] node %d %-15s %s\n",
			e.Wall, e.Logical, e.Node, e.Kind, describe(e)); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event ("i" instant phase). Field
// order is fixed by the struct, and the args map is rendered with
// sorted keys by encoding/json, so the export is byte-deterministic for
// a deterministic event sequence.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Scope string         `json:"s"`
	TS    int64          `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports events as Chrome trace-event JSON — loadable
// in chrome://tracing and Perfetto. Every event becomes a thread-scoped
// instant on pid/tid = node; ts is the HLC wall component in
// microseconds with the logical component as an arg.
func WriteChromeTrace(w io.Writer, evs []Event) error {
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: make([]chromeEvent, 0, len(evs))}
	for _, e := range evs {
		args := map[string]any{"logical": e.Logical}
		switch e.Kind {
		case FrameSend, FrameRecv:
			args["peer"] = int(e.Peer)
			args["kind"] = wire.Kind(e.Tag).String()
			args["bytes"] = int(e.Bytes)
		case HeartbeatSend, HeartbeatRecv:
			args["peer"] = int(e.Peer)
		case Decision:
			args["obj"] = int(e.Obj)
			args["requester"] = int(e.Peer)
			args["migrated"] = e.Migrated
			args["reason"] = e.Reason.String()
			args["count"] = e.Count
			args["limit"] = e.Limit
		case LockGrant:
			args["lock"] = int(e.Sync)
			args["grantee"] = int(e.Peer)
		case BarrierRelease:
			args["barrier"] = int(e.Sync)
		case HomeRead, HomeWrite:
			args["obj"] = int(e.Obj)
		case RemoteWrite:
			args["obj"] = int(e.Obj)
			args["writer"] = int(e.Peer)
			args["bytes"] = int(e.Bytes)
		case Request:
			args["obj"] = int(e.Obj)
			args["requester"] = int(e.Peer)
			args["hops"] = int(e.Hops)
		case FaultInjected:
			args["peer"] = int(e.Peer)
			if e.Tag == FaultCut {
				args["peer2"] = int(e.Sync)
			}
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  e.Kind.String(),
			Phase: "i",
			Scope: "t",
			TS:    e.Wall / 1000,
			PID:   int(e.Node),
			TID:   int(e.Node),
			Args:  args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// DumpLastN writes each node's last n retained events with attribution
// — the chaos-failure post-mortem view. Recorders may be nil (disabled
// nodes are skipped); order follows the slice.
func DumpLastN(w io.Writer, recs []*Recorder, n int) {
	for _, r := range recs {
		if r == nil {
			continue
		}
		evs := r.LastN(n)
		fmt.Fprintf(w, "flight: node %d, last %d of %d event(s):\n", r.Node(), len(evs), r.Total())
		WriteText(w, evs)
	}
}
