package main

import (
	"encoding/json"
	"io"
	"sync"

	dsm "repro"

	"repro/internal/flight"
	"repro/internal/live/cluster"
	"repro/internal/live/transport"
	"repro/internal/memory"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Tracing lives in the benchmark's own files: a decorator over the
// application thread spans every DSM call, a decorator over the
// transport spans Send and the Recv wait. Sums and counts cover the whole
// traced run; the spans themselves go to a fixed ring (the last
// spanRingCap of the process), which with the flight recorder's ring
// makes the Chrome-trace file.

type spanKind uint8

const (
	spAcquire spanKind = iota
	spRelease
	spBarrier
	spAccess // Read, Write, ReadView, WriteView: fault-in time
	spSend
	spRecvWait
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"Acquire", "Release", "Barrier", "Access", "Send", "RecvWait"}

const spanRingCap = 1 << 14

// span is one traced call. Wall is Unix nanoseconds so spans of
// different member processes share an axis.
type span struct {
	Kind spanKind
	Node int32
	Lane int32 // thread id, or transportLane
	Wall int64
	Dur  int64
}

const transportLane = 1000

// tracer collects one process's spans. Thread decorators and transport
// decorators of several goroutines share it, hence the mutex; that cost
// is the tracing overhead the benchmark reports.
type tracer struct {
	mu    sync.Mutex
	on    bool
	sum   [numSpanKinds]int64
	count [numSpanKinds]int64
	ring  []span
	next  int
	full  bool
	base  int64 // Unix nanoseconds at clockBase
}

func newTracer() *tracer {
	return &tracer{ring: make([]span, spanRingCap), base: clockBase.UnixNano()}
}

func (tr *tracer) enable(on bool) {
	tr.mu.Lock()
	tr.on = on
	tr.mu.Unlock()
}

func (tr *tracer) add(kind spanKind, node memory.NodeID, lane int32, start, end int64) {
	tr.mu.Lock()
	if tr.on {
		tr.sum[kind] += end - start
		tr.count[kind]++
		tr.ring[tr.next] = span{Kind: kind, Node: int32(node), Lane: lane, Wall: tr.base + start, Dur: end - start}
		if tr.next++; tr.next == len(tr.ring) {
			tr.next, tr.full = 0, true
		}
	}
	tr.mu.Unlock()
}

// spans returns the ring's contents, oldest first.
func (tr *tracer) spans() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.full {
		return append([]span(nil), tr.ring[:tr.next]...)
	}
	return append(append([]span(nil), tr.ring[tr.next:]...), tr.ring[:tr.next]...)
}

// tracedThread spans every DSM call of one application thread.
type tracedThread struct {
	dsm.Thread
	tr *tracer
}

func (tr *tracer) wrapThread(t dsm.Thread) dsm.Thread {
	return &tracedThread{Thread: t, tr: tr}
}

func (t *tracedThread) span(kind spanKind, start int64) {
	t.tr.add(kind, t.Node(), int32(t.ID()), start, now())
}

func (t *tracedThread) Acquire(l proto.LockID) {
	s := now()
	t.Thread.Acquire(l)
	t.span(spAcquire, s)
}

func (t *tracedThread) Release(l proto.LockID) {
	s := now()
	t.Thread.Release(l)
	t.span(spRelease, s)
}

func (t *tracedThread) Barrier(b proto.BarrierID) {
	s := now()
	t.Thread.Barrier(b)
	t.span(spBarrier, s)
}

func (t *tracedThread) Read(obj memory.ObjectID, idx int) uint64 {
	s := now()
	v := t.Thread.Read(obj, idx)
	t.span(spAccess, s)
	return v
}

func (t *tracedThread) Write(obj memory.ObjectID, idx int, v uint64) {
	s := now()
	t.Thread.Write(obj, idx, v)
	t.span(spAccess, s)
}

func (t *tracedThread) ReadView(obj memory.ObjectID) []uint64 {
	s := now()
	v := t.Thread.ReadView(obj)
	t.span(spAccess, s)
	return v
}

func (t *tracedThread) WriteView(obj memory.ObjectID) []uint64 {
	s := now()
	v := t.Thread.WriteView(obj)
	t.span(spAccess, s)
	return v
}

// Compute is passed through unspanned: it is free on the live engines.
func (t *tracedThread) Compute(d sim.Time) { t.Thread.Compute(d) }

// tracedMember spans the engine's use of a cluster member's transport.
// Embedding keeps the member's Quiesce, FinishRun and PeakDepth hooks,
// which the live engine finds by type assertion.
type tracedMember struct {
	*cluster.Member
	tr *tracer
}

func (m tracedMember) Send(to memory.NodeID, frame []byte) {
	s := now()
	m.Member.Send(to, frame)
	m.tr.add(spSend, m.LocalNode(), transportLane, s, now())
}

func (m tracedMember) Recv(id memory.NodeID) ([]byte, bool) {
	s := now()
	f, ok := m.Member.Recv(id)
	if ok && id == m.LocalNode() {
		// The replicas of remote nodes park in Recv for the whole run;
		// only the local daemon's wait is time a frame could have used.
		m.tr.add(spRecvWait, id, transportLane, s, now())
	}
	return f, ok
}

// tracedChanLoop is the same decorator over the in-process transport.
type tracedChanLoop struct {
	*transport.ChanLoop
	tr *tracer
}

func (c tracedChanLoop) Send(to memory.NodeID, frame []byte) {
	s := now()
	c.ChanLoop.Send(to, frame)
	c.tr.add(spSend, to, transportLane, s, now())
}

func (c tracedChanLoop) Recv(id memory.NodeID) ([]byte, bool) {
	s := now()
	f, ok := c.ChanLoop.Recv(id)
	if ok {
		c.tr.add(spRecvWait, id, transportLane, s, now())
	}
	return f, ok
}

// chromeEvent is one Chrome trace-event: "X" complete events for spans,
// "i" instants for flight-recorder events.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Scope string         `json:"s,omitempty"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans and flight events as one Chrome-trace
// file: pid is the node; tid is the thread, transportLane for the node's
// transport, flightLane for its flight recorder. (Under the sim engine
// flight events carry virtual time and do not line up with the spans.)
func writeChromeTrace(w io.Writer, spans []span, fl []flight.Event) error {
	const flightLane = 2000
	evs := make([]chromeEvent, 0, len(spans)+len(fl))
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: spanNames[s.Kind], Phase: "X",
			TS: float64(s.Wall) / 1e3, Dur: float64(s.Dur) / 1e3, PID: int(s.Node), TID: int(s.Lane),
		})
	}
	for _, e := range fl {
		evs = append(evs, chromeEvent{
			Name: e.Kind.String(), Phase: "i", Scope: "t",
			TS: float64(e.Wall) / 1e3, PID: int(e.Node), TID: flightLane,
			Args: map[string]any{"peer": int(e.Peer), "obj": int(e.Obj), "bytes": int(e.Bytes)},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{evs})
}
