//dsm:wallclock injected delays and delivery deadlines are wall-clock by design

// Package faulty wraps the in-process transport — a transport.Deliverer,
// ChanLoop — with seeded, deterministic fault injection: per-pair
// delivery delay/jitter, duplicated frames, a severed link, and the
// abrupt death of one node after a chosen number of frames. It is the
// standing chaos harness for the live DSM engine: the same wrapper drives
// the chaos sweeps (internal/bench, internal/scenario), the live engine's
// fault tests and its own conformance runs, so every resilience feature
// is exercised against one fault model.
//
// Fault schedule and delay draws derive only from Options.Seed (and the
// frame sequence the run produces), so a failing chaos seed replays.
//
// Semantics:
//
//   - Delays hold each frame for a pseudo-random duration drawn from a
//     per-(sender,receiver) stream before forwarding it to the inner
//     transport. Frames bound for one receiver stay FIFO (the wrapper
//     serializes each receiver's deliveries), which preserves the
//     transport contract's per-pair ordering. Each receiver's line also
//     delivers what it forwards to the receiver's sink (push), as a TCP
//     reader does.
//   - A kill (KillAfter / Kill) marks one node dead: every subsequent
//     frame to or from it is dropped, and the fatal handler fires
//     exactly once — exactly what a TCP backend does when a peer's
//     process dies. Delivery among survivors continues; it is the
//     engine's abort path (via the fatal handler) that ends the run.
//   - A cut (CutAfter) severs one link: frames between the pair drop,
//     fatal fires once, everything else flows.
//   - DupEvery re-delivers every k-th data frame. The DSM protocol's
//     rendezvous mailboxes treat unsolicited replies as fatal ("stray
//     token"), so duplication is for transport-level tests only — chaos
//     protocol runs leave it off.
package faulty

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/live/transport"
	"repro/internal/memory"
	"repro/internal/prng"
	"repro/internal/wire"
)

// Options configures the fault schedule. The zero value injects no
// faults (the wrapper is then a FIFO-preserving pass-through).
type Options struct {
	// Seed drives every pseudo-random draw. Two wrappers with the same
	// seed over the same frame sequence inject identical faults.
	Seed uint64

	// MinDelay/MaxDelay bound the per-frame delivery delay. MaxDelay <= 0
	// disables delays entirely.
	MinDelay, MaxDelay time.Duration

	// DupEvery re-delivers every k-th frame (0 = never). Transport-level
	// tests only; the protocol's rendezvous mailboxes reject strays.
	DupEvery int

	// KillAfter kills node KillNode once that many frames have entered
	// the wrapper (0 = no scheduled kill).
	KillNode  int
	KillAfter int64

	// CutAfter severs the CutA<->CutB link (both directions) once that
	// many frames have entered the wrapper (0 = no scheduled cut).
	CutA, CutB int
	CutAfter   int64

	// OnFatal, if set, receives the first injected failure. The live
	// engine overrides it through transport.FatalSink; standalone tests
	// set it here. A fault with no handler installed panics, matching
	// the TCP backend's contract.
	OnFatal func(error)
}

// timedFrame is one frame waiting on a delivery line.
type timedFrame struct {
	to    memory.NodeID
	from  int // parsed sender, -1 if unknown
	frame []byte
	due   time.Time
}

// line serializes deliveries to one receiver, preserving FIFO while
// frames sit out their injected delays.
type line struct {
	q *transport.Queue[timedFrame]
}

// Transport is the fault-injecting wrapper. Build with Wrap.
type Transport struct {
	inner  transport.Deliverer
	n      int
	opt    Options
	flight *flight.Recorder // see SetFlight

	lines []*line
	wg    sync.WaitGroup

	// Delay streams: one splitmix64 counter per (from,to) pair plus one
	// per receiver for frames whose sender can't be parsed; all seeded
	// from Options.Seed and drawn through prng.Mix.
	streamMu sync.Mutex
	streams  map[[2]int]uint64

	total     atomic.Int64
	dead      []atomic.Bool
	cut       atomic.Bool
	closed    atomic.Bool
	closeOnce sync.Once

	fatalMu   sync.Mutex
	fatalFn   func(error)
	fatalOnce sync.Once
	fatals    atomic.Int32
	err       atomic.Value // error
}

// Wrap builds the fault injector over inner for a cluster of n nodes.
func Wrap(inner transport.Deliverer, n int, opt Options) *Transport {
	if n <= 0 {
		panic(fmt.Sprintf("faulty: wrap over %d nodes", n))
	}
	t := &Transport{
		inner:   inner,
		n:       n,
		opt:     opt,
		lines:   make([]*line, n),
		streams: make(map[[2]int]uint64),
		dead:    make([]atomic.Bool, n),
	}
	t.fatalFn = opt.OnFatal
	// A sink's error takes an injected fault's road: off the line Close waits for.
	if fs, ok := inner.(transport.FatalSink); ok {
		fs.SetFatal(t.fatal)
	}
	for i := range t.lines {
		t.lines[i] = &line{q: transport.NewQueue[timedFrame]()}
		t.wg.Add(1)
		go t.runLine(t.lines[i])
	}
	return t
}

// senderOf peeks the sender out of an encoded wire.Msg (wire.PeekFrom).
// Transport-level tests send frames that are not wire messages, so an
// out-of-range parse is reported as unknown (-1) rather than trusted: an
// unknown sender draws delays from the receiver's fallback stream and is
// never matched by kill/cut filtering on the sender side.
func (t *Transport) senderOf(frame []byte) int {
	from, ok := wire.PeekFrom(frame)
	if !ok || from < 0 || int(from) >= t.n {
		return -1
	}
	return int(from)
}

// Send implements transport.Transport: count the frame against the
// fault schedule, drop it if a kill or cut claims it, otherwise place
// it on the receiver's delivery line with its drawn delay.
func (t *Transport) Send(to memory.NodeID, frame []byte) {
	if int(to) < 0 || int(to) >= t.n {
		panic(fmt.Sprintf("faulty: send to invalid node %d", to))
	}
	from := t.senderOf(frame)

	seq := t.total.Add(1)
	if t.opt.KillAfter > 0 && seq == t.opt.KillAfter {
		t.Kill(t.opt.KillNode)
	}
	if t.opt.CutAfter > 0 && seq == t.opt.CutAfter {
		t.cutLink()
	}

	if t.dropped(from, int(to)) || t.closed.Load() {
		transport.PutFrame(frame)
		return
	}

	due := time.Now().Add(t.delay(from, int(to)))
	l := t.lines[to]
	// Copy the duplicate before the original is enqueued: once on the
	// line the frame belongs to the receiver (and may return to the
	// frame pool), so reading it afterwards would race.
	var dup []byte
	if k := t.opt.DupEvery; k > 0 && seq%int64(k) == 0 {
		dup = append(transport.GetFrame(), frame...)
	}
	if !l.q.Put(timedFrame{to: to, from: from, frame: frame, due: due}) {
		transport.PutFrame(frame)
		if dup != nil {
			transport.PutFrame(dup)
		}
		return
	}
	if dup != nil {
		if !l.q.Put(timedFrame{to: to, from: from, frame: dup, due: due}) {
			transport.PutFrame(dup)
		}
	}
}

// dropped reports whether a frame between from and to is claimed by a
// kill or cut. from may be -1 (unknown sender).
func (t *Transport) dropped(from, to int) bool {
	if t.dead[to].Load() || (from >= 0 && t.dead[from].Load()) {
		return true
	}
	if t.cut.Load() && from >= 0 {
		a, b := t.opt.CutA, t.opt.CutB
		if (from == a && to == b) || (from == b && to == a) {
			return true
		}
	}
	return false
}

// delay draws the next delivery delay for the (from,to) stream.
func (t *Transport) delay(from, to int) time.Duration {
	if t.opt.MaxDelay <= 0 {
		return 0
	}
	key := [2]int{from, to}
	t.streamMu.Lock()
	s, ok := t.streams[key]
	if !ok {
		s = t.opt.Seed ^ uint64(from+1)<<32 ^ uint64(to+1)
	}
	s += 0x9e3779b97f4a7c15
	t.streams[key] = s
	t.streamMu.Unlock()
	v := prng.Mix(s)
	span := t.opt.MaxDelay - t.opt.MinDelay
	if span <= 0 {
		return t.opt.MinDelay
	}
	return t.opt.MinDelay + time.Duration(v%uint64(span))
}

// runLine forwards one receiver's frames to the inner transport after
// their delays elapse and delivers them to its sink. Sleeping in queue
// order preserves FIFO per receiver (and therefore per pair); a later
// frame drawn a shorter delay simply rides behind its predecessor, which
// only ever lengthens effective delays. After Close, remaining frames
// flush immediately, for Recv only.
func (t *Transport) runLine(l *line) {
	defer t.wg.Done()
	for {
		f, ok := l.q.Get()
		if !ok {
			return
		}
		if !t.closed.Load() {
			if d := time.Until(f.due); d > 0 {
				time.Sleep(d)
			}
		}
		// Re-check the fault schedule at delivery time: a kill that fired
		// while the frame sat on the line still claims it.
		if t.dropped(f.from, int(f.to)) {
			transport.PutFrame(f.frame)
			continue
		}
		t.inner.Send(f.to, f.frame)
		if !t.closed.Load() {
			t.inner.Deliver(f.to)
		}
	}
}

// Kill marks node dead immediately: its frames drop from now on and the
// fatal handler fires once, as if the peer's process died. Safe to call
// from tests at any point; KillAfter routes here.
func (t *Transport) Kill(node int) {
	if node < 0 || node >= t.n {
		panic(fmt.Sprintf("faulty: kill invalid node %d", node))
	}
	if t.dead[node].Swap(true) {
		return
	}
	t.flight.Record(flight.Event{Kind: flight.FaultInjected, Peer: memory.NodeID(node)})
	t.fatal(fmt.Errorf("faulty: node %d died (injected peer death after %d frames)", node, t.total.Load()))
}

// cutLink severs the configured pair and raises the fault.
func (t *Transport) cutLink() {
	if t.cut.Swap(true) {
		return
	}
	t.flight.Record(flight.Event{Kind: flight.FaultInjected, Tag: flight.FaultCut, Peer: memory.NodeID(t.opt.CutA), Sync: uint32(t.opt.CutB)})
	t.fatal(fmt.Errorf("faulty: link %d<->%d severed (injected cut after %d frames)", t.opt.CutA, t.opt.CutB, t.total.Load()))
}

// fatal raises the first failure exactly once, from a fresh goroutine:
// the handler typically aborts the engine and closes this transport,
// which must not deadlock against the Send or line goroutine that
// detected the fault.
func (t *Transport) fatal(err error) {
	t.fatalOnce.Do(func() {
		t.err.Store(err)
		t.fatals.Add(1)
		t.fatalMu.Lock()
		fn := t.fatalFn
		t.fatalMu.Unlock()
		if fn == nil {
			panic(fmt.Sprintf("faulty: fatal with no handler installed: %v", err))
		}
		go fn(err)
	})
}

// SetFlight installs the recorder every injected fault (kill, cut) logs
// to as a FaultInjected event, so a chaos timeline shows the fault amid
// the protocol traffic it disrupted. The live engine's recorders exist
// only after live.New — which needs the transport — so in-process chaos
// runs attach node 0's recorder between New and Run. Must be called
// before any traffic flows (Kill/cutLink read the field from Send's
// goroutine).
func (t *Transport) SetFlight(f *flight.Recorder) {
	t.flight = f
}

// SetFatal implements transport.FatalSink: the live engine installs its
// abort hook here before any traffic flows.
func (t *Transport) SetFatal(fn func(error)) {
	t.fatalMu.Lock()
	t.fatalFn = fn
	t.fatalMu.Unlock()
}

// Fatals reports how many times the fatal handler fired (0 or 1).
func (t *Transport) Fatals() int { return int(t.fatals.Load()) }

// Err returns the first injected failure, nil if none fired.
func (t *Transport) Err() error {
	if e, ok := t.err.Load().(error); ok {
		return e
	}
	return nil
}

// Recv implements transport.Transport by delegating to the inner
// backend (faults act on the send side only).
func (t *Transport) Recv(id memory.NodeID) ([]byte, bool) {
	return t.inner.Recv(id)
}

// SetSink implements transport.Pusher: the inner backend takes the sink
// unwrapped (faults act on the send side), and what it queued before the
// install is delivered.
func (t *Transport) SetSink(id memory.NodeID, sink func(frame []byte) error) {
	t.inner.SetSink(id, sink)
	t.inner.Deliver(id)
}

// Close implements transport.Transport: pending line frames flush to
// the inner transport without their remaining delays (preserving the
// close-drains contract), then the inner backend closes.
func (t *Transport) Close() {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		for _, l := range t.lines {
			l.q.Close()
		}
		t.wg.Wait()
		t.inner.Close()
	})
}

// InboxLen delegates to the inner backend when it reports depths
// (tests, observability).
func (t *Transport) InboxLen(id memory.NodeID) int {
	if d, ok := t.inner.(interface{ InboxLen(memory.NodeID) int }); ok {
		return d.InboxLen(id)
	}
	return 0
}

// PeakDepth implements transport.Pusher by delegation.
func (t *Transport) PeakDepth() int { return t.inner.PeakDepth() }

var _ transport.Pusher = (*Transport)(nil)
