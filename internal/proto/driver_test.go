package proto

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hockney"
	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/twindiff"
	"repro/internal/wire"
)

// These tests drive one Driver (slot 0 of node 0) through a scripted
// Host: no scheduler, no clock. Every Host call in which the driver
// waits or arms a timer — Recv, RetryAfter — consumes the next step of the
// test's table, which asserts the state the driver blocked in and then
// plays whatever happens meanwhile. That makes the windows only the live
// engine's real scheduler used to reach (a home transfer landing while a
// request or diff is in flight, a manager table lagging behind) ordinary
// deterministic test cases.
//
// The other nodes are real proto.Nodes: frames travel a FIFO "wire" and
// are handled by their destination's Node.Handle, so replies come from
// the real handlers rather than being made up.

// call names the Host method a step expects the driver to block in.
type call uint8

const (
	recv call = iota
	retryAfter
)

func (c call) String() string { return [...]string{"Recv", "RetryAfter"}[c] }

// objState is the per-object view the step tables assert on.
type objState struct {
	Cache       string        // "none", or the local copy's access state
	Home        bool          // node 0 is the home
	Hint        memory.NodeID // node 0's locator belief
	Twin        bool          // the local copy holds a twin
	Outstanding bool          // a flushed diff awaits its ack
}

// step is one wait of the driver.
type step struct {
	name string
	on   call
	// sent lists the frames node 0 must have sent since the previous
	// step, as "Kind>to".
	sent []string
	// want is the object's state when the driver blocks.
	want objState
	// check, when set, makes further assertions at that moment.
	check func(w *world)
	// then plays what happens while the thread is parked. For recv it
	// returns the delivery that wakes the thread (nil: pump the wire
	// until the real handlers deliver one).
	then func(w *world) Token
}

type world struct {
	t   *testing.T
	sp  *Space
	n   *Node // node 0, the node under test
	d   *Driver
	obj memory.ObjectID

	wire  []wire.Msg // frames in flight, send order
	sent  []wire.Msg // what node 0 sent since the last step
	mbox  []Token    // deliveries to the thread under test
	timer timer      // the last RetryAfter

	steps []step
	next  int
}

// timer is one armed RetryAfter.
type timer struct {
	kind TokenKind
	obj  memory.ObjectID
}

func (tm timer) fire() Token { return Token{Kind: tm.kind, Obj: tm.obj} }

// engine is node id's proto.Engine over the world's wire.
type engine struct {
	w  *world
	id memory.NodeID
}

func (e engine) Send(msg wire.Msg, _ stats.Category) {
	if msg.To == e.id {
		e.w.t.Fatalf("node %d sent %v to itself", e.id, msg.Kind)
	}
	e.w.wire = append(e.w.wire, msg)
	if e.id == 0 {
		e.w.sent = append(e.w.sent, msg)
	}
}

func (e engine) ToThread(slot int32, msg wire.Msg) {
	if e.id != 0 || slot != 0 {
		e.w.t.Fatalf("delivery to thread %d of node %d: only node 0 slot 0 has one", slot, e.id)
	}
	e.w.mbox = append(e.w.mbox, Token{Msg: msg})
}

// newWorld builds a cluster of real nodes under loc, one of whose
// objects (objID, so the test picks its manager: objID mod nodes) is
// homed at home, with the driver under test on node 0.
func newWorld(t *testing.T, loc locator.Kind, nodes int, objID memory.ObjectID, home memory.NodeID) *world {
	w := &world{t: t, obj: objID}
	w.sp = NewSpace(&Shared{
		Nodes: nodes, Policy: migration.NoHM{}, Locator: loc,
		Params: core.DefaultParams(hockney.FastEthernet().Alpha),
	})
	for i := 0; i < nodes; i++ {
		n := w.sp.NewNode(memory.NodeID(i))
		n.Eng = engine{w, n.ID}
		n.Counters = &stats.Counters{}
	}
	for id := memory.ObjectID(0); id <= objID; id++ {
		w.sp.AddObject(4, home)
	}
	w.sp.InitObject(objID, func(words []uint64) { words[0] = 5 })
	w.n = w.sp.Nodes[0]
	drv := NewDriver(w.n, w, 0, 0, "t0")
	w.d = &drv
	return w
}

// script installs the step table for the driver operation about to run.
func (w *world) script(steps ...step) {
	w.done()
	w.steps, w.next = steps, 0
}

// done asserts the previous operation consumed its whole table.
func (w *world) done() {
	w.t.Helper()
	if w.next != len(w.steps) {
		w.t.Fatalf("operation returned before step %q", w.steps[w.next].name)
	}
}

func (w *world) state() objState {
	s := objState{Cache: "none", Home: w.n.IsHome[w.obj], Hint: w.n.Loc.Hint(w.obj)}
	if o := w.n.Cache[w.obj]; o != nil {
		s.Cache, s.Twin = o.State.String(), o.Twin != nil
	}
	s.Outstanding = w.d.flushed(w.obj) >= 0
	return s
}

// advance consumes the next step for a driver blocked in on.
func (w *world) advance(on call) *step {
	w.t.Helper()
	if w.next == len(w.steps) {
		w.t.Fatalf("driver blocks in %v after the last scripted step (sent %v)", on, frames(w.sent))
	}
	st := &w.steps[w.next]
	w.next++
	if st.on != on {
		w.t.Fatalf("step %q: driver blocks in %v, want %v (sent %v)", st.name, on, st.on, frames(w.sent))
	}
	if got := frames(w.sent); !slices.Equal(got, st.sent) {
		w.t.Fatalf("step %q: node 0 sent %v, want %v", st.name, got, st.sent)
	}
	if got := w.state(); got != st.want {
		w.t.Fatalf("step %q: state %+v, want %+v", st.name, got, st.want)
	}
	if st.check != nil {
		st.check(w)
	}
	w.sent = w.sent[:0]
	return st
}

func frames(ms []wire.Msg) []string {
	var out []string
	for _, m := range ms {
		out = append(out, fmt.Sprintf("%v>%d", m.Kind, m.To))
	}
	return out
}

// pump delivers in-flight frames, in order, to their destinations' real
// handlers until one of them wakes the thread under test.
func (w *world) pump() Token {
	for len(w.mbox) == 0 {
		if len(w.wire) == 0 {
			w.t.Fatal("thread parked with nothing in flight")
		}
		w.deliverNext()
	}
	tok := w.mbox[0]
	w.mbox = w.mbox[1:]
	return tok
}

// drain delivers every in-flight frame.
func (w *world) drain() {
	for len(w.wire) > 0 {
		w.deliverNext()
	}
}

func (w *world) deliverNext() {
	f := w.wire[0]
	w.wire = w.wire[1:]
	w.sp.Nodes[f.To].Handle(f)
}

// hold takes the in-flight frames of one kind off the wire — a slow
// link; the caller puts them back to let them land.
func (w *world) hold(kind wire.Kind) []wire.Msg {
	var held, rest []wire.Msg
	for _, f := range w.wire {
		if f.Kind == kind {
			held = append(held, f)
		} else {
			rest = append(rest, f)
		}
	}
	w.wire = rest
	return held
}

// moveHome migrates the object's home the way a fault-in from another
// thread of node `to` would: the old home demotes, the new one installs
// the migrating reply and announces itself per the locator.
func (w *world) moveHome(from, to memory.NodeID) {
	src, dst := w.sp.Nodes[from], w.sp.Nodes[to]
	rec := src.HomeSt[w.obj].Migrate(w.sp.S.Params)
	data := slices.Clone(src.Cache[w.obj].Data)
	src.demote(w.obj, to)
	if w.sp.S.Locator == locator.ForwardingPointer {
		src.Loc.SetForward(w.obj, to)
	}
	dst.Install(wire.Msg{
		Kind: wire.ObjReply, Obj: w.obj, Data: data, Home: to,
		Migrate: true, Rec: rec,
	})
	w.sent = w.sent[:0] // a sibling's announcement, not the driver's doing
}

// drawnFromPool reports whether the node's pool hands buf's storage out
// again: p points into the buffer that should have been recycled.
func (w *world) drawnFromPool(p *uint64) bool {
	got := twindiff.TwinInto(&w.n.Pool, make([]uint64, 4))
	got = got[:cap(got)]
	for i := range got {
		if &got[i] == p {
			return true
		}
	}
	return false
}

// Host implementation: the scripted engine.

func (w *world) Lock()         {}
func (w *world) Unlock()       {}
func (w *world) SyncPoint()    {}
func (w *world) ChargeFault()  {}
func (w *world) ChargeSend()   {}
func (w *world) Now() sim.Time { return 0 }

func (w *world) Recv(tok *Token) {
	w.t.Helper()
	st := w.advance(recv)
	if st.then == nil {
		*tok = w.pump()
		return
	}
	*tok = st.then(w)
}

func (w *world) RetryAfter(kind TokenKind, obj memory.ObjectID) {
	w.t.Helper()
	w.timer = timer{kind, obj}
	if st := w.advance(retryAfter); st.then != nil {
		st.then(w)
	}
}

// A hint that names this node while it is not the home (and whose
// well-known fallback is this node too) must not turn into a request to
// ourselves: the fault arms a retry timer and re-resolves when it fires.
func TestDriverStaleSelfHintBacksOff(t *testing.T) {
	w := newWorld(t, locator.ForwardingPointer, 3, 0, 0)
	lock := w.sp.AddLock(0)
	w.moveHome(0, 2)
	w.d.Acquire(lock) // drops the demoted copy
	w.n.Loc.Learn(w.obj, 0)

	w.script(
		step{name: "self-hint, not home: arm the retry timer", on: retryAfter,
			want: objState{Cache: "none", Hint: 0},
			check: func(w *world) {
				if w.timer != (timer{TokRetry, w.obj}) || w.n.Counters.Retries != 0 {
					t.Fatalf("timer %+v, retries %d", w.timer, w.n.Counters.Retries)
				}
			}},
		step{name: "parked; the hint is corrected, then the timer fires", on: recv,
			want: objState{Cache: "none", Hint: 0},
			then: func(w *world) Token { w.n.Loc.Learn(w.obj, 2); return w.timer.fire() }},
		step{name: "re-resolved: fault-in from the real home", on: recv,
			sent: []string{"ObjReq>2"},
			want: objState{Cache: "none", Hint: 2}},
	)
	if v := w.d.Read(w.obj, 0); v != 5 {
		t.Fatalf("Read = %d, want 5", v)
	}
	w.done()
	if got, want := w.state(), (objState{Cache: "RO", Hint: 2}); got != want {
		t.Fatalf("final state %+v, want %+v", got, want)
	}
}

// A manager whose table still names this node — it demoted, and the new
// homes' updates are in flight — must not be believed: the flush re-asks
// after a back-off instead of routing the diff at itself.
func TestDriverStaleManagerReplyRetriesQuery(t *testing.T) {
	const obj = 1 // managed by node 1
	w := newWorld(t, locator.Manager, 4, obj, 0)
	lock := w.sp.AddLock(0)
	w.moveHome(0, 2)
	updates := w.hold(wire.MgrUpdate)
	w.d.Acquire(lock)

	w.script(step{name: "fault-in for the write", on: recv,
		sent: []string{"ObjReq>2"}, want: objState{Cache: "none", Hint: 2}})
	w.d.Write(obj, 0, 7)
	w.moveHome(2, 3)
	updates = append(updates, w.hold(wire.MgrUpdate)...)

	w.script(
		step{name: "diff sent to the home it was fetched from", on: recv,
			sent: []string{"Diff>2"},
			want: objState{Cache: "RO", Hint: 2, Outstanding: true}},
		step{name: "home miss: ask the manager", on: recv,
			sent: []string{"MgrQuery>1"},
			want: objState{Cache: "RO", Hint: 3, Outstanding: true}},
		step{name: "manager names us, we are not home: re-query later", on: retryAfter,
			want: objState{Cache: "RO", Hint: 3, Outstanding: true},
			check: func(w *world) {
				if w.timer != (timer{TokRetryQuery, obj}) || !w.d.pendingQuery[obj] {
					t.Fatalf("timer %+v, pendingQuery %v", w.timer, w.d.pendingQuery[obj])
				}
			}},
		step{name: "parked; the updates land, then the timer fires", on: recv,
			want: objState{Cache: "RO", Hint: 3, Outstanding: true},
			then: func(w *world) Token {
				w.wire = append(w.wire, updates...)
				w.drain()
				return w.timer.fire()
			}},
		step{name: "second query", on: recv,
			sent: []string{"MgrQuery>1"},
			want: objState{Cache: "RO", Hint: 3, Outstanding: true}},
		step{name: "diff re-sent to the resolved home", on: recv,
			sent: []string{"Diff>3"},
			want: objState{Cache: "RO", Hint: 3, Outstanding: true}},
	)
	w.d.Release(lock)
	w.done()
	if got, want := w.state(), (objState{Cache: "RO", Hint: 3}); got != want {
		t.Fatalf("final state %+v, want %+v", got, want)
	}
	if v := w.sp.ObjectData(obj)[0]; v != 7 || w.sp.HomeOf(obj) != 3 {
		t.Fatalf("home copy at node %d holds %d, want 7 at node 3", w.sp.HomeOf(obj), v)
	}
}

// Every new home reports to the manager over its own pair connection, and
// two connections are not ordered: the update of a later home can overtake
// an earlier one's. The manager keeps the newest epoch's, not the last to
// arrive — a table left on a demoted node answers every query with it, that
// node's hint leads back to the manager, and the fault-in never returns
// (real sockets reach this; virtual time does not).
func TestDriverManagerKeepsNewestEpoch(t *testing.T) {
	const obj = 1 // managed by node 1
	w := newWorld(t, locator.Manager, 4, obj, 2)
	// The home bounces 2 -> 3 -> 2 -> 3: node 3 reports epochs 1 and 3 on
	// one connection, node 2 epoch 2 on another.
	w.moveHome(2, 3)
	w.moveHome(3, 2)
	w.moveHome(2, 3)
	updates := w.hold(wire.MgrUpdate)
	if got := frames(updates); !slices.Equal(got, []string{"MgrUpdate>1", "MgrUpdate>1", "MgrUpdate>1"}) {
		t.Fatalf("held %v", got)
	}
	// Node 2's link is the slow one; each link stays FIFO.
	w.wire = append(w.wire, updates[0], updates[2], updates[1])
	w.drain()
	if mgr := w.sp.Nodes[1]; mgr.MgrHome[obj] != 3 {
		t.Fatalf("manager's table names node %d after epochs 1, 3, 2 arrived in that order; the home is node 3", mgr.MgrHome[obj])
	}

	w.script(
		step{name: "fault-in at the initial home, long demoted", on: recv,
			sent: []string{"ObjReq>2"}, want: objState{Cache: "none", Hint: 2}},
		step{name: "home miss: ask the manager", on: recv,
			sent: []string{"MgrQuery>1"}, want: objState{Cache: "none", Hint: 3}},
		step{name: "the manager names the home", on: recv,
			sent: []string{"ObjReq>3"}, want: objState{Cache: "none", Hint: 3}},
	)
	if v := w.d.Read(obj, 0); v != 5 {
		t.Fatalf("Read = %d, want 5", v)
	}
	w.done()
}

// The broadcast locator has the same fan-in at every node: one
// announcement per new home, each on its own connection. Believing the
// last to arrive can close a ring of stale hints that leaves the home out
// (here 2 -> 3 -> 4 -> 2 with the home on node 1), around which a fault-in
// is bounced forever. The schedule is legal: every link is FIFO, and each
// home heard its predecessor's broadcast before that predecessor's
// migrating reply, which travels the same link.
func TestDriverBroadcastKeepsNewestEpoch(t *testing.T) {
	w := newWorld(t, locator.Broadcast, 5, 0, 1)
	var late [][]wire.Msg // per epoch, the broadcasts still in flight
	move := func(from, to, next memory.NodeID) {
		w.moveHome(from, to)
		var held []wire.Msg
		for _, f := range w.hold(wire.HomeBcast) {
			if f.To == next {
				w.wire = append(w.wire, f)
			} else {
				held = append(held, f)
			}
		}
		w.drain()
		late = append(late, held)
	}
	move(1, 2, 3)
	move(2, 3, 4)
	move(3, 4, 1)
	move(4, 1, memory.NoNode)
	// The slower a link, the older what it carries: epoch 4 lands first
	// everywhere, epoch 1 last.
	for epoch := len(late) - 1; epoch >= 0; epoch-- {
		w.wire = append(w.wire, late[epoch]...)
		w.drain()
	}
	for id, n := range w.sp.Nodes {
		if h := n.Loc.Hint(w.obj); h != 1 {
			t.Errorf("node %d believes the home is node %d; it is node 1", id, h)
		}
	}

	w.script(step{name: "fault-in at the home", on: recv,
		sent: []string{"ObjReq>1"}, want: objState{Cache: "none", Hint: 1}})
	if v := w.d.Read(w.obj, 0); v != 5 {
		t.Fatalf("Read = %d, want 5", v)
	}
	w.done()
}

// A diff that comes back unapplied after the home migrated HERE is folded
// into the home copy locally, and its buffer goes back to the pool.
func TestDriverDiffBouncedToNewLocalHomeSettles(t *testing.T) {
	const obj = 0 // managed by node 0, the node under test
	w := newWorld(t, locator.Manager, 2, obj, 1)
	lock := w.sp.AddLock(0)
	w.d.Acquire(lock)
	w.script(step{name: "fault-in for the write", on: recv,
		sent: []string{"ObjReq>1"}, want: objState{Cache: "none", Hint: 1}})
	w.d.Write(obj, 0, 7)

	var diffBuf *uint64
	w.script(step{name: "diff in flight while a sibling's fault migrates the home here", on: recv,
		sent: []string{"Diff>1"},
		want: objState{Cache: "RO", Hint: 1, Outstanding: true},
		then: func(w *world) Token {
			for _, words := range w.d.outstanding[w.d.flushed(obj)].D.Runs() {
				diffBuf = &words[0]
			}
			w.moveHome(1, 0)
			return w.pump() // node 1 bounces the diff: HomeMiss
		}})
	w.d.Release(lock)
	w.done()
	if got, want := w.state(), (objState{Cache: "RO", Home: true, Hint: 0}); got != want {
		t.Fatalf("final state %+v, want %+v", got, want)
	}
	if v := w.n.Cache[obj].Data[0]; v != 7 {
		t.Fatalf("home copy holds %d, want the flushed 7", v)
	}
	if w.d.pendingQuery[obj] {
		t.Fatal("manager resolution still pending after the settle")
	}
	if !w.drawnFromPool(diffBuf) {
		t.Fatal("settled diff's buffer was not returned to the pool")
	}
}

// A fault-in reply that arrives after this node became the home (the
// request chased the old forwarding chain back to our own daemon) is
// dropped: the home copy is newer than the reply's snapshot.
func TestDriverBoomerangReplyDropped(t *testing.T) {
	w := newWorld(t, locator.ForwardingPointer, 2, 0, 1)
	var snapshot *uint64
	w.script(step{name: "request in flight while a sibling's fault migrates the home here", on: recv,
		sent: []string{"ObjReq>1"}, want: objState{Cache: "none", Hint: 1},
		then: func(w *world) Token {
			w.moveHome(1, 0)
			tok := w.pump() // node 1 redirects; our own daemon serves it
			if tok.Msg.Kind != wire.ObjReply || tok.Msg.From != 0 || tok.Msg.Data[0] != 5 {
				t.Fatalf("want the boomerang reply with the serve-time snapshot, got %+v", tok.Msg)
			}
			snapshot = &tok.Msg.Data[0]
			w.n.Cache[w.obj].Data[0] = 99 // the sibling's home write, after the serve
			return tok
		}})
	if v := w.d.Read(w.obj, 0); v != 99 {
		t.Fatalf("Read = %d, want the home copy's 99 (5 is the stale snapshot)", v)
	}
	w.done()
	if !w.n.IsHome[w.obj] || w.sp.HomeOf(w.obj) != 0 {
		t.Fatal("node 0 lost the home")
	}
	if !w.drawnFromPool(snapshot) {
		t.Fatal("dropped reply's payload was not returned to the pool")
	}
}

// Under the broadcast locator a bounced diff is re-sent when its retry
// timer fires, toward whatever home the node has learned by then.
func TestDriverBroadcastDiffRetry(t *testing.T) {
	w := newWorld(t, locator.Broadcast, 3, 0, 1)
	lock := w.sp.AddLock(0)
	w.d.Acquire(lock)
	w.script(step{name: "fault-in for the write", on: recv,
		sent: []string{"ObjReq>1"}, want: objState{Cache: "none", Hint: 1}})
	w.d.Write(w.obj, 0, 7)
	w.moveHome(1, 2)
	bcast := w.hold(wire.HomeBcast)

	var diffBuf *uint64
	w.script(
		step{name: "diff sent to the stale home", on: recv,
			sent: []string{"Diff>1"},
			want: objState{Cache: "RO", Hint: 1, Outstanding: true}},
		step{name: "home miss: arm the retry timer", on: retryAfter,
			want: objState{Cache: "RO", Hint: 2, Outstanding: true},
			check: func(w *world) {
				if w.timer != (timer{TokRetry, w.obj}) || w.n.Counters.Retries != 1 {
					t.Fatalf("timer %+v, retries %d", w.timer, w.n.Counters.Retries)
				}
			}},
		step{name: "parked; the broadcast lands, then the timer fires", on: recv,
			want: objState{Cache: "RO", Hint: 2, Outstanding: true},
			then: func(w *world) Token {
				w.wire = append(w.wire, bcast...)
				w.drain()
				return w.timer.fire()
			}},
		step{name: "diff re-sent to the new home", on: recv,
			sent: []string{"Diff>2"},
			want: objState{Cache: "RO", Hint: 2, Outstanding: true},
			check: func(w *world) {
				for _, words := range w.d.outstanding[w.d.flushed(w.obj)].D.Runs() {
					diffBuf = &words[0]
				}
			}},
	)
	w.d.Release(lock)
	w.done()
	if v := w.sp.ObjectData(w.obj)[0]; v != 7 || w.sp.HomeOf(w.obj) != 2 {
		t.Fatalf("home copy at node %d holds %d, want 7 at node 2", w.sp.HomeOf(w.obj), v)
	}
	if !w.drawnFromPool(diffBuf) {
		t.Fatal("acknowledged diff's buffer was not returned to the pool")
	}
}

// The fault-in's broadcast retry: a fault-in that hits a demoted home
// waits one retry delay, then asks whatever home the node has learned by
// then.
func TestDriverBroadcastFaultRetry(t *testing.T) {
	w := newWorld(t, locator.Broadcast, 3, 0, 1)
	w.moveHome(1, 2)
	bcast := w.hold(wire.HomeBcast)

	w.script(
		step{name: "fault-in at the demoted home", on: recv,
			sent: []string{"ObjReq>1"}, want: objState{Cache: "none", Hint: 1}},
		step{name: "home miss: arm the retry timer", on: retryAfter,
			want: objState{Cache: "none", Hint: 2},
			check: func(w *world) {
				if w.timer != (timer{TokRetry, w.obj}) || w.n.Counters.Retries != 1 {
					t.Fatalf("timer %+v, retries %d", w.timer, w.n.Counters.Retries)
				}
			}},
		step{name: "parked; the broadcast lands, then the timer fires", on: recv,
			want: objState{Cache: "none", Hint: 2},
			then: func(w *world) Token {
				w.wire = append(w.wire, bcast...)
				w.drain()
				return w.timer.fire()
			}},
		step{name: "fault-in re-sent to the new home", on: recv,
			sent: []string{"ObjReq>2"}, want: objState{Cache: "none", Hint: 2}},
	)
	if v := w.d.Read(w.obj, 0); v != 5 {
		t.Fatalf("Read = %d, want 5", v)
	}
	w.done()
	if got, want := w.state(), (objState{Cache: "RO", Hint: 2}); got != want {
		t.Fatalf("final state %+v, want %+v", got, want)
	}
}

// A fault-in whose retry timer fires after a sibling's fault migrated the
// home here is over: the home copy is read, and nothing is sent.
func TestDriverFaultHomeArrivesWhileParked(t *testing.T) {
	w := newWorld(t, locator.Broadcast, 3, 0, 1)
	w.moveHome(1, 2)

	w.script(
		step{name: "fault-in at the demoted home", on: recv,
			sent: []string{"ObjReq>1"}, want: objState{Cache: "none", Hint: 1}},
		step{name: "home miss: arm the retry timer", on: retryAfter,
			want: objState{Cache: "none", Hint: 2}},
		step{name: "parked; the home migrates here, then the timer fires", on: recv,
			want: objState{Cache: "none", Hint: 2},
			then: func(w *world) Token {
				w.drain()
				w.moveHome(2, 0)
				return w.timer.fire()
			}},
	)
	if v := w.d.Read(w.obj, 0); v != 5 {
		t.Fatalf("Read = %d, want 5", v)
	}
	w.done()
	if len(w.sent) != 0 {
		t.Fatalf("the fault sent %v after the home came here", frames(w.sent))
	}
	// A migrated-in home copy stays INV until its next trapped access.
	if got, want := w.state(), (objState{Cache: "INV", Home: true, Hint: 0}); got != want {
		t.Fatalf("final state %+v, want %+v", got, want)
	}
}

// The fault-in's stale-manager window: the remote manager's table still
// names this node, which demoted, so the fault-in re-asks after a retry
// delay instead of requesting the object from itself.
func TestDriverFaultStaleManagerRetriesQuery(t *testing.T) {
	const obj = 1 // managed by node 1
	w := newWorld(t, locator.Manager, 4, obj, 0)
	lock := w.sp.AddLock(0)
	w.moveHome(0, 2)
	updates := w.hold(wire.MgrUpdate)
	w.d.Acquire(lock) // drops the demoted copy
	w.moveHome(2, 3)
	updates = append(updates, w.hold(wire.MgrUpdate)...)

	w.script(
		step{name: "fault-in at the home it last heard of", on: recv,
			sent: []string{"ObjReq>2"}, want: objState{Cache: "none", Hint: 2}},
		step{name: "home miss: ask the manager", on: recv,
			sent: []string{"MgrQuery>1"}, want: objState{Cache: "none", Hint: 3}},
		step{name: "manager names us, we are not home: re-query later", on: retryAfter,
			want: objState{Cache: "none", Hint: 3},
			check: func(w *world) {
				if w.timer != (timer{TokRetryQuery, obj}) || !w.d.pendingQuery[obj] {
					t.Fatalf("timer %+v, pendingQuery %v", w.timer, w.d.pendingQuery[obj])
				}
			}},
		step{name: "parked; the updates land, then the timer fires", on: recv,
			want: objState{Cache: "none", Hint: 3},
			then: func(w *world) Token {
				w.wire = append(w.wire, updates...)
				w.drain()
				return w.timer.fire()
			}},
		step{name: "second query", on: recv,
			sent: []string{"MgrQuery>1"}, want: objState{Cache: "none", Hint: 3}},
		step{name: "fault-in sent to the resolved home", on: recv,
			sent: []string{"ObjReq>3"}, want: objState{Cache: "none", Hint: 3}},
	)
	if v := w.d.Read(obj, 0); v != 5 {
		t.Fatalf("Read = %d, want 5", v)
	}
	w.done()
	if got, want := w.state(), (objState{Cache: "RO", Hint: 3}); got != want {
		t.Fatalf("final state %+v, want %+v", got, want)
	}
	if w.d.pendingQuery[obj] {
		t.Fatal("manager resolution still pending after the fault-in")
	}
}

// A retry timer that fires after what it was armed for has been answered
// (a duplicated reply arms two) sends nothing.
func TestDriverLateTimersSendNothing(t *testing.T) {
	const obj = 1 // managed by node 1
	w := newWorld(t, locator.Manager, 2, obj, 1)
	lock := w.sp.AddLock(1)
	idle := objState{Cache: "none", Hint: 1}
	w.script(
		step{name: "waiting for the grant; a late retry timer fires", on: recv,
			sent: []string{"LockReq>1"}, want: idle,
			then: func(w *world) Token { return Token{Kind: TokRetry, Obj: obj} }},
		step{name: "a late re-query timer fires", on: recv, want: idle,
			then: func(w *world) Token { return Token{Kind: TokRetryQuery, Obj: obj} }},
		step{name: "neither sent anything; the grant", on: recv, want: idle},
	)
	w.d.Acquire(lock)
	w.done()
}

// A home miss delivered twice while the manager query it started is in
// flight asks the manager once.
func TestDriverDuplicateHomeMissQueriesOnce(t *testing.T) {
	const obj = 1 // managed by node 1
	w := newWorld(t, locator.Manager, 4, obj, 2)
	lock := w.sp.AddLock(0)
	w.d.Acquire(lock)
	w.script(step{name: "fault-in for the write", on: recv,
		sent: []string{"ObjReq>2"}, want: objState{Cache: "none", Hint: 2}})
	w.d.Write(obj, 0, 7)
	w.moveHome(2, 3)
	w.drain() // the manager learns the new home

	bounced := objState{Cache: "RO", Hint: 3, Outstanding: true}
	w.script(
		step{name: "diff sent to the old home; its home miss arrives twice", on: recv,
			sent: []string{"Diff>2"},
			want: objState{Cache: "RO", Hint: 2, Outstanding: true},
			then: func(w *world) Token {
				tok := w.pump()
				w.mbox = append(w.mbox, tok)
				return tok
			}},
		step{name: "the duplicate, with the query in flight", on: recv,
			sent: []string{"MgrQuery>1"}, want: bounced},
		step{name: "no second query; the answer", on: recv, want: bounced},
		step{name: "diff re-sent to the new home", on: recv,
			sent: []string{"Diff>3"}, want: bounced},
	)
	w.d.Release(lock)
	w.done()
}

// The manager's answer overrides the next hop a home miss suggested: the
// obsolete home's own hint is one more obsolete home.
func TestDriverManagerAnswerBeatsStaleMiss(t *testing.T) {
	const obj = 1 // managed by node 1
	w := newWorld(t, locator.Manager, 4, obj, 2)
	w.moveHome(2, 3)
	w.moveHome(3, 1)
	w.drain()

	w.script(
		step{name: "fault-in at the initial home", on: recv,
			sent: []string{"ObjReq>2"}, want: objState{Cache: "none", Hint: 2}},
		step{name: "home miss names node 3: ask the manager", on: recv,
			sent: []string{"MgrQuery>1"}, want: objState{Cache: "none", Hint: 3}},
		step{name: "the manager names the home", on: recv,
			sent: []string{"ObjReq>1"}, want: objState{Cache: "none", Hint: 1}},
	)
	if v := w.d.Read(obj, 0); v != 5 {
		t.Fatalf("Read = %d, want 5", v)
	}
	w.done()
}

// A home miss naming this node, which is not home, teaches nothing: the
// obsolete home has not heard that this node demoted.
func TestDriverHomeMissNamingUsTeachesNothing(t *testing.T) {
	w := newWorld(t, locator.Broadcast, 3, 0, 1)
	lock := w.sp.AddLock(0)
	w.moveHome(1, 0)
	w.drain()
	w.moveHome(0, 2)
	bcast := w.hold(wire.HomeBcast)
	w.d.Acquire(lock)       // drops the demoted copy
	w.n.Loc.Learn(w.obj, 1) // a stale hint: home misses carry no epoch

	w.script(
		step{name: "fault-in at an obsolete home", on: recv,
			sent: []string{"ObjReq>1"}, want: objState{Cache: "none", Hint: 1}},
		step{name: "its home miss names us: the hint stands", on: retryAfter,
			want: objState{Cache: "none", Hint: 1}},
		step{name: "parked; the broadcast lands, then the timer fires", on: recv,
			want: objState{Cache: "none", Hint: 1},
			then: func(w *world) Token {
				w.wire = append(w.wire, bcast...)
				w.drain()
				return w.timer.fire()
			}},
		step{name: "fault-in at the home", on: recv,
			sent: []string{"ObjReq>2"}, want: objState{Cache: "none", Hint: 2}},
	)
	if v := w.d.Read(w.obj, 0); v != 5 {
		t.Fatalf("Read = %d, want 5", v)
	}
	w.done()
}

// A fault-in redirected along a forwarding chain teaches the node it
// entered at the home (path compression), not any other.
func TestDriverRedirectedFaultCompressesPath(t *testing.T) {
	w := newWorld(t, locator.ForwardingPointer, 3, 0, 1)
	w.sp.S.PathCompress = true
	w.moveHome(1, 2)

	w.script(step{name: "fault-in at the old home, which forwards", on: recv,
		sent: []string{"ObjReq>1"}, want: objState{Cache: "none", Hint: 1}})
	if v := w.d.Read(w.obj, 0); v != 5 {
		t.Fatalf("Read = %d, want 5", v)
	}
	w.done()
	if got := frames(w.sent); !slices.Equal(got, []string{"PtrUpdate>1"}) {
		t.Fatalf("after the reply node 0 sent %v, want [PtrUpdate>1]", got)
	}
}

// A message the thread did not ask for is a protocol violation: the
// thread fails naming it rather than taking it for what it awaits.
func TestDriverStrayMessagePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  wire.Msg
		want string
	}{
		{"grant of another lock", wire.Msg{Kind: wire.LockGrant, Lock: 1}, "unexpected LockGrant"},
		{"barrier go", wire.Msg{Kind: wire.BarrierGo}, "unexpected BarrierGo"},
		{"object reply", wire.Msg{Kind: wire.ObjReply}, "unexpected ObjReply"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, locator.ForwardingPointer, 2, 0, 1)
			lock := w.sp.AddLock(1)
			w.sp.AddLock(1)
			w.script(step{name: "waiting for the grant of lock 0", on: recv,
				sent: []string{"LockReq>1"}, want: objState{Cache: "none", Hint: 1},
				then: func(w *world) Token { return Token{Msg: tc.msg} }})
			defer func() {
				if r := fmt.Sprint(recover()); !strings.Contains(r, tc.want) {
					t.Fatalf("recovered %q, want %q", r, tc.want)
				}
			}()
			w.d.Acquire(lock)
			t.Fatal("Acquire returned")
		})
	}
}
