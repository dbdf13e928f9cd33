package proto

import (
	"slices"
	"testing"

	"repro/internal/flight"
	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/twindiff"
	"repro/internal/wire"
)

// The two reasons the protocol gives itself rather than the policy: the
// pin veto at a fault-in and Jiajia's reassignment at a barrier. Both
// run on the step-table world of driver_test.go; node 1 is the home and
// emits the Decision events, the driver on node 0 faults.

// A home copy pinned by a bulk write view stays put even when the policy
// says "migrate": one Decision, Migrated false, reason pinned, with the
// pair the policy compared. Without the pin the same fault-in migrates.
func TestServeFaultPinVetoesMigration(t *testing.T) {
	for _, pinned := range []bool{false, true} {
		w := newWorld(t, locator.ForwardingPointer, 2, 0, 1)
		w.sp.S.Policy = migration.Fixed{T: 1}
		home := w.sp.Nodes[1]
		home.HomeSt[w.obj].RemoteWrite(0, 8) // node 0's run: C = 1 reaches FT1
		if pinned {
			home.PinView(0, w.obj)
		}
		decisions := &logSub{kinds: flight.MaskOf(flight.Decision)}
		home.Subscribe(decisions)

		w.script(step{name: "fault-in at the home", on: recv,
			sent: []string{"ObjReq>1"}, want: objState{Cache: "none", Hint: 1}})
		if v := w.d.Read(w.obj, 0); v != 5 {
			t.Fatalf("pinned=%v: Read = %d, want 5", pinned, v)
		}
		w.done()

		want := flight.Event{
			Kind: flight.Decision, Node: 1, Obj: w.obj, Peer: 0,
			Migrated: true, Reason: migration.ReasonThresholdReached, Count: 1, Limit: 1,
		}
		if pinned {
			want.Migrated, want.Reason = false, migration.ReasonPinned
		}
		if len(decisions.got) != 1 || decisions.got[0] != want {
			t.Fatalf("pinned=%v: decisions %+v, want [%+v]", pinned, decisions.got, want)
		}
		if home.IsHome[w.obj] != pinned || w.n.IsHome[w.obj] == pinned {
			t.Fatalf("pinned=%v: node 1 home %v, node 0 home %v", pinned, home.IsHome[w.obj], w.n.IsHome[w.obj])
		}
		if got := home.Counters.Migrations; (got == 1) == pinned {
			t.Fatalf("pinned=%v: %d migrations counted", pinned, got)
		}
	}
}

// Under Jiajia the barrier manager hands the home of an object only one
// node wrote to that node; the old home's Decision says barrier-reassign.
func TestBarrierReassignDecision(t *testing.T) {
	w := newWorld(t, locator.ForwardingPointer, 2, 0, 1)
	w.sp.S.Policy = migration.Jiajia{}
	bar := w.sp.AddBarrier(1, 1)
	home := w.sp.Nodes[1]
	decisions := &logSub{kinds: flight.MaskOf(flight.Decision)}
	home.Subscribe(decisions)

	w.script(step{name: "fault-in for the write", on: recv,
		sent: []string{"ObjReq>1"}, want: objState{Cache: "none", Hint: 1}})
	w.d.Write(w.obj, 0, 7)
	w.script(
		step{name: "diff to the home", on: recv,
			sent: []string{"Diff>1"}, want: objState{Cache: "RO", Hint: 1, Outstanding: true}},
		step{name: "arrival with the write report", on: recv,
			sent: []string{"BarrierArrive>1"}, want: objState{Cache: "RO", Hint: 1}},
	)
	w.d.Barrier(bar)
	w.done()

	// The fault-in is the policy's to decide and Jiajia never migrates
	// there; the barrier is where the home moves.
	want := []flight.Event{
		{Kind: flight.Decision, Node: 1, Obj: w.obj, Peer: 0, Reason: migration.ReasonNeverMigrates},
		{Kind: flight.Decision, Node: 1, Obj: w.obj, Peer: 0, Migrated: true, Reason: migration.ReasonBarrierReassign},
	}
	if !slices.Equal(decisions.got, want) {
		t.Fatalf("decisions %+v, want %+v", decisions.got, want)
	}
	if home.IsHome[w.obj] || !w.n.IsHome[w.obj] {
		t.Fatalf("node 1 home %v, node 0 home %v: want the home on node 0", home.IsHome[w.obj], w.n.IsHome[w.obj])
	}
}

// A fault-in for a home object that local threads hold write views on
// is routable only while every holder is inside the DSM: a holder
// outside may be writing its view, and the serve reads the home copy
// itself. Diffs route regardless. Once routed, the reply is the home copy
// as it stands — a holder's write and a remote diff applied meanwhile
// included — and the pin still vetoes the migration the policy asks
// for; unpinned, the same fault-in routes with the threads out, and
// migrates.
func TestViewedHomeServedWithHoldersIn(t *testing.T) {
	w := newWorld(t, locator.ForwardingPointer, 3, 0, 1)
	w.sp.S.Policy = migration.Fixed{T: 1}
	home := w.sp.Nodes[1]
	req := wire.Msg{Kind: wire.ObjReq, From: 2, To: 1, Obj: w.obj, ReplyNode: 2}
	diff := wire.Msg{Kind: wire.DiffMsg, From: 2, To: 1, Obj: w.obj,
		Diff: twindiff.OneRun(2, 7), Home: 2, ReplyNode: 2}
	home.PinView(0, w.obj)
	home.PinView(1, w.obj)
	home.Cache[w.obj].Data[1] = 6 // a holder's write
	for _, st := range []struct {
		name  string
		set   func()
		route bool
	}{
		{"both holders out", func() { home.Leave(0); home.Leave(1) }, false},
		{"holder 0 in, holder 1 out", func() { home.Enter(0) }, false},
		{"holder 0 out, holder 1 in", func() { home.Leave(0); home.Enter(1) }, false},
		{"both holders in", func() { home.Enter(0) }, true},
	} {
		st.set()
		if got := home.CanRoute(&req); got != st.route {
			t.Errorf("%s: fault-in routable %v, want %v", st.name, got, st.route)
		}
		if !home.CanRoute(&diff) {
			t.Errorf("%s: diff not routable", st.name)
		}
	}

	home.Handle(diff) // node 2's run: C = 1 reaches FT1
	home.Handle(req)
	reply := w.wire[len(w.wire)-1]
	if reply.Kind != wire.ObjReply || reply.Migrate || !home.IsHome[w.obj] {
		t.Fatalf("pinned: served %v (migrate %v), home kept %v: want a plain reply, home kept",
			reply.Kind, reply.Migrate, home.IsHome[w.obj])
	}
	if want := []uint64{5, 6, 7, 0}; !slices.Equal(reply.Data, want) {
		t.Errorf("served %v, want the home copy %v", reply.Data, want)
	}

	home.Leave(0)
	home.Leave(1)
	home.UnpinViews(0)
	if home.CanRoute(&req) {
		t.Error("holder 1 out with its view: fault-in routable")
	}
	home.UnpinViews(1)
	if !home.CanRoute(&req) {
		t.Error("no views, threads out: fault-in not routable")
	}
	home.Handle(req)
	if reply := w.wire[len(w.wire)-1]; !reply.Migrate || home.IsHome[w.obj] {
		t.Errorf("unpinned: reply migrates %v, home kept %v: want the home to move", reply.Migrate, home.IsHome[w.obj])
	}
}

// The view pin's own bookkeeping, on a home with two objects and two
// local thread slots: a pin is kept once however often the slot repeats
// it, an unpinned object is no longer viewed and a new pin holds it
// again, and a fault-in for an object two slots view waits while either
// holder is out.
func TestPinViewTable(t *testing.T) {
	const obj, other = 1, 0
	for _, tc := range []struct {
		name  string
		run   func(n *Node)
		objs  [][]memory.ObjectID // each slot's pins, in pin order
		held  bool                // obj is viewed
		route bool                // a fault-in for obj is routable
	}{
		{"a repeated pin keeps one entry", func(n *Node) {
			n.PinView(0, obj)
			n.PinView(0, obj)
			n.PinView(0, other)
			n.PinView(0, obj)
		}, [][]memory.ObjectID{{obj, other}}, true, true},
		{"a holder out vetoes the fault-in", func(n *Node) {
			n.PinView(0, obj)
			n.Leave(0)
		}, [][]memory.ObjectID{{obj}}, true, false},
		{"unpinned, the object is no longer viewed", func(n *Node) {
			n.PinView(0, obj)
			n.PinView(0, other)
			n.Leave(0)
			n.UnpinViews(0)
		}, [][]memory.ObjectID{nil}, false, true},
		{"a new pin after unpin holds again", func(n *Node) {
			n.PinView(0, obj)
			n.UnpinViews(0)
			n.PinView(0, obj)
			n.Leave(0)
		}, [][]memory.ObjectID{{obj}}, true, false},
		{"two holders, slot 0 out", func(n *Node) {
			n.PinView(0, obj)
			n.PinView(1, obj)
			n.Leave(0)
		}, [][]memory.ObjectID{{obj}, {obj}}, true, false},
		{"two holders, slot 1 out", func(n *Node) {
			n.PinView(0, obj)
			n.PinView(1, obj)
			n.Leave(1)
		}, [][]memory.ObjectID{{obj}, {obj}}, true, false},
		{"two holders, both back in", func(n *Node) {
			n.PinView(0, obj)
			n.PinView(1, obj)
			n.Leave(0)
			n.Leave(1)
			n.Enter(0)
			n.Enter(1)
		}, [][]memory.ObjectID{{obj}, {obj}}, true, true},
		{"two holders, the one out unpinned", func(n *Node) {
			n.PinView(0, obj)
			n.PinView(1, obj)
			n.Leave(0)
			n.UnpinViews(0)
		}, [][]memory.ObjectID{nil, {obj}}, true, true},
	} {
		w := newWorld(t, locator.ForwardingPointer, 3, obj, 1)
		home := w.sp.Nodes[1]
		tc.run(home)
		for slot, want := range tc.objs {
			if got := home.views[slot].objs; !slices.Equal(got, want) {
				t.Errorf("%s: slot %d pins %v, want %v", tc.name, slot, got, want)
			}
		}
		if held, _ := home.viewed(obj); held != tc.held {
			t.Errorf("%s: object viewed %v, want %v", tc.name, held, tc.held)
		}
		req := wire.Msg{Kind: wire.ObjReq, From: 2, To: 1, Obj: obj, ReplyNode: 2}
		if got := home.CanRoute(&req); got != tc.route {
			t.Errorf("%s: fault-in routable %v, want %v", tc.name, got, tc.route)
		}
	}
}
