package proto

import (
	"slices"
	"testing"

	"repro/internal/flight"
	"repro/internal/locator"
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
			home.PinView(w.obj)
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

// A fault-in at a home copy with write views open is served from the
// snapshot the first pin took, kept current with remote diffs: the view
// holder's writes, made without the node lock and owed to nobody before
// it synchronizes, are not in it; a diff applied since is. Once the last
// pin clears, the copy itself is served.
func TestPinnedHomeServesSnapshot(t *testing.T) {
	w := newWorld(t, locator.ForwardingPointer, 3, 0, 1)
	home := w.sp.Nodes[1]
	serve := func() []uint64 {
		home.Handle(wire.Msg{Kind: wire.ObjReq, From: 0, To: 1, Obj: w.obj, ReplyNode: 0})
		return w.wire[len(w.wire)-1].Data
	}
	home.PinView(w.obj)
	home.PinView(w.obj)
	home.Cache[w.obj].Data[1] = 6 // a view holder's write
	home.Handle(wire.Msg{Kind: wire.DiffMsg, From: 2, To: 1, Obj: w.obj,
		Diff: twindiff.OneRun(2, 7), Home: 2, ReplyNode: 2})
	for pins := 2; pins >= 0; pins-- {
		want := []uint64{5, 0, 7, 0}
		if pins == 0 {
			want[1] = 6
		}
		if got := serve(); !slices.Equal(got, want) {
			t.Errorf("%d pins: served %v, want %v", pins, got, want)
		}
		if pins > 0 {
			home.UnpinView(w.obj)
		}
	}
}
