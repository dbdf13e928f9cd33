package proto

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/hockney"
	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/wire"
)

// Node-side step tables on the world of driver_test.go: each named step
// plays protocol traffic through the real handlers, then asserts every
// node's whole view of the object as a text grid, one row per node:
//
//	node  home  state  dirty  copyset  hint  fwd
//
// state is the local copy's access state ("none": no copy), copyset the
// home's list of sharers, hint the locator's belief, fwd the forwarding
// pointer ("-": none).

// grid renders the nodes' view of w.obj.
func (w *world) grid() string {
	id := func(n memory.NodeID) string {
		if n == memory.NoNode {
			return "-"
		}
		return fmt.Sprint(n)
	}
	yes := map[bool]string{true: "yes", false: "no"}
	var b strings.Builder
	b.WriteString("node home state dirty copyset hint fwd\n")
	for _, n := range w.sp.Nodes {
		state, dirty := "none", "-"
		if o := n.Cache[w.obj]; o != nil {
			state, dirty = o.State.String(), yes[o.Dirty]
		}
		cs := make([]string, len(n.Copyset[w.obj]))
		for i, s := range n.Copyset[w.obj] {
			cs[i] = id(s)
		}
		fmt.Fprintf(&b, "%d %s %s %s {%s} %s %s\n", n.ID, yes[n.IsHome[w.obj]], state, dirty,
			strings.Join(cs, ","), id(n.Loc.Hint(w.obj)), id(n.Loc.Forward(w.obj)))
	}
	return b.String()
}

// sameGrid compares two grids cell by cell, whatever the spacing.
func sameGrid(got, want string) bool {
	rows := func(s string) [][]string {
		var out [][]string
		for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
			out = append(out, strings.Fields(line))
		}
		return out
	}
	return slices.EqualFunc(rows(got), rows(want), slices.Equal)
}

// faultIn plays a fault-in of w.obj by node from: the request is served by
// home's real handler, and the reply is installed at from.
func (w *world) faultIn(from, home memory.NodeID) {
	w.sp.Nodes[home].Handle(wire.Msg{Kind: wire.ObjReq, From: from, To: home, Obj: w.obj, ReplyNode: from})
	reply := w.wire[len(w.wire)-1]
	w.wire = w.wire[:len(w.wire)-1]
	w.sp.Nodes[from].Install(reply)
}

// nodeStep is one step of a node-side table.
type nodeStep struct {
	name string
	do   func()
	grid string
}

// walk plays the steps in order, checking the grid after each.
func (w *world) walk(steps []nodeStep) {
	w.t.Helper()
	for _, st := range steps {
		st.do()
		if got := w.grid(); !sameGrid(got, st.grid) {
			w.t.Fatalf("after %q:\n%s\nwant:\n%s", st.name, got, strings.TrimSpace(st.grid))
		}
	}
}

// The copyset is what Jackal's exclusive-owner rule reads: a served
// fault-in adds the requester once, a remote diff leaves only its writer,
// and the sharers a fault-in is told about are the copyset without the
// requester.
func TestCopysetFeedsJackal(t *testing.T) {
	w := newWorld(t, locator.ForwardingPointer, 3, 0, 0)
	home, n2 := w.sp.Nodes[0], w.sp.Nodes[2]
	decisions := &logSub{kinds: flight.MaskOf(flight.Decision)}
	home.Subscribe(decisions)

	w.walk([]nodeStep{
		{"node 1 faults in", func() { w.faultIn(1, 0) }, `
			node home state dirty copyset hint fwd
			0    yes  RO    no    {1}     0    -
			1    no   RO    no    {}      0    -
			2    no   none  -     {}      0    -
		`},
		{"node 2 faults in", func() { w.faultIn(2, 0) }, `
			node home state dirty copyset hint fwd
			0    yes  RO    no    {1,2}   0    -
			1    no   RO    no    {}      0    -
			2    no   RO    no    {}      0    -
		`},
		{"node 1 faults in again under Jackal: node 2 shares, no migration", func() {
			w.sp.S.Policy = migration.Jackal{Max: 5}
			w.faultIn(1, 0)
		}, `
			node home state dirty copyset hint fwd
			0    yes  RO    no    {1,2}   0    -
			1    no   RO    no    {}      0    -
			2    no   RO    no    {}      0    -
		`},
		{"node 2 writes", func() {
			o, _ := n2.WriteCheck(w.obj)
			o.Data[1] = 9
		}, `
			node home state dirty copyset hint fwd
			0    yes  RO    no    {1,2}   0    -
			1    no   RO    no    {}      0    -
			2    no   RW    yes   {}      0    -
		`},
		{"node 2 acquires a nested lock: the unflushed copy survives", n2.BeginInterval, `
			node home state dirty copyset hint fwd
			0    yes  RO    no    {1,2}   0    -
			1    no   RO    no    {}      0    -
			2    no   RW    yes   {}      0    -
		`},
		{"node 2 flushes; its diff leaves node 2 the only sharer", func() {
			sends, _ := n2.FlushCollect(memory.NoNode, nil)
			n2.SendDiff(0, w.obj, sends[0].D)
			w.deliverNext()
			w.hold(wire.DiffAck)
		}, `
			node home state dirty copyset hint fwd
			0    yes  RO    no    {2}     0    -
			1    no   RO    no    {}      0    -
			2    no   RO    no    {}      0    -
		`},
		{"node 2 acquires and faults in: the exclusive owner, the home moves", func() {
			n2.BeginInterval()
			w.faultIn(2, 0)
		}, `
			node home state dirty copyset hint fwd
			0    no   RO    no    {}      2    2
			1    no   RO    no    {}      0    -
			2    yes  INV   no    {}      2    -
		`},
	})

	want := []flight.Event{
		{Kind: flight.Decision, Obj: w.obj, Peer: 1, Reason: migration.ReasonNeverMigrates},
		{Kind: flight.Decision, Obj: w.obj, Peer: 2, Reason: migration.ReasonNeverMigrates},
		{Kind: flight.Decision, Obj: w.obj, Peer: 1, Reason: migration.ReasonSharersExist, Count: 1, Limit: 5},
		{Kind: flight.Decision, Obj: w.obj, Peer: 2, Migrated: true, Reason: migration.ReasonExclusiveOwner, Limit: 5},
	}
	if !slices.Equal(decisions.got, want) {
		t.Fatalf("decisions %+v,\nwant %+v", decisions.got, want)
	}
	if v := n2.Cache[w.obj].Data[1]; v != 9 {
		t.Fatalf("the new home's copy holds %d, want node 2's 9", v)
	}
}

// The Jiajia manager reassigns an object only when one report named it in
// the episode: reports are counted, not writers, so two threads of one
// node reporting an object block its reassignment like two nodes do. The
// assignments go out in object order, and every release clears the tally.
func TestJiajiaManagerCountsReports(t *testing.T) {
	w := newWorld(t, locator.ForwardingPointer, 3, 3, 0) // objects 0–3, homed at node 0
	w.sp.S.Policy = migration.Jiajia{}
	bar := w.sp.AddBarrier(0, 3)
	mgr := w.sp.Nodes[0]
	type arrival struct {
		node  memory.NodeID
		slot  int32
		wrote []memory.ObjectID
	}
	for _, ep := range []struct {
		name     string
		arrivals []arrival
		want     []wire.Pair
	}{
		{"nodes 1 and 2 both write object 0: no reassignment",
			[]arrival{{1, 0, []memory.ObjectID{0}}, {2, 0, []memory.ObjectID{0}}, {1, 1, nil}}, nil},
		{"two threads of node 1 each report object 1: no reassignment",
			[]arrival{{1, 0, []memory.ObjectID{1}}, {2, 0, nil}, {1, 1, []memory.ObjectID{1}}}, nil},
		{"three single-writer objects, reported out of order, move in one go in object order",
			[]arrival{{2, 0, []memory.ObjectID{3, 1}}, {1, 0, []memory.ObjectID{2}}, {1, 1, nil}},
			[]wire.Pair{{Obj: 1, Node: 2}, {Obj: 2, Node: 1}, {Obj: 3, Node: 2}}},
		{"the next episode starts from an empty tally",
			[]arrival{{1, 0, []memory.ObjectID{0}}, {2, 0, nil}, {1, 1, nil}},
			[]wire.Pair{{Obj: 0, Node: 1}}},
	} {
		for _, a := range ep.arrivals {
			var reports []wire.Pair
			for _, obj := range a.wrote {
				reports = append(reports, wire.Pair{Obj: obj, Node: a.node})
			}
			mgr.Handle(wire.Msg{Kind: wire.BarrierArrive, From: a.node, To: 0, Barrier: uint32(bar),
				ReplyNode: a.node, ReplySlot: a.slot, Pairs: reports})
		}
		gos := w.hold(wire.BarrierGo)
		if got := frames(gos); !slices.Equal(got, []string{"BarrierGo>1", "BarrierGo>2"}) {
			t.Fatalf("%s: the manager sent %v", ep.name, got)
		}
		for _, g := range gos {
			if !slices.Equal(g.Pairs, ep.want) {
				t.Fatalf("%s: go to node %d assigns %+v, want %+v", ep.name, g.To, g.Pairs, ep.want)
			}
		}
		for _, a := range ep.want {
			if mgr.IsHome[a.Obj] {
				t.Fatalf("%s: the manager kept the home of object %d it reassigned", ep.name, a.Obj)
			}
		}
	}
}

// evenOnly is a barrier policy that moves only even objects, and records
// every candidate it is asked about.
type evenOnly struct {
	migration.NoHM
	asked *[]wire.Pair
}

func (p evenOnly) Reassign(obj memory.ObjectID, writer memory.NodeID) bool {
	*p.asked = append(*p.asked, wire.Pair{Obj: obj, Node: writer})
	return obj%2 == 0
}

// Which candidates move is the barrier policy's rule: the manager asks it
// once about each object exactly one report named, with the reporter, in
// object order, and the go carries the ones it accepts.
func TestBarrierPolicyPicksAmongCandidates(t *testing.T) {
	w := newWorld(t, locator.ForwardingPointer, 3, 5, 0) // objects 0–5, homed at node 0
	var asked []wire.Pair
	w.sp.S.Policy = evenOnly{asked: &asked}
	bar := w.sp.AddBarrier(0, 3)
	mgr := w.sp.Nodes[0]
	type arrival struct {
		node  memory.NodeID
		slot  int32
		wrote []memory.ObjectID
	}
	for _, ep := range []struct {
		name        string
		arrivals    []arrival
		asked, want []wire.Pair
	}{
		{"object 2 reported twice is no candidate; of the others the even ones move",
			[]arrival{{2, 0, []memory.ObjectID{5, 1, 2}}, {1, 0, []memory.ObjectID{4, 0, 2}}, {1, 1, []memory.ObjectID{3}}},
			[]wire.Pair{{Obj: 0, Node: 1}, {Obj: 1, Node: 2}, {Obj: 3, Node: 1}, {Obj: 4, Node: 1}, {Obj: 5, Node: 2}},
			[]wire.Pair{{Obj: 0, Node: 1}, {Obj: 4, Node: 1}}},
		{"the next episode asks about its own candidates only",
			[]arrival{{2, 0, []memory.ObjectID{2}}, {1, 0, []memory.ObjectID{3}}, {1, 1, nil}},
			[]wire.Pair{{Obj: 2, Node: 2}, {Obj: 3, Node: 1}},
			[]wire.Pair{{Obj: 2, Node: 2}}},
	} {
		asked = asked[:0]
		for _, a := range ep.arrivals {
			var reports []wire.Pair
			for _, obj := range a.wrote {
				reports = append(reports, wire.Pair{Obj: obj, Node: a.node})
			}
			mgr.Handle(wire.Msg{Kind: wire.BarrierArrive, From: a.node, To: 0, Barrier: uint32(bar),
				ReplyNode: a.node, ReplySlot: a.slot, Pairs: reports})
		}
		if !slices.Equal(asked, ep.asked) {
			t.Fatalf("%s: the policy was asked about %+v, want %+v", ep.name, asked, ep.asked)
		}
		gos := w.hold(wire.BarrierGo)
		if got := frames(gos); !slices.Equal(got, []string{"BarrierGo>1", "BarrierGo>2"}) {
			t.Fatalf("%s: the manager sent %v", ep.name, got)
		}
		for _, g := range gos {
			if !slices.Equal(g.Pairs, ep.want) {
				t.Fatalf("%s: go to node %d assigns %+v, want %+v", ep.name, g.To, g.Pairs, ep.want)
			}
		}
	}
	for obj, home := range mgr.IsHome {
		if moved := obj == 0 || obj == 2 || obj == 4; home == moved {
			t.Errorf("the manager is home of object %d: %v", obj, home)
		}
	}
}

// Write reports are a barrier policy's: without one a write is not
// noted, the arrival carries no pairs and the home stays; with Jiajia
// the same run reports the write and the home moves to the writer.
func TestOnlyABarrierPolicyCollectsReports(t *testing.T) {
	for _, pol := range []migration.Policy{migration.NoHM{}, migration.Jiajia{}} {
		_, barrier := pol.(migration.BarrierPolicy)
		w := newWorld(t, locator.ForwardingPointer, 2, 0, 1)
		w.sp.S.Policy = pol
		bar := w.sp.AddBarrier(1, 1)
		var noted []memory.ObjectID
		var reports []wire.Pair
		if barrier {
			noted, reports = []memory.ObjectID{w.obj}, []wire.Pair{{Obj: w.obj, Node: 0}}
		}

		w.script(step{name: "fault-in for the write", on: recv,
			sent: []string{"ObjReq>1"}, want: objState{Cache: "none", Hint: 1}})
		w.d.Write(w.obj, 0, 7)
		if !slices.Equal(w.n.MyWrites, noted) {
			t.Fatalf("%s: after the write MyWrites = %v, want %v", pol.Name(), w.n.MyWrites, noted)
		}
		w.script(
			step{name: "diff to the home", on: recv,
				sent: []string{"Diff>1"}, want: objState{Cache: "RO", Hint: 1, Outstanding: true}},
			step{name: "arrival", on: recv,
				sent: []string{"BarrierArrive>1"}, want: objState{Cache: "RO", Hint: 1},
				check: func(w *world) {
					if got := w.sent[0].Pairs; !slices.Equal(got, reports) {
						t.Fatalf("%s: the arrival reports %+v, want %+v", pol.Name(), got, reports)
					}
				}},
		)
		w.d.Barrier(bar)
		w.done()
		if w.n.IsHome[w.obj] != barrier {
			t.Fatalf("%s: node 0 home %v after the barrier, want %v", pol.Name(), w.n.IsHome[w.obj], barrier)
		}
	}
}

// TestSlotsAreMadeAtTheFirstInstall: declaring objects makes no slots —
// a cluster member declares every node and keeps one — and a node's first
// install or promote makes them, leaving the copies and states AddObject
// declared at first homes where they are.
func TestSlotsAreMadeAtTheFirstInstall(t *testing.T) {
	sh := DefaultShared(2, hockney.FastEthernet().Alpha)
	sp := NewSpace(&sh)
	for i := range 2 {
		sp.NewNode(memory.NodeID(i))
	}
	for id := range 6 {
		sp.AddObject(1+id, memory.NodeID(id%2))
	}
	n := sp.Nodes[1]
	if n.objs != nil || n.states != nil {
		t.Fatal("declaring objects made slots")
	}
	declared, declaredSt := n.Cache[1], n.HomeSt[1]
	n.Install(wire.Msg{Kind: wire.ObjReply, Obj: 0, Home: 0, Data: []uint64{100}})
	n.Install(wire.Msg{Kind: wire.ObjReply, Obj: 2, Home: 1, Data: []uint64{102, 0, 0},
		Migrate: true, Rec: &core.Record{Epoch: 3, TBase: 2}})
	if o := n.Cache[0]; o != &n.objs[0] || o.Data[0] != 100 || o.State != memory.ReadOnly {
		t.Fatalf("copy of 0 = %+v, not its slot", *o)
	}
	if st := n.HomeSt[2]; n.Cache[2] != &n.objs[2] || n.Cache[2].Data[0] != 102 || st != &n.states[2] || !n.IsHome[2] || st.Epoch != 3 {
		t.Fatalf("home of 2 = %v, not its slot", st)
	}
	if n.Cache[1] != declared || n.HomeSt[1] != declaredSt || len(n.objs) != 6 || len(n.states) != 6 {
		t.Fatalf("the first install moved a declared home or sized %d/%d slots for 6 objects", len(n.objs), len(n.states))
	}
}
