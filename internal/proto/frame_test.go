package proto

import (
	"strings"
	"testing"

	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/twindiff"
	"repro/internal/wire"
)

// TestCheckFrame walks CheckFrame over a 3-node layout of two objects,
// two locks (0 managed by node 0, 1 by node 1) and two barriers (0 by
// node 0, 1 by node 2), as node 0 running two threads sees it. Each kind
// has a frame its handler can subscript with, which must pass, and one
// mutation per field the handler reads, which must be named. The handlers
// themselves are not run: what the check promises them is that no id in
// an accepted frame indexes past a table.
func TestCheckFrame(t *testing.T) {
	w := newWorld(t, locator.Manager, 3, 1, 1)
	w.sp.AddLock(0)
	w.sp.AddLock(1)
	w.sp.AddBarrier(0, 2)
	w.sp.AddBarrier(2, 2)
	const threads = 2
	hdr := func(k wire.Kind) wire.Msg {
		return wire.Msg{Kind: k, From: 1, To: 0, Obj: 1, ReplyNode: 1, ReplySlot: 0, Home: 2}
	}
	type mutation struct {
		field  string
		mutate func(*wire.Msg)
	}
	obj := mutation{"Obj 2", func(m *wire.Msg) { m.Obj = 2 }}
	home := mutation{"Home 3", func(m *wire.Msg) { m.Home = 3 }}
	noHome := mutation{"Home -1", func(m *wire.Msg) { m.Home = memory.NoNode }}
	replyNode := mutation{"ReplyNode -1", func(m *wire.Msg) { m.ReplyNode = memory.NoNode }}
	negSlot := mutation{"ReplySlot -1", func(m *wire.Msg) { m.ReplySlot = -1 }}
	ownSlot := mutation{"ReplySlot 2", func(m *wire.Msg) { m.ReplyNode, m.ReplySlot = 0, threads }}
	slot := mutation{"ReplySlot 2", func(m *wire.Msg) { m.ReplySlot = threads }}
	from := mutation{"From 3", func(m *wire.Msg) { m.From = 3 }}
	for _, tc := range []struct {
		name string
		ok   wire.Msg
		bad  []mutation
	}{
		{"ObjReq", hdr(wire.ObjReq), []mutation{from, obj, replyNode, negSlot, ownSlot}},
		{"ObjReply", func() wire.Msg { m := hdr(wire.ObjReply); m.Data = make([]uint64, 4); return m }(), []mutation{
			obj, home, noHome, negSlot, slot,
			{"Data length 3", func(m *wire.Msg) { m.Data = m.Data[:3] }},
			{"Data length 5", func(m *wire.Msg) { m.Data = make([]uint64, 5) }}}},
		{"Diff", func() wire.Msg { m := hdr(wire.DiffMsg); m.Diff = twindiff.OneRun(3, 9); return m }(), []mutation{
			obj, home, replyNode, ownSlot,
			{"ReplySlot -2", func(m *wire.Msg) { m.ReplySlot = -2 }},
			{"Diff end 5", func(m *wire.Msg) { m.Diff = twindiff.OneRun(4, 9) }}}},
		{"Diff from a sync manager's daemon", func() wire.Msg { m := hdr(wire.DiffMsg); m.ReplySlot = -1; return m }(), nil},
		{"DiffAck to a thread", hdr(wire.DiffAck), []mutation{obj, slot}},
		{"DiffAck resuming lock 0", wire.Msg{Kind: wire.DiffAck, From: 1, ReplySlot: -1, Lock: 1, Obj: 99}, []mutation{
			{"ReplySlot -2", func(m *wire.Msg) { m.ReplySlot = -2 }},
			{"Lock tag 2", func(m *wire.Msg) { m.Lock = 2 }}, // lock 1 is node 1's
			{"Lock tag 3", func(m *wire.Msg) { m.Lock = 3 }},
			{"Barrier tag 0", func(m *wire.Msg) { m.Lock = 0 }},
		}},
		{"DiffAck resuming barrier 0", wire.Msg{Kind: wire.DiffAck, From: 1, ReplySlot: -1, Barrier: 1}, []mutation{
			{"Barrier tag 2", func(m *wire.Msg) { m.Barrier = 2 }}, // barrier 1 is node 2's
			{"Barrier tag 9", func(m *wire.Msg) { m.Barrier = 9 }},
		}},
		{"LockReq", hdr(wire.LockReq), []mutation{replyNode, negSlot, ownSlot,
			{"Lock 1", func(m *wire.Msg) { m.Lock = 1 }}, // a real lock, managed elsewhere
			{"Lock 9999", func(m *wire.Msg) { m.Lock = 9999 }}}},
		{"LockGrant", hdr(wire.LockGrant), []mutation{negSlot, slot,
			{"Lock 2", func(m *wire.Msg) { m.Lock = 2 }}}},
		{"LockGrant of a lock managed elsewhere", func() wire.Msg { m := hdr(wire.LockGrant); m.Lock = 1; return m }(), nil},
		{"LockRel", func() wire.Msg {
			m := hdr(wire.LockRel)
			m.Diffs = []wire.ObjDiff{{Obj: 0}, {Obj: 1, D: twindiff.OneRun(0, 1, 2, 3, 4)}}
			return m
		}(), []mutation{from,
			{"Lock 1", func(m *wire.Msg) { m.Lock = 1 }},
			{"piggybacked diff Obj 7", func(m *wire.Msg) { m.Diffs[1].Obj = 7 }},
			{"piggybacked diff end 6", func(m *wire.Msg) { m.Diffs[0].D = twindiff.OneRun(2, 1, 2, 3, 4) }}}},
		{"BarrierArrive", func() wire.Msg {
			m := hdr(wire.BarrierArrive)
			m.Diffs = []wire.ObjDiff{{Obj: 1}}
			m.Pairs = []wire.Pair{{Obj: 0, Node: 1}, {Obj: 1, Node: 2}}
			return m
		}(), []mutation{replyNode, negSlot,
			{"Barrier 1", func(m *wire.Msg) { m.Barrier = 1 }},
			{"piggybacked diff Obj 2", func(m *wire.Msg) { m.Diffs[0].Obj = 2 }},
			{"report Obj 5", func(m *wire.Msg) { m.Pairs[1].Obj = 5 }},
			{"report Writer 3", func(m *wire.Msg) { m.Pairs[0].Node = 3 }}}},
		{"BarrierGo", func() wire.Msg {
			m := hdr(wire.BarrierGo)
			m.Barrier = 1 // any declared barrier: every node applies the go
			m.Pairs = []wire.Pair{{Obj: 1, Node: 2}}
			return m
		}(), []mutation{
			{"Barrier 2", func(m *wire.Msg) { m.Barrier = 2 }},
			{"assign Obj 2", func(m *wire.Msg) { m.Pairs[0].Obj = 2 }},
			{"assign Home -1", func(m *wire.Msg) { m.Pairs[0].Node = memory.NoNode }}}},
		{"MgrUpdate", hdr(wire.MgrUpdate), []mutation{obj, home, noHome}},
		{"MgrQuery", hdr(wire.MgrQuery), []mutation{obj, replyNode, negSlot}},
		{"MgrReply", hdr(wire.MgrReply), []mutation{obj, home, slot}},
		{"MgrReply knowing no home", func() wire.Msg { m := hdr(wire.MgrReply); m.Home = memory.NoNode; return m }(), nil},
		{"HomeBcast", hdr(wire.HomeBcast), []mutation{obj, home}},
		{"HomeMiss", hdr(wire.HomeMiss), []mutation{obj, home, negSlot}},
		{"HomeMiss without a hint", func() wire.Msg { m := hdr(wire.HomeMiss); m.Home = memory.NoNode; return m }(), nil},
		{"PtrUpdate", hdr(wire.PtrUpdate), []mutation{obj, home, noHome}},
	} {
		if err := w.n.CheckFrame(&tc.ok, threads); err != nil {
			t.Errorf("%s: a frame inside the layout rejected: %v", tc.name, err)
		}
		for _, mu := range tc.bad {
			m := tc.ok
			m.Diffs = append([]wire.ObjDiff(nil), m.Diffs...)
			m.Pairs = append([]wire.Pair(nil), m.Pairs...)
			mu.mutate(&m)
			err := w.n.CheckFrame(&m, threads)
			if err == nil {
				t.Errorf("%s with %s accepted", tc.name, mu.field)
				continue
			}
			for _, want := range []string{m.Kind.String(), mu.field + " is outside the layout"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s with %s: error %q does not name %q", tc.name, mu.field, err, want)
				}
			}
		}
	}
	// Fields a kind's handler does not read are not its business: a lock
	// request carries no object, whatever its Obj bytes say.
	m := hdr(wire.LockReq)
	m.Obj, m.Home, m.Barrier = 1<<20, 77, 1<<30
	if err := w.n.CheckFrame(&m, threads); err != nil {
		t.Errorf("LockReq rejected for fields it does not use: %v", err)
	}
}

// BenchmarkCheckFrame is what the check costs the live receive path per
// frame, over the lock kernel's mix: a few compares against the layout's
// slices, no allocation.
func BenchmarkCheckFrame(b *testing.B) {
	sp := NewSpace(&Shared{Nodes: 3})
	for id := memory.NodeID(0); id < 3; id++ {
		sp.NewNode(id)
	}
	sp.AddObject(4, 1)
	sp.AddLock(0)
	n := sp.Nodes[0]
	msgs := [4]wire.Msg{
		{Kind: wire.LockReq, From: 1, ReplyNode: 1},
		{Kind: wire.LockGrant, From: 1},
		{Kind: wire.LockRel, From: 1},
		{Kind: wire.ObjReq, From: 1, ReplyNode: 1},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := n.CheckFrame(&msgs[i&3], 2); err != nil {
			b.Fatal(err)
		}
	}
}
