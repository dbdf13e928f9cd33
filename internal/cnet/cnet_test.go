package cnet

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hockney"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
)

func testNet(n int) (*sim.Env, *Network, *stats.Counters) {
	env := sim.NewEnv()
	var c stats.Counters
	nw := New(env, Config{Model: hockney.FastEthernet(), DebugCheck: true}, n, &c)
	return env, nw, &c
}

func TestDeliveryWithLatency(t *testing.T) {
	env, nw, _ := testNet(2)
	msg := wire.Msg{Kind: wire.ObjReq, From: 0, To: 1, Obj: 7}
	var arrived sim.Time
	env.Spawn("recv", func(p *sim.Proc) {
		m := (*nw.Inbox(1).Recv(p).(*wire.Msg))
		arrived = p.Now()
		if m.Obj != 7 {
			t.Errorf("payload mangled: %+v", m)
		}
	})
	env.Spawn("send", func(p *sim.Proc) {
		nw.Send(&msg, stats.ObjReq)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := hockney.FastEthernet().Time(msg.WireSize())
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
}

func TestFIFOPerPairEvenWithMixedSizes(t *testing.T) {
	// Like TCP, a small message must NOT overtake a large one sent
	// earlier between the same pair — the DSM protocol relies on
	// release/acquire ordering (e.g. LockRel before the next LockReq).
	env, nw, _ := testNet(2)
	big := wire.Msg{Kind: wire.ObjReply, From: 0, To: 1, Data: make([]uint64, 4096)}
	small := wire.Msg{Kind: wire.ObjReq, From: 0, To: 1}
	var order []wire.Kind
	env.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			order = append(order, (*nw.Inbox(1).Recv(p).(*wire.Msg)).Kind)
		}
	})
	env.Spawn("send", func(p *sim.Proc) {
		nw.Send(&big, stats.ObjReply)
		nw.Send(&small, stats.ObjReq)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != wire.ObjReply || order[1] != wire.ObjReq {
		t.Fatalf("order = %v, want send order preserved", order)
	}
}

func TestDifferentPairsCanOvertake(t *testing.T) {
	// FIFO is per pair only: traffic to another destination is unaffected
	// by a large transfer elsewhere.
	env, nw, _ := testNet(3)
	var bigAt, smallAt sim.Time
	env.Spawn("recv1", func(p *sim.Proc) {
		nw.Inbox(1).Recv(p)
		bigAt = p.Now()
	})
	env.Spawn("recv2", func(p *sim.Proc) {
		nw.Inbox(2).Recv(p)
		smallAt = p.Now()
	})
	env.Spawn("send", func(p *sim.Proc) {
		nw.Send(&wire.Msg{Kind: wire.ObjReply, From: 0, To: 1, Data: make([]uint64, 65536)}, stats.ObjReply)
		nw.Send(&wire.Msg{Kind: wire.ObjReq, From: 0, To: 2}, stats.ObjReq)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if smallAt >= bigAt {
		t.Fatalf("small to n2 at %v not before big to n1 at %v", smallAt, bigAt)
	}
}

func TestStatsRecorded(t *testing.T) {
	env, nw, c := testNet(2)
	msg := wire.Msg{Kind: wire.DiffMsg, From: 1, To: 0}
	env.Spawn("recv", func(p *sim.Proc) { nw.Inbox(0).Recv(p) })
	env.Spawn("send", func(p *sim.Proc) { nw.Send(&msg, stats.Diff) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Msgs[stats.Diff] != 1 {
		t.Fatalf("diff msgs = %d", c.Msgs[stats.Diff])
	}
	if c.Bytes[stats.Diff] != int64(msg.WireSize()) {
		t.Fatalf("diff bytes = %d, want %d", c.Bytes[stats.Diff], msg.WireSize())
	}
	if nw.sent != 1 {
		t.Fatalf("sent = %d", nw.sent)
	}
}

func TestSameNodeSendPanics(t *testing.T) {
	env, nw, _ := testNet(2)
	env.Spawn("bad", func(p *sim.Proc) {
		nw.Send(&wire.Msg{Kind: wire.ObjReq, From: 1, To: 1}, stats.ObjReq)
	})
	if err := env.Run(); err == nil {
		t.Fatal("same-node send did not fail the run")
	}
}

func TestInvalidDestinationPanics(t *testing.T) {
	env, nw, _ := testNet(2)
	env.Spawn("bad", func(p *sim.Proc) {
		nw.Send(&wire.Msg{Kind: wire.ObjReq, From: 0, To: 9}, stats.ObjReq)
	})
	if err := env.Run(); err == nil {
		t.Fatal("invalid destination did not fail the run")
	}
}

// TestDebugCheckComparesTheRoundTrip: DebugCheck passes a message that
// survives the codec whole, where an empty slice decodes as nil, and
// fails the send of one a peer would not decode — pairs on a kind that
// carries none.
func TestDebugCheckComparesTheRoundTrip(t *testing.T) {
	rec := core.Record{TBase: 1.5, Epoch: 2}
	for _, c := range []struct {
		name string
		msg  wire.Msg
		want string // in the failed run's error; "" for a clean run
	}{
		{"Rec on a migrating reply", wire.Msg{Kind: wire.ObjReply, Migrate: true, Rec: &rec, Data: []uint64{7}}, ""},
		{"empty slices", wire.Msg{Kind: wire.LockRel, Data: []uint64{}, Diffs: []wire.ObjDiff{{Obj: 1}}, Pairs: []wire.Pair{}}, ""},
		{"pairs on a kind that carries none", wire.Msg{Kind: wire.ObjReply, Pairs: []wire.Pair{{Obj: 1, Node: 0}}},
			"self-check decode failed for ObjReply"},
	} {
		env, nw, _ := testNet(2)
		c.msg.To = 1
		env.Spawn("recv", func(p *sim.Proc) { nw.Inbox(1).Recv(p) })
		env.Spawn("send", func(p *sim.Proc) { nw.Send(&c.msg, stats.ObjReply) })
		switch err := env.Run(); {
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestFIFOPerPair(t *testing.T) {
	// Equal-size messages between the same pair preserve send order.
	env, nw, _ := testNet(2)
	var seqs []uint32
	env.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			seqs = append(seqs, (*nw.Inbox(1).Recv(p).(*wire.Msg)).Seq)
		}
	})
	env.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			nw.Send(&wire.Msg{Kind: wire.ObjReq, From: 0, To: 1, Seq: uint32(i)}, stats.ObjReq)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, s := range seqs {
		if s != uint32(i) {
			t.Fatalf("seqs = %v, want FIFO", seqs)
		}
	}
}
