//dsm:wallclock the layer probes time batches of calls into each layer's exported functions

package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/hockney"
	"repro/internal/live/transport"
	"repro/internal/live/transport/tcp"
	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/twindiff"
	"repro/internal/wire"
)

// The probes time each layer from outside, one exported call per op, on
// the message shapes the workloads put through it: the lock kernel's
// small request, SOR's 256-word row reply, and SOR's worst-case sparse
// diff (alternating words, so run encoding saves nothing). A probe
// process runs at GOMAXPROCS=1.

const (
	probeBatches = 5
	rowWords     = sorSize
)

// prober sizes batches and takes the median of their per-op times.
type prober struct {
	batch time.Duration // target length of one timed batch
	out   map[string]float64
}

// time reports the median ns/op of probeBatches batches of run.
func (p *prober) time(run func(n int)) float64 {
	n := 1
	for {
		s := time.Now()
		run(n)
		if d := time.Since(s); d >= p.batch/2 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	per := make([]float64, probeBatches)
	for i := range per {
		s := time.Now()
		run(n)
		per[i] = float64(time.Since(s)) / float64(n)
	}
	sort.Float64s(per)
	return per[probeBatches/2]
}

// allocs reports heap allocations per op as a whole number: the count
// over 1000 ops, warmed first, rounded down like testing.AllocsPerRun.
func allocs(run func(n int)) float64 {
	const ops = 1000
	run(ops)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(ops)
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / ops)
}

func runProbes(quick bool) (map[string]float64, error) {
	p := &prober{batch: 20 * time.Millisecond, out: map[string]float64{}}
	if quick {
		p.batch = 200 * time.Microsecond
	}
	p.wire()
	p.twindiff()
	p.chanloop()
	p.proto()
	if err := p.tcp(); err != nil {
		return nil, err
	}
	return p.out, nil
}

func rowData() []uint64 {
	d := make([]uint64, rowWords)
	for i := range d {
		d[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	return d
}

// sparseDiff changes every second word of a row: one run per word.
func sparseDiff() twindiff.Diff {
	twin := rowData()
	cur := rowData()
	for i := 1; i < len(cur); i += 2 {
		cur[i]++
	}
	return twindiff.Compute(twin, cur)
}

func smallMsg() wire.Msg {
	return wire.Msg{Kind: wire.LockReq, From: 1, To: 0, Lock: 1, ReplyNode: 1, ReplySlot: 0}
}

func rowMsg() wire.Msg {
	return wire.Msg{Kind: wire.ObjReply, From: 0, To: 1, Obj: 7, ReplyNode: 1, Home: 0, Data: rowData()}
}

func diffMsg() wire.Msg {
	return wire.Msg{Kind: wire.DiffMsg, From: 1, To: 0, Obj: 7, Home: 1, ReplyNode: 1, Diff: sparseDiff()}
}

var sinkMsg wire.Msg // keeps decode results alive

func (p *prober) wire() {
	for _, c := range []struct {
		name string
		msg  wire.Msg
	}{{"small", smallMsg()}, {"row", rowMsg()}, {"diff", diffMsg()}} {
		msg := c.msg
		buf := make([]byte, 0, msg.WireSize())
		p.out["wire.encode_"+c.name+"_ns"] = p.time(func(n int) {
			for i := 0; i < n; i++ {
				buf = msg.Encode(buf[:0])
			}
		})
		frame := msg.Encode(nil)
		decode := func(n int) {
			for i := 0; i < n; i++ {
				m, err := wire.Decode(frame)
				if err != nil {
					panic(err)
				}
				sinkMsg = m
			}
		}
		p.out["wire.decode_"+c.name+"_ns"] = p.time(decode)
		p.out["wire.decode_"+c.name+"_allocs"] = allocs(decode)
	}
}

var sinkDiff twindiff.Diff

func (p *prober) twindiff() {
	var pool twindiff.Pool
	twin := rowData()
	sparse, dense := rowData(), rowData()
	for i := range dense {
		if i%2 == 1 {
			sparse[i]++
		}
		dense[i]++
	}
	p.out["twindiff.twin_ns"] = p.time(func(n int) {
		for i := 0; i < n; i++ {
			pool.PutWords(twindiff.TwinInto(&pool, twin))
		}
	})
	// Computed through the pool and returned to it, as proto's flush does
	// once the diff is acknowledged.
	computeSparse := func(n int) {
		for i := 0; i < n; i++ {
			pool.PutDiff(twindiff.ComputeInto(&pool, twin, sparse))
		}
	}
	p.out["twindiff.compute_sparse_ns"] = p.time(computeSparse)
	p.out["twindiff.compute_sparse_allocs"] = allocs(computeSparse)
	p.out["twindiff.compute_dense_ns"] = p.time(func(n int) {
		for i := 0; i < n; i++ {
			pool.PutDiff(twindiff.ComputeInto(&pool, twin, dense))
		}
	})
	d := twindiff.Compute(twin, sparse)
	dst := rowData()
	p.out["twindiff.apply_sparse_ns"] = p.time(func(n int) {
		for i := 0; i < n; i++ {
			d.Apply(dst)
		}
	})
	// The odd words merged with the even words: 256 one-word runs in, one
	// 256-word run out.
	even := rowData()
	for i := 0; i < len(even); i += 2 {
		even[i]++
	}
	e := twindiff.Compute(twin, even)
	p.out["twindiff.merge_ns"] = p.time(func(n int) {
		for i := 0; i < n; i++ {
			sinkDiff = twindiff.Merge(d, e)
		}
	})
}

// chanloop times Send then Recv through the Transport interface on one
// goroutine: the queue's cost without a wake-up.
func (p *prober) chanloop() {
	var tr transport.Transport = transport.NewChanLoop(2)
	defer tr.Close()
	msg := smallMsg()
	hop := func(n int) {
		for i := 0; i < n; i++ {
			tr.Send(1, msg.Encode(transport.GetFrame()))
			frame, _ := tr.Recv(1)
			transport.PutFrame(frame)
		}
	}
	p.out["transport.chanloop_hop_ns"] = p.time(hop)
	p.out["transport.chanloop_hop_allocs"] = allocs(hop)
}

// stubEngine is the capturing proto.Engine the handler probes drive a
// node with: it keeps the last message a handler sent.
type stubEngine struct {
	last wire.Msg
	sent int
}

func (e *stubEngine) Send(msg wire.Msg, _ stats.Category)      { e.last, e.sent = msg, e.sent+1 }
func (e *stubEngine) ToThread(_ int32, msg wire.Msg)           { e.last, e.sent = msg, e.sent+1 }
func (e *stubEngine) Broadcast(msg wire.Msg, _ stats.Category) { e.last, e.sent = msg, e.sent+1 }

// probeSpace builds a 4-node protocol space on stub engines with one row
// object, one lock and one barrier, all at node 0.
func probeSpace(policy migration.Policy, params core.Params) (*proto.Space, []*stubEngine, memory.ObjectID, proto.LockID, proto.BarrierID) {
	sp := proto.NewSpace(&proto.Shared{
		Nodes: clusterNodes, Policy: policy, Locator: locator.ForwardingPointer,
		Params: params, Piggyback: true,
	})
	engs := make([]*stubEngine, clusterNodes)
	for i := range engs {
		engs[i] = &stubEngine{}
		n := sp.NewNode(memory.NodeID(i))
		n.Eng = engs[i]
		n.Counters = &stats.Counters{}
	}
	obj := sp.AddObject(rowWords, 0)
	return sp, engs, obj, sp.AddLock(0), sp.AddBarrier(0, clusterNodes)
}

var sinkBool bool

func (p *prober) proto() {
	params := core.DefaultParams(hockney.FastEthernet().Alpha)
	record := func(name string, run func(n int)) {
		p.out["proto."+name+"_ns"] = p.time(run)
		p.out["proto."+name+"_allocs"] = allocs(run)
	}

	sp, _, obj, lock, bar := probeSpace(migration.NoHM{}, params)
	home := sp.Nodes[0]
	req := wire.Msg{Kind: wire.ObjReq, From: 1, To: 0, Obj: obj, ReplyNode: 1, ReplySlot: 0}
	record("handle_objreq", func(n int) {
		for i := 0; i < n; i++ {
			home.Handle(req)
		}
	})
	diff := diffMsg()
	diff.Obj = obj
	record("handle_diff", func(n int) {
		for i := 0; i < n; i++ {
			home.Handle(diff)
		}
	})
	// One op is a round at the manager: a request granted, then released.
	lockReq := wire.Msg{Kind: wire.LockReq, From: 1, To: 0, Lock: uint32(lock), ReplyNode: 1, ReplySlot: 0}
	lockRel := wire.Msg{Kind: wire.LockRel, From: 1, To: 0, Lock: uint32(lock)}
	record("handle_lock", func(n int) {
		for i := 0; i < n; i++ {
			home.Handle(lockReq)
			home.Handle(lockRel)
		}
	})
	// One op is an episode: three remote arrivals and the manager's own,
	// which releases the barrier with three go messages.
	record("handle_barrier", func(n int) {
		for i := 0; i < n; i++ {
			for from := clusterNodes - 1; from >= 0; from-- {
				home.Handle(wire.Msg{
					Kind: wire.BarrierArrive, From: memory.NodeID(from), To: 0,
					Barrier: uint32(bar), ReplyNode: memory.NodeID(from), ReplySlot: 0,
				})
			}
		}
	})

	// A fault-in that carries the home: under JUMP every request
	// migrates, so the object bounces between nodes 0 and 1. One op is
	// the serve at the old home plus the install at the new one.
	sp, engs, obj, _, _ := probeSpace(migration.JUMP{}, params)
	cur := memory.NodeID(0)
	record("handle_objreq_migrate", func(n int) {
		for i := 0; i < n; i++ {
			next := 1 - cur
			sp.Nodes[cur].Handle(wire.Msg{Kind: wire.ObjReq, From: next, To: cur, Obj: obj, ReplyNode: next, ReplySlot: 0})
			sp.Nodes[next].Install(engs[cur].last)
			cur = next
		}
	})

	pol := migration.Adaptive{P: params}
	st := core.NewState(params, 8*rowWords)
	st.RemoteWrite(1, 1024)
	st.RemoteWrite(1, 1024)
	p.out["migration.decide_ns"] = p.time(func(n int) {
		for i := 0; i < n; i++ {
			sinkBool = pol.ShouldMigrate(st, 1, 0)
		}
	})
}

// tcp times the loopback TCP transport between two tcp.Transport
// endpoints of one connection: ping-pong for the hop, a one-way train
// of 64 frames for the burst rate.
func (p *prober) tcp() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	c0, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	c1, ok := <-accepted
	if !ok {
		c0.Close()
		return fmt.Errorf("tcp probe: accept failed")
	}
	fatal := func(err error) { panic(fmt.Sprintf("tcp probe: %v", err)) }
	a := tcp.New(0, []net.Conn{nil, c1}, tcp.Options{OnFatal: fatal})
	b := tcp.New(1, []net.Conn{c0, nil}, tcp.Options{OnFatal: fatal})
	defer func() {
		a.MarkShutdown()
		b.MarkShutdown()
		a.Close()
		b.Close()
	}()

	// Node 1 echoes every frame but those of kind dropKind, the body of a
	// one-way train.
	const dropKind = wire.LockRel
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			frame, ok := b.Recv(1)
			if !ok {
				return
			}
			if wire.Kind(frame[0]) == dropKind {
				transport.PutFrame(frame)
			} else {
				b.Send(0, frame)
			}
		}
	}()
	defer func() {
		b.CloseData()
		<-echoDone
	}()

	pingPong := func(msg wire.Msg) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				a.Send(1, msg.Encode(transport.GetFrame()))
				frame, ok := a.Recv(0)
				if !ok {
					panic("tcp probe: transport closed")
				}
				transport.PutFrame(frame)
			}
		}
	}
	small := smallMsg()
	p.out["tcp.hop_small_ns"] = p.time(pingPong(small)) / 2
	p.out["tcp.hop_allocs"] = allocs(pingPong(small)) // per round trip: a whole number
	p.out["tcp.hop_row_ns"] = p.time(pingPong(rowMsg())) / 2

	const train = 64
	drop := small
	drop.Kind = dropKind
	perTrain := p.time(func(n int) {
		for i := 0; i < n; i++ {
			for f := 0; f < train-1; f++ {
				a.Send(1, drop.Encode(transport.GetFrame()))
			}
			a.Send(1, small.Encode(transport.GetFrame()))
			frame, ok := a.Recv(0)
			if !ok {
				panic("tcp probe: transport closed")
			}
			transport.PutFrame(frame)
		}
	})
	p.out["tcp.burst_frames_per_s"] = train * 1e9 / perTrain

	p.out["tcp.overhead_bytes_per_frame"] = linkOverhead(a, float64(small.WireSize()), pingPong(small))
	return nil
}

// linkOverhead reports the wire bytes a frame costs beyond its payload,
// from the link counters across a batch of small pings.
func linkOverhead(a *tcp.Transport, payload float64, ping func(n int)) float64 {
	const n = 256
	before, _ := a.PeerStats(1)
	ping(n)
	// The writer counts a frame after the write returns, which can trail
	// the echo's arrival; let it settle.
	var after tcp.PeerStats
	for i := 0; i < 1000; i++ {
		after, _ = a.PeerStats(1)
		if after.FramesSent-before.FramesSent >= n {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	frames := float64(after.FramesSent - before.FramesSent)
	if frames == 0 {
		return 0
	}
	return float64(after.BytesSent-before.BytesSent)/frames - payload
}
