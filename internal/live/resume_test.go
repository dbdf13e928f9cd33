package live

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/live/transport/tcp"
	"repro/internal/memory"
	"repro/internal/proto"
)

// tcpPair is two engines, one node each (Config.LocalNode), over one
// loopback socket, declared alike, as cluster members are. A link
// failure aborts the engine on its side. Where a cluster's control round
// would, each Run's finish waits until both engines' workers are done and
// no frame is in flight on either side.
type tcpPair struct {
	cs      [2]*Cluster
	trs     [2]*tcp.Transport
	arrived atomic.Int32 // engines whose workers are done
	done    [2]chan error
}

// pairPlane is one engine's transport: the data plane, and the pair's
// finish.
type pairPlane struct {
	dataPlane
	p *tcpPair
}

// FinishRun implements Finisher: the sum of the two in-flight counters is
// the pair's, zero exactly when nothing is in flight. An abort on either
// side ends the wait; Run reports its own.
func (pp pairPlane) FinishRun(*proto.Space, func() int64) error {
	p := pp.p
	p.arrived.Add(1)
	for p.arrived.Load() < 2 || p.cs[0].inflight.Load()+p.cs[1].inflight.Load() != 0 {
		if p.cs[0].aborted.Load() || p.cs[1].aborted.Load() {
			return nil
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

// newTCPPair connects the two engines; declare lays out each.
func newTCPPair(t *testing.T, declare func(c *Cluster)) *tcpPair {
	p := &tcpPair{done: [2]chan error{make(chan error, 1), make(chan error, 1)}}
	conns := [2]net.Conn{}
	conns[0], conns[1] = socketPair(t)
	for id := range p.cs {
		pair := make([]net.Conn, 2)
		pair[1-id] = conns[id]
		p.trs[id] = tcp.New(memory.NodeID(id), pair, tcp.Options{OnFatal: func(err error) { p.cs[id].Abort(err) }})
		local := memory.NodeID(id)
		cfg := paperConfig(2)
		cfg.Transport = pairPlane{dataPlane{p.trs[id]}, p}
		cfg.LocalNode = &local
		p.cs[id] = New(cfg)
		declare(p.cs[id])
	}
	return p
}

// start runs ws on both engines.
func (p *tcpPair) start(ws []proto.Worker) {
	for id, c := range p.cs {
		go func() {
			_, err := c.Run(ws)
			p.done[id] <- err
		}()
	}
}

// wait returns both Runs' errors, failing the test when either is still
// running 10 s on — after aborting both, so that parked threads unwind.
func (p *tcpPair) wait(t *testing.T, what string) [2]error {
	t.Helper()
	var errs [2]error
	deadline := time.After(10 * time.Second)
	for id := range p.cs {
		select {
		case errs[id] = <-p.done[id]:
		case <-deadline:
			for _, c := range p.cs {
				c.Abort(errors.New("test deadline"))
			}
			t.Fatalf("%s: engine %d's Run still blocked after 10s", what, id)
		}
	}
	return errs
}

// close tears both transports down.
func (p *tcpPair) close() {
	for _, tr := range p.trs {
		tr.MarkShutdown()
	}
	for _, tr := range p.trs {
		tr.Close()
	}
}

// TestReaderRunsTheThreadItWakes: a reply runs its thread. Node 1's
// worker takes lock turns on a lock managed, and an object homed, on node
// 0. Each grant reaches node 1 on its reader from node 0, whose batch-end
// hook resumes the worker there; the requests the worker sends next are
// queued without waking node 1's writer and leave in that reader's flush.
// So every frame node 1 sends node 0 but the first — sent from the
// worker's home goroutine as it starts — leaves relayed, as a run on an
// idle host shows (4002 of 4003). The bound asks for three in four: on an
// oversubscribed host a reader's flush can find the link's write side
// held by a descheduled writer goroutine and leave its frames to it (3702
// of 4003 seen with two CPU-bound processes beside the test on 2 vCPUs).
// Node 0's thread waits at a barrier for the worker to finish.
func TestReaderRunsTheThreadItWakes(t *testing.T) {
	const turns = 2000
	var l proto.LockID
	var b proto.BarrierID
	p := newTCPPair(t, func(c *Cluster) {
		c.AddObject(1, 0)
		l = c.AddLock(0)
		b = c.AddBarrier(0, 2)
	})
	defer p.close()
	p.start([]proto.Worker{
		{Node: 0, Name: "waiter", Fn: func(th proto.Thread) { th.Barrier(b) }},
		{Node: 1, Name: "worker", Fn: func(th proto.Thread) {
			for i := 0; i < turns; i++ {
				th.Acquire(l)
				th.Write(0, 0, th.Read(0, 0)+1)
				th.Release(l)
			}
			th.Barrier(b)
		}},
	})
	for id, err := range p.wait(t, "lock turns") {
		if err != nil {
			t.Fatalf("engine %d: %v", id, err)
		}
	}
	ps, _ := p.trs[1].PeerStats(0)
	if ps.FramesSent < 2*turns || ps.Relayed < ps.FramesSent*3/4 {
		t.Fatalf("node 1 → node 0: %+v: want at least %d frames, three in four of them relayed", ps, 2*turns)
	}
}

// TestLentThreadHandsTheReaderBack: a thread that stops parking gives a
// reader's goroutine back within lendBudget. Node 1's worker takes turns
// on lock l, managed on its own node, writing an object homed there too,
// as in TestAbortMidTrafficFoldsCleanly: once the grant that node 0's
// release of l sent has resumed it on the reader from node 0, it needs no
// frame and would not park again. Node 0's worker follows each turn on l
// with one on a second lock of node 1's, so its next request for l
// leaves after a round trip, not beside the release: it comes while the
// lend is under way and would lie unread on the reader the lent thread
// holds. Handed back, the reader takes it, and node 0's worker finishes
// its turns.
func TestLentThreadHandsTheReaderBack(t *testing.T) {
	const turns = 200
	var l, spacer proto.LockID
	p := newTCPPair(t, func(c *Cluster) {
		c.AddObject(1, 1)
		l, spacer = c.AddLock(1), c.AddLock(1)
	})
	defer p.close()
	var stop atomic.Bool
	defer stop.Store(true) // on failure, before close: the reader may be lent still
	p.start([]proto.Worker{
		{Node: 0, Name: "remote", Fn: func(th proto.Thread) {
			for i := 0; i < turns; i++ {
				th.Acquire(l)
				th.Release(l)
				th.Acquire(spacer)
				th.Release(spacer)
			}
			stop.Store(true)
		}},
		{Node: 1, Name: "local", Fn: func(th proto.Thread) {
			for !stop.Load() {
				th.Acquire(l)
				th.Write(0, 0, th.Read(0, 0)+1)
				th.Release(l)
			}
		}},
	})
	for id, err := range p.wait(t, "remote turns behind a thread that stopped parking") {
		if err != nil {
			t.Fatalf("engine %d: %v", id, err)
		}
	}
}

// TestAbortWhileOnReader: an abort reaches a thread that runs on a
// reader's goroutine. Node 1's worker aborts its own engine once a grant
// has resumed it on the reader; its next wait finds the mailbox closed
// and unwinds there, and Run returns ErrAborted.
func TestAbortWhileOnReader(t *testing.T) {
	var l proto.LockID
	p := newTCPPair(t, func(c *Cluster) {
		c.AddObject(1, 0)
		l = c.AddLock(0)
	})
	defer p.close()
	boom := errors.New("aborted on a reader")
	var lent atomic.Bool
	p.start([]proto.Worker{{Node: 1, Name: "worker", Fn: func(pt proto.Thread) {
		th := pt.(*Thread)
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			th.Acquire(l)
			if th.lent {
				lent.Store(true)
				p.cs[1].Abort(boom)
			}
			th.Release(l)
		}
	}}})
	errs := p.wait(t, "Abort on a reader")
	if !lent.Load() {
		t.Fatal("no grant resumed the worker on a reader within 5s")
	}
	if !errors.Is(errs[1], boom) || !errors.Is(errs[1], ErrAborted) {
		t.Fatalf("node 1's Run returned %v, want an ErrAborted wrap of %v", errs[1], boom)
	}
}
