package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/live/transport"
	"repro/internal/live/transport/faulty"
	"repro/internal/live/transport/tcp"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/wire"
)

// dataPlane is how a cluster member presents its TCP transport to the
// engine: Close ends frame delivery and leaves the connections to their
// owner. Embedding keeps the transport's sink.
type dataPlane struct{ *tcp.Transport }

func (d dataPlane) Close() { d.CloseData() }

// socketPair returns the two ends of one loopback TCP connection.
func socketPair(t *testing.T) (a, b net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if a, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if b, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// tally is every message sent across a tallyLoop, decoded.
type tally struct {
	mu   sync.Mutex
	sent []wire.Msg
}

// tallyLoop records into its tally what crosses the ChanLoop it
// decorates. Embedding keeps the ChanLoop's push hooks, as the
// benchmark's tracing decorators do.
type tallyLoop struct {
	*transport.ChanLoop
	*tally
}

func (d tallyLoop) Send(to memory.NodeID, frame []byte) {
	var msg wire.Msg
	_ = msg.Decode(frame) // the engine's own frames; verifyTransport checks the codec
	d.mu.Lock()
	d.sent = append(d.sent, msg)
	d.mu.Unlock()
	d.ChanLoop.Send(to, frame)
}

// TestParkedFrameHandledAtUnlock: a frame CanRoute rejects stays at its
// node, decoded, and is handled exactly once — at the node.unlock that
// follows the state change making it routable, parked frames in arrival
// order — with one FrameRecv each, the in-flight count back at zero and
// no frame sent back into the transport. Node 2 injects fault-ins for
// two objects homed at node 1 into node 0, which neither homes them nor
// has a pointer for them; node 0's thread then gives it the pointers.
func TestParkedFrameHandledAtUnlock(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(tr transport.Deliverer) transport.Pusher
	}{
		{"PushedByChanLoop", func(tr transport.Deliverer) transport.Pusher { return tr }},
		{"PushedByFaulty", func(tr transport.Deliverer) transport.Pusher { return faulty.Wrap(tr, 3, faulty.Options{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := &tally{}
			cfg := DefaultConfig(3)
			cfg.Policy = migration.NoHM{}
			cfg.FlightCap = 256
			tr := tc.wrap(tallyLoop{transport.NewChanLoop(3), l})
			cfg.Transport = tr
			c := New(cfg)
			objs := []memory.ObjectID{c.AddObject(1, 1), c.AddObject(1, 1)}
			n0 := c.nodes[0]
			parked := func() int {
				n0.mu.Lock()
				defer n0.unlock()
				return len(n0.parked)
			}
			ws := []proto.Worker{
				{Node: 0, Name: "fixer", Fn: func(pt proto.Thread) {
					th := pt.(*Thread)
					for deadline := time.Now().Add(5 * time.Second); parked() < len(objs); {
						if time.Now().After(deadline) {
							c.Abort(fmt.Errorf("%d frames parked, want %d", parked(), len(objs)))
							return
						}
						time.Sleep(50 * time.Microsecond)
					}
					th.Lock()
					for _, obj := range objs {
						n0.ps.Loc.SetForward(obj, 1)
					}
					th.Unlock()
					if k := parked(); k != 0 {
						c.Abort(fmt.Errorf("%d frames still parked after the unlock that made them routable", k))
					}
				}},
				{Node: 2, Name: "injector", Fn: func(proto.Thread) {
					c.inflight.Add(int64(len(objs)))
					for i, obj := range objs {
						msg := wire.Msg{Kind: wire.ObjReq, From: 2, To: 0, Obj: obj, ReplyNode: 2, ReplySlot: 0, Seq: uint32(i + 1)}
						tr.Send(0, msg.Encode(transport.GetFrame()))
					}
					if d, ok := tr.(transport.Deliverer); ok {
						d.Deliver(0)
					}
				}},
			}
			done := make(chan error, 1)
			go func() {
				_, err := c.Run(ws)
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run still blocked 10s after the frames became routable")
			}
			if n := c.inflight.Load(); n != 0 {
				t.Errorf("in-flight count %d after Run, want 0", n)
			}
			recv := 0
			for _, ev := range c.FlightEvents() {
				if ev.Node == 0 && ev.Kind == flight.FrameRecv && ev.Tag == uint8(wire.ObjReq) {
					recv++
				}
			}
			if recv != len(objs) {
				t.Errorf("node 0 recorded %d FrameRecv for the fault-ins, want %d", recv, len(objs))
			}
			var to0 int
			var forwarded []memory.ObjectID
			for _, m := range l.sent {
				switch {
				case m.To == 0:
					to0++
				case m.To == 1 && m.Kind == wire.ObjReq:
					forwarded = append(forwarded, m.Obj)
				}
			}
			if to0 != len(objs) {
				t.Errorf("%d frames sent to node 0, want the %d injected: a parked frame re-entered the transport", to0, len(objs))
			}
			if !slices.Equal(forwarded, objs) {
				t.Errorf("node 0 forwarded fault-ins for %v, want %v in arrival order", forwarded, objs)
			}
		})
	}
}

// TestPumpYieldsToWaitingThread: a goroutine delivering at node.unlock
// must get back to its own thread even while the frames it delivers keep
// coming back. Node 2's thread scripts the window a migration leaves
// behind: under its lock it points node 0 at node 2 and itself at node 0
// — a forwarding cycle with no home on it, as while a migrating reply
// waits in the new home's mailbox — sends a fault-in into the cycle and
// puts that reply (a token) in its own mailbox. Its Recv releases the
// lock and delivers: the fault-in circles 0 → 2 → 0 for as long as the
// delivering goroutine keeps draining, and only the thread, once it has
// taken the token, can break the cycle (the install; here, pointing
// itself at node 1, the home). A claim that drained until the inbox
// stayed empty never returned to the thread.
func TestPumpYieldsToWaitingThread(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Policy = migration.NoHM{}
	c := New(cfg)
	obj := c.AddObject(1, 1)
	ws := []proto.Worker{{Node: 2, Name: "pump", Fn: func(pt proto.Thread) {
		th := pt.(*Thread)
		n0, n2 := c.nodes[0], c.nodes[2]
		th.Lock()
		n0.mu.Lock()
		n0.ps.Loc.SetForward(obj, 2)
		n0.mu.Unlock()
		n2.ps.Loc.SetForward(obj, 0)
		n2.Send(wire.Msg{Kind: wire.ObjReq, From: 2, To: 0, Obj: obj, ReplyNode: 2, ReplySlot: 0, Seq: 1}, stats.ObjReq)
		th.mbox.put(proto.Token{})
		var tok proto.Token
		th.Recv(&tok) // delivers the fault-in, then takes the token
		n2.ps.Loc.SetForward(obj, 1)
		th.Recv(&tok)
		th.Unlock()
		if tok.Msg.Kind != wire.ObjReply || tok.Msg.Home != 1 {
			c.Abort(fmt.Errorf("thread got %v from node %d, want the ObjReply of home 1", tok.Msg.Kind, tok.Msg.Home))
		}
	}}}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(ws)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		c.Abort(errors.New("deadline"))
		<-done
		t.Fatal("the thread never got its token back: its goroutine is still delivering the fault-in around the cycle")
	}
}

// TestPeerGarbageAbortsRun: what a peer puts on the wire cannot take the
// process down. Bytes that are not a protocol frame, and well-formed
// frames that name an object, a lock, a thread slot or a piggybacked-diff
// object the layout does not have (a handler would index past a table
// with them), each end the run with an attributed ErrProtocol abort — on
// the TCP reader, on the goroutine delivering at ChanLoop's hook, on the
// fault injector's delivery line — and never panic. The worker is
// parked on a grant that never comes (node 1 is the raw peer, or holds
// the lock itself), so Run returning at all is the abort unwinding it.
func TestPeerGarbageAbortsRun(t *testing.T) {
	junk := make([]byte, 40)
	for i := range junk {
		junk[i] = 0xFF
	}
	// The layout below: one object, lock 0 managed by node 1 and lock 1 by
	// node 0, one thread on node 0.
	from1 := func(m wire.Msg) []byte {
		m.From, m.To, m.ReplyNode = 1, 0, 1
		return m.Encode(nil)
	}
	frames := []struct {
		name  string
		frame []byte
		want  []string // what the abort cause must name
	}{
		{"Undecodable", junk, []string{"40-byte frame", "kind byte 0xff"}},
		{"ObjectOutOfRange", from1(wire.Msg{Kind: wire.ObjReq, Obj: 1 << 20}),
			[]string{"node 0 received ObjReq from node 1", "Obj 1048576"}},
		{"UnknownLock", from1(wire.Msg{Kind: wire.LockReq, Lock: 9999}),
			[]string{"node 0 received LockReq from node 1", "Lock 9999"}},
		{"ReplySlotOutOfRange", from1(wire.Msg{Kind: wire.LockGrant, ReplySlot: 7}),
			[]string{"node 0 received LockGrant from node 1", "ReplySlot 7"}},
		{"PiggybackedDiffObjectOutOfRange", from1(wire.Msg{Kind: wire.LockRel, Lock: 1, Diffs: []wire.ObjDiff{{Obj: 0}, {Obj: 5}}}),
			[]string{"node 0 received LockRel from node 1", "piggybacked diff Obj 5"}},
	}
	for _, tc := range []struct {
		name string
		// start returns the engine's transport and what puts a frame in
		// front of node 0 mid-run.
		start func(t *testing.T, abort func(error)) (transport.Pusher, func(frame []byte))
		// remote: node 1 is the test's raw socket; the engine runs node 0
		// only.
		remote bool
	}{
		{name: "PushedByTCPReader", remote: true, start: func(t *testing.T, abort func(error)) (transport.Pusher, func([]byte)) {
			local, raw := socketPair(t)
			tr := tcp.New(0, []net.Conn{nil, local}, tcp.Options{OnFatal: abort})
			t.Cleanup(func() {
				tr.MarkShutdown()
				raw.Close()
				tr.Close()
			})
			return dataPlane{tr}, func(frame []byte) {
				// One well-framed channel-0 frame: length, channel, zero stamp.
				framed := binary.LittleEndian.AppendUint32(nil, uint32(len(frame)))
				framed = append(append(framed, make([]byte, 13)...), frame...)
				if _, err := raw.Write(framed); err != nil {
					t.Error(err)
				}
			}
		}},
		{name: "PushedByChanLoop", start: func(t *testing.T, abort func(error)) (transport.Pusher, func([]byte)) {
			tr := transport.NewChanLoop(2)
			return tr, func(frame []byte) {
				tr.Send(0, append(transport.GetFrame(), frame...))
				tr.Deliver(0) // the engine's rule: deliver holding nothing
			}
		}},
		{name: "PushedByFaulty", start: func(t *testing.T, abort func(error)) (transport.Pusher, func([]byte)) {
			tr := faulty.Wrap(transport.NewChanLoop(2), 2, faulty.Options{})
			return tr, func(frame []byte) { tr.Send(0, append(transport.GetFrame(), frame...)) } // a line delivers it
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, fr := range frames {
				t.Run(fr.name, func(t *testing.T) {
					var c *Cluster
					cfg := DefaultConfig(2)
					cfg.FlightCap = 64
					tr, send := tc.start(t, func(err error) { c.Abort(err) })
					cfg.Transport = tr
					if tc.remote {
						cfg.LocalNode = new(memory.NodeID)
					}
					c = New(cfg)
					c.AddObject(1, 0)
					l := c.AddLock(1)
					c.AddLock(0)
					held, parked, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
					ws := []proto.Worker{{Node: 0, Name: "waiter", Fn: func(th proto.Thread) {
						<-held
						close(parked)
						th.Acquire(l)
					}}}
					if tc.remote {
						close(held)
					} else {
						ws = append(ws, proto.Worker{Node: 1, Name: "holder", Fn: func(th proto.Thread) {
							th.Acquire(l)
							close(held)
							<-release
						}})
					}
					done := make(chan error, 1)
					go func() {
						_, err := c.Run(ws)
						done <- err
					}()
					<-parked
					time.Sleep(2 * time.Millisecond) // let the waiter park in Acquire
					send(fr.frame)
					close(release) // the holder is not parked in the protocol: let it return
					select {
					case err := <-done:
						if !errors.Is(err, ErrProtocol) || !errors.Is(err, ErrAborted) {
							t.Fatalf("Run returned %v, want an ErrProtocol and ErrAborted wrap", err)
						}
						for _, want := range fr.want {
							if !strings.Contains(err.Error(), want) {
								t.Errorf("abort cause %q does not name %q", err, want)
							}
						}
					case <-time.After(10 * time.Second):
						t.Fatal("Run still blocked 10s after the bad frame")
					}
					aborts := 0
					for _, ev := range c.FlightEvents() {
						if ev.Kind == flight.Abort {
							aborts++
						}
					}
					if aborts != 1 {
						t.Fatalf("flight ring holds %d Abort events, want 1", aborts)
					}
				})
			}
		})
	}
}

// TestAbortMidTrafficFoldsCleanly: on a pushing backend the goroutines
// that run the protocol handlers are the transport's, not the engine's,
// so when a run aborts one may still be inside a handler while Run sums
// the node counters. Two engines, one node each (Config.LocalNode), hand
// a lock back and forth over a loopback socket and are aborted
// mid-traffic, fifty times; under -race the fold must not race the
// straggler. Both are given both workers, as cluster members are: each
// must keep its own node's protocol state and thread, under the global
// thread id, and nothing of the other's.
func TestAbortMidTrafficFoldsCleanly(t *testing.T) {
	for round := 0; round < 50; round++ {
		p := newTCPPair(t, func(c *Cluster) {
			c.AddObject(1, 0)
			c.AddLock(1)
		})
		// A worker on the lock's node that also came to home the object
		// needs no frame for its turn and would never park where the abort
		// unwinds it: it leaves between turns once the plug is pulled.
		var stop atomic.Bool
		var ws []proto.Worker
		for id := range p.cs {
			ws = append(ws, proto.Worker{Node: memory.NodeID(id), Name: fmt.Sprintf("w%d", id), Fn: func(th proto.Thread) {
				if th.ID() != id || th.Node() != memory.NodeID(id) {
					t.Errorf("worker %d runs as thread %d on node %d", id, th.ID(), th.Node())
				}
				for !stop.Load() {
					th.Acquire(0)
					th.Write(0, 0, th.Read(0, 0)+1)
					th.Release(0)
				}
			}})
		}
		p.start(ws)
		for deadline := time.Now().Add(10 * time.Second); p.trs[0].DataRecv() < 200 || p.trs[1].DataRecv() < 200; {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: no traffic to abort", round)
			}
			time.Sleep(50 * time.Microsecond)
		}
		boom := errors.New("pulled the plug")
		p.cs[0].Abort(boom)
		p.cs[1].Abort(boom)
		stop.Store(true)
		for id, err := range p.wait(t, fmt.Sprintf("round %d: Abort", round)) {
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("round %d: engine %d's Run returned %v, want an ErrAborted wrap", round, id, err)
			}
		}
		p.close()
		for id, c := range p.cs {
			if len(c.nodes) != 1 || c.nodes[0].ps.ID != memory.NodeID(id) || len(c.nodes[0].threads) != 1 {
				t.Fatalf("round %d: engine %d runs %d nodes, want node %d with one thread", round, id, len(c.nodes), id)
			}
			if c.Space.Nodes[id] != c.nodes[0].ps || c.Space.Nodes[1-id] != nil {
				t.Fatalf("round %d: engine %d still holds node %d's protocol state", round, id, 1-id)
			}
		}
	}
}
