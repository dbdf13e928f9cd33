package live

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/live/transport"
	"repro/internal/live/transport/faulty"
	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/oracle"
	"repro/internal/proto"
	"repro/internal/wire"
)

// TestLockedCounter hammers one lock-guarded counter from every node:
// mutual exclusion plus release-visibility must make the final value
// exact, whatever the real scheduler does.
func TestLockedCounter(t *testing.T) {
	const nodes, perThread = 4, 50
	c := New(DefaultConfig(nodes))
	obj := c.AddObject(1, 0)
	l := c.AddLock(0)
	var ws []proto.Worker
	for i := 0; i < nodes; i++ {
		ws = append(ws, proto.Worker{Node: memory.NodeID(i), Name: fmt.Sprintf("t%d", i),
			Fn: func(th proto.Thread) {
				for k := 0; k < perThread; k++ {
					th.Acquire(l)
					th.Write(obj, 0, th.Read(obj, 0)+1)
					th.Release(l)
				}
			}})
	}
	m, err := c.Run(ws)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ObjectData(obj)[0]; got != nodes*perThread {
		t.Fatalf("counter = %d, want %d", got, nodes*perThread)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if m.Wall <= 0 {
		t.Fatalf("wall time not recorded: %v", m.Wall)
	}
	if m.LiveMsgs <= 0 {
		t.Fatalf("no live frames counted")
	}
	if m.LivePeakInbox <= 0 {
		t.Fatalf("inbox peak depth not observed: %d", m.LivePeakInbox)
	}
	if m.LivePeakMailbox <= 0 {
		t.Fatalf("mailbox peak depth not observed: %d", m.LivePeakMailbox)
	}
}

// TestBarrierPhases runs a stencil-style double buffer: each phase every
// thread rewrites its block from the other buffer. Barrier semantics
// must make each phase's reads see the previous phase's writes exactly.
func TestBarrierPhases(t *testing.T) {
	const nodes, phases = 3, 8
	c := New(DefaultConfig(nodes))
	a := c.AddObject(nodes, 0)
	b := c.AddObject(nodes, 1)
	bar := c.AddBarrier(0, nodes)
	bufs := [2]memory.ObjectID{a, b}
	var ws []proto.Worker
	for i := 0; i < nodes; i++ {
		me := i
		ws = append(ws, proto.Worker{Node: memory.NodeID(i), Name: fmt.Sprintf("t%d", i),
			Fn: func(th proto.Thread) {
				for ph := 0; ph < phases; ph++ {
					src, dst := bufs[ph%2], bufs[(ph+1)%2]
					sum := uint64(0)
					for j := 0; j < nodes; j++ {
						sum += th.Read(src, j)
					}
					th.Write(dst, me, sum+uint64(me))
					th.Barrier(bar)
				}
			}})
	}
	if _, err := c.Run(ws); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Model the same computation sequentially.
	model := [2][]uint64{make([]uint64, nodes), make([]uint64, nodes)}
	for ph := 0; ph < phases; ph++ {
		src, dst := model[ph%2], model[(ph+1)%2]
		var sum uint64
		for _, v := range src {
			sum += v
		}
		for i := range dst {
			dst[i] = sum + uint64(i)
		}
	}
	final := [2][]uint64{c.ObjectData(a), c.ObjectData(b)}
	for bi := 0; bi < 2; bi++ {
		for j := 0; j < nodes; j++ {
			if final[bi][j] != model[bi][j] {
				t.Fatalf("buffer %d word %d = %d, want %d", bi, j, final[bi][j], model[bi][j])
			}
		}
	}
}

// TestEveryPolicyAndLocator runs a migratory workload under every
// builtin policy crossed with every locator: results must be identical
// (policy independence) and invariants intact, with the oracle clean.
func TestEveryPolicyAndLocator(t *testing.T) {
	locators := []locator.Kind{locator.ForwardingPointer, locator.Manager, locator.Broadcast}
	var wantDigest uint64
	first := true
	for _, pol := range migration.Builtins(DefaultConfig(3).Params) {
		for _, lc := range locators {
			name := fmt.Sprintf("%s/%s", pol.Name(), lc)
			cfg := DefaultConfig(3)
			cfg.Policy = pol
			cfg.Locator = lc
			rec := flight.NewLog(oracle.Kinds, nil)
			c := New(cfg)
			c.Subscribe(rec)
			obj := c.AddObject(4, 0)
			bar := c.AddBarrier(1, 3)
			var ws []proto.Worker
			for i := 0; i < 3; i++ {
				me := i
				ws = append(ws, proto.Worker{Node: memory.NodeID(i), Name: fmt.Sprintf("t%d", i),
					Fn: func(th proto.Thread) {
						for ph := 0; ph < 6; ph++ {
							if ph%3 == me { // rotating single writer
								for j := 0; j < 4; j++ {
									th.Write(obj, j, uint64(ph*100+me*10+j+1))
								}
							}
							th.Barrier(bar)
						}
					}})
			}
			if _, err := c.Run(ws); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("%s: invariants: %v", name, err)
			}
			if viols := oracle.Check(3, rec.Events, nil); len(viols) > 0 {
				t.Fatalf("%s: oracle: %v", name, viols[0])
			}
			d := c.Digest()
			if first {
				wantDigest, first = d, false
			} else if d != wantDigest {
				t.Fatalf("%s: digest %#x != first run's %#x — results must be policy-independent", name, d, wantDigest)
			}
		}
	}
}

// TestWireBoundary proves every cross-node message really crosses the
// binary codec, even in-process: a verifying transport decodes and
// re-encodes every frame it carries and demands byte identity, so a
// message that bypassed Encode (or a non-canonical encoding) fails the
// run. This is the property that makes a TCP backend a drop-in.
func TestWireBoundary(t *testing.T) {
	cfg := DefaultConfig(3)
	vt := &verifyTransport{ChanLoop: transport.NewChanLoop(3), t: t}
	cfg.Transport = vt
	c := New(cfg)
	obj := c.AddObject(4, 0)
	l := c.AddLock(1)
	bar := c.AddBarrier(2, 3)
	var ws []proto.Worker
	for i := 0; i < 3; i++ {
		ws = append(ws, proto.Worker{Node: memory.NodeID(i), Name: fmt.Sprintf("t%d", i),
			Fn: func(th proto.Thread) {
				for k := 0; k < 5; k++ {
					th.Acquire(l)
					th.Write(obj, k%4, th.Read(obj, k%4)+1)
					th.Release(l)
					th.Barrier(bar)
				}
			}})
	}
	if _, err := c.Run(ws); err != nil {
		t.Fatal(err)
	}
	if n := vt.frames.Load(); n == 0 {
		t.Fatal("no frames crossed the transport")
	}
}

// verifyTransport asserts the codec boundary on every frame. Embedding
// keeps the ChanLoop's push hooks, as the benchmark's tracing decorators
// do.
type verifyTransport struct {
	*transport.ChanLoop
	t      *testing.T
	frames atomic.Int64
}

func (v *verifyTransport) Send(to memory.NodeID, frame []byte) {
	v.frames.Add(1)
	var msg wire.Msg
	if err := msg.Decode(frame); err != nil {
		v.t.Errorf("frame to node %d does not decode: %v", to, err)
	} else if re := msg.Encode(nil); !bytes.Equal(re, frame) {
		v.t.Errorf("frame to node %d is not canonical: %d vs %d bytes", to, len(re), len(frame))
	}
	v.ChanLoop.Send(to, frame)
}

// TestSharedNodeThreads co-locates two threads on one node (scalar
// accesses only) to exercise the same-node lock handoff and the
// diff-boomerang path under real concurrency.
func TestSharedNodeThreads(t *testing.T) {
	c := New(DefaultConfig(2))
	obj := c.AddObject(1, 1)
	l := c.AddLock(0)
	const per = 40
	mk := func(node int) proto.Worker {
		return proto.Worker{Node: memory.NodeID(node), Name: fmt.Sprintf("w%d", node),
			Fn: func(th proto.Thread) {
				for k := 0; k < per; k++ {
					th.Acquire(l)
					th.Write(obj, 0, th.Read(obj, 0)+1)
					th.Release(l)
				}
			}}
	}
	if _, err := c.Run([]proto.Worker{mk(0), mk(0), mk(1)}); err != nil {
		t.Fatal(err)
	}
	if got := c.ObjectData(obj)[0]; got != 3*per {
		t.Fatalf("counter = %d, want %d", got, 3*per)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestRunTwicePanics pins the single-run contract.
func TestRunTwicePanics(t *testing.T) {
	c := New(DefaultConfig(1))
	c.AddObject(1, 0)
	if _, err := c.Run(nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	_, _ = c.Run(nil)
}

// TestBulkViewsUnderMigration drives the WriteView/ReadView path (the
// one the paper's applications use) under the eagerly migrating FT1
// policy: each phase's owner bulk-rewrites the block other nodes then
// bulk-read, so homes chase the writer while views are live. The view
// pin (proto.Node.PinView) must keep mid-view demotes from dropping
// writes; the sequential model pins the result.
func TestBulkViewsUnderMigration(t *testing.T) {
	const nodes, words, phases = 3, 24, 9
	cfg := DefaultConfig(nodes)
	cfg.Policy = migration.Fixed{T: 1}
	c := New(cfg)
	obj := c.AddObject(words, 0)
	bar := c.AddBarrier(0, nodes)
	var ws []proto.Worker
	for i := 0; i < nodes; i++ {
		me := i
		ws = append(ws, proto.Worker{Node: memory.NodeID(i), Name: fmt.Sprintf("t%d", i),
			Fn: func(th proto.Thread) {
				for ph := 0; ph < phases; ph++ {
					if ph%nodes == me {
						row := th.WriteView(obj)
						for j := range row {
							row[j] = row[j]*3 + uint64(ph+j+1)
						}
					}
					th.Barrier(bar)
				}
			}})
	}
	if _, err := c.Run(ws); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	model := make([]uint64, words)
	for ph := 0; ph < phases; ph++ {
		for j := range model {
			model[j] = model[j]*3 + uint64(ph+j+1)
		}
	}
	got := c.ObjectData(obj)
	for j, want := range model {
		if got[j] != want {
			t.Fatalf("word %d = %d, want %d (a mid-view demote dropped writes)", j, got[j], want)
		}
	}
}

// TestAbortUnblocksParkedWorker: a worker parked in a protocol wait
// (here: queued behind a held lock) must unwind when the run aborts,
// and Run must return an error wrapping ErrAborted — a dead cluster
// presents as a bounded failure, never a hang.
func TestAbortUnblocksParkedWorker(t *testing.T) {
	c := New(DefaultConfig(2))
	l := c.AddLock(0)
	hold := make(chan struct{})
	holding := make(chan struct{})
	ws := []proto.Worker{
		{Node: 0, Name: "holder", Fn: func(th proto.Thread) {
			th.Acquire(l)
			close(holding)
			<-hold // keep the lock until the test has aborted the run
			th.Release(l)
		}},
		{Node: 1, Name: "waiter", Fn: func(th proto.Thread) {
			<-holding
			th.Acquire(l) // parks on the grant that will never come
			th.Release(l)
		}},
	}
	boom := errors.New("injected failure")
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(ws)
		done <- err
	}()
	<-holding
	time.Sleep(2 * time.Millisecond) // let the waiter park in Acquire
	c.Abort(boom)
	close(hold)
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("Run returned %v, want an ErrAborted wrap", err)
		}
		if err == nil || !strings.Contains(err.Error(), "injected failure") {
			t.Fatalf("abort cause lost: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked 10s after Abort — parked worker never unwound")
	}
}

// TestFatalSinkAbortsRun: a transport that detects a failure mid-run
// (here: the fault injector killing a node after a fixed frame count)
// must end the run through the engine's FatalSink hook. The workload
// would deadlock without the abort — node 1's lock replies stop
// arriving — so Run returning ErrAborted is the liveness proof.
func TestFatalSinkAbortsRun(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Transport = faulty.Wrap(transport.NewChanLoop(2), 2, faulty.Options{
		Seed:      1,
		KillNode:  1,
		KillAfter: 40,
	})
	c := New(cfg)
	obj := c.AddObject(1, 0)
	l := c.AddLock(1) // lock lives on the node that dies
	mk := func(node int) proto.Worker {
		return proto.Worker{Node: memory.NodeID(node), Name: fmt.Sprintf("w%d", node),
			Fn: func(th proto.Thread) {
				for k := 0; k < 10_000; k++ {
					th.Acquire(l)
					th.Write(obj, 0, th.Read(obj, 0)+1)
					th.Release(l)
				}
			}}
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run([]proto.Worker{mk(0), mk(1)})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("Run returned %v, want an ErrAborted wrap", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run hung after injected peer death")
	}
}
