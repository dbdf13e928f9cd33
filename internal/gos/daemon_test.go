package gos

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/locator"
	"repro/internal/migration"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
)

// The node daemon is two event callbacks, not a process. These tests pin
// what that changes for whoever reads a failed run.

// TestHandlerPanicNamesDaemonKindAndPeer: a frame no handler knows (no
// codec check in the way, so it reaches proto.Node.Handle's last arm)
// fails the run under the daemon's name, with what only the daemon knows
// about the frame it was handling.
func TestHandlerPanicNamesDaemonKindAndPeer(t *testing.T) {
	c := New(DefaultConfig(4)) // DebugWire off: the simulated wire carries anything
	_, err := c.Run([]proto.Worker{{Node: 1, Name: "w", Fn: func(th proto.Thread) {
		c.net.Send(&wire.Msg{Kind: wire.Kind(200), From: 1, To: 2}, stats.ObjReq)
		th.Compute(sim.Millisecond)
	}}})
	var pe *sim.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a sim.PanicError", err)
	}
	if pe.Proc != "daemon-n2 handling Kind(200) from node 1" {
		t.Errorf("PanicError.Proc = %q", pe.Proc)
	}
	if !strings.Contains(err.Error(), "node 2 cannot handle Kind(200)") {
		t.Errorf("the panic is not Handle's last arm:\n%.300s", err.Error())
	}
}

// TestHandlerPanicNamesTheFrameAsItArrived: a handler that rewrites its
// frame before failing — a forwarded fault-in leaves with this node as
// From — still fails the run under the sender the frame arrived from.
// Node 2's forwarding pointer leads back to itself, so the forward is a
// same-node send.
func TestHandlerPanicNamesTheFrameAsItArrived(t *testing.T) {
	c := New(DefaultConfig(4))
	obj := c.AddObject(2, 0)
	c.nodes[2].Loc.SetForward(obj, 2)
	_, err := c.Run([]proto.Worker{{Node: 1, Name: "w", Fn: func(th proto.Thread) {
		c.net.Send(&wire.Msg{Kind: wire.ObjReq, From: 1, To: 2, Obj: obj, ReplyNode: 1}, stats.ObjReq)
		th.Compute(sim.Millisecond)
	}}})
	var pe *sim.PanicError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "same-node send of ObjReq") {
		t.Fatalf("err = %.300v, want the forward's same-node send", err)
	}
	if pe.Proc != "daemon-n2 handling ObjReq from node 1" {
		t.Errorf("PanicError.Proc = %q", pe.Proc)
	}
}

// TestDebugWireFailsAFrameAPeerRejects: under DebugWire a frame a live
// peer would refuse — write-report pairs on a lock release, a kind that
// carries none — fails the run at the send, under the sending thread.
func TestDebugWireFailsAFrameAPeerRejects(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.DebugWire = true
	c := New(cfg)
	_, err := c.Run([]proto.Worker{{Node: 1, Name: "w", Fn: func(th proto.Thread) {
		c.net.Send(&wire.Msg{Kind: wire.LockRel, From: 1, To: 2, Pairs: []wire.Pair{{Obj: 0, Node: 1}}}, stats.LockMsg)
	}}})
	var pe *sim.PanicError
	if !errors.As(err, &pe) || pe.Proc != "w" || !strings.Contains(err.Error(), "self-check decode failed for LockRel") {
		t.Fatalf("err = %.300v, want thread w's panic naming the rejected LockRel", err)
	}
}

// TestDeadlockListsThreadsNotDaemons: a lock-order deadlock between two
// threads is reported as those threads and the master waiting for them.
// An idle daemon is not a stuck process — it always waits for its inbox.
func TestDeadlockListsThreadsNotDaemons(t *testing.T) {
	c := New(testConfig(4, migration.NoHM{}, locator.ForwardingPointer))
	l0, l1 := c.AddLock(0), c.AddLock(3)
	crossed := func(first, second proto.LockID) func(proto.Thread) {
		return func(th proto.Thread) {
			th.Acquire(first)
			th.Compute(sim.Millisecond)
			th.Acquire(second)
		}
	}
	_, err := c.Run([]proto.Worker{
		{Node: 1, Name: "ab", Fn: crossed(l0, l1)},
		{Node: 2, Name: "ba", Fn: crossed(l1, l0)},
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want a sim.DeadlockError", err)
	}
	want := "ab (recv reply-ab), ba (recv reply-ba), master (recv done)"
	if got := strings.Join(dl.Parked, ", "); got != want {
		t.Errorf("parked = %s\nwant     %s", got, want)
	}
}

// TestOnlyThreadsAndMasterAreProcs: the lock kernel on 4 nodes with 3
// workers spawns 4 processes — no node has one — and needs at most 4
// proc activations per counter update (it needed 10.25 with a daemon
// process per node).
func TestOnlyThreadsAndMasterAreProcs(t *testing.T) {
	const turns = 50
	c, ws := lockKernel(turns)
	m := mustRun(t, c, ws)
	if m.Kernel.Spawned != 4 {
		t.Errorf("Kernel.Spawned = %d, want 4 (3 threads and the master)", m.Kernel.Spawned)
	}
	if per := float64(m.Kernel.Activations) / (turns * 24); per > 4 {
		t.Errorf("%.2f activations per op, want at most 4", per)
	}
}

// TestQuiescenceWaitsOutABusyDaemon: the master ends the run at the first
// of its 5 µs polls that finds no frame in flight, none in an inbox and
// no daemon between its two steps. The last is the one only Node.cur
// shows: a frame a daemon has taken but not handled is in neither place.
// Thread a's last act is a fire-and-forget release carrying a diff;
// thread b only computes and finishes while that frame is still on the
// wire, at offsets that slide the polls across the frame's msgProcCost
// window. Whatever the offset, the run ends on a poll instant.
func TestQuiescenceWaitsOutABusyDaemon(t *testing.T) {
	const poll = 5 * sim.Microsecond
	run := func(bCompute sim.Time) (stats.Metrics, uint64) {
		c := New(testConfig(2, migration.NoHM{}, locator.ForwardingPointer))
		obj := c.AddObject(1, 0)
		l := c.AddLock(0)
		ws := []proto.Worker{{Node: 1, Name: "a", Fn: func(th proto.Thread) {
			th.Acquire(l)
			th.Write(obj, 0, 7)
			th.Release(l)
		}}}
		if bCompute > 0 {
			ws = append(ws, proto.Worker{Node: 0, Name: "b", Fn: func(th proto.Thread) { th.Compute(bCompute) }})
		}
		m := mustRun(t, c, ws)
		return m, c.ObjectData(obj)[0]
	}
	solo, _ := run(0)
	if solo.FinalTime <= solo.ExecTime {
		t.Fatalf("a's release is not fire-and-forget: exec %v, final %v", solo.ExecTime, solo.FinalTime)
	}
	for off := sim.Time(0); off < 2*poll; off += 500 * sim.Nanosecond {
		m, got := run(solo.ExecTime + poll + off)
		if got != 7 {
			t.Errorf("offset %v: final word = %d, want 7", off, got)
		}
		if d := m.FinalTime - m.ExecTime; d <= 0 || d%poll != 0 {
			t.Errorf("offset %v: run ended %v after the last thread, not on a poll: a daemon was still busy", off, d)
		}
	}
}
