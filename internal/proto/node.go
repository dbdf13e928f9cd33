package proto

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/stats"
	"repro/internal/syncmgr"
	"repro/internal/twindiff"
	"repro/internal/wire"
)

// Node is one cluster node's engine-independent protocol state: its
// object copies, home bookkeeping, locator tables, managed locks and
// barriers, and the handlers Handle dispatches a received message to.
// The execution engine owns scheduling (under sim an event handler on
// the node's inbox; live, whichever goroutine delivers the frame, under
// the node's mutex) and message movement (Eng); this struct owns what
// the messages mean.
type Node struct {
	ID memory.NodeID
	S  *Shared
	// Eng is how messages leave this node; set by the engine.
	Eng Engine
	// Counters receives this node's protocol statistics. The sim engine
	// points every node at one cluster-wide struct (single-threaded);
	// the live engine gives each node its own and merges after the run.
	Counters *stats.Counters
	// subs are the node's observers (the flight ring, the telemetry
	// sketch, the oracle's log, a dsm.Trace), listening the union of
	// the kinds they declared; see Subscribe, On and Emit.
	subs      []subscription
	listening flight.Mask

	// The per-object tables, indexed by object id. Each fact is kept once:
	// what is homed, cached or dirty here is read off Cache, IsHome and
	// the copy's Dirty flag, in object order.
	Cache  []*memory.Object // local copy (home or cached) per object
	IsHome []bool
	HomeSt []*core.State // migration state, non-nil iff home
	// Copyset lists the nodes holding a copy of a home object, never the
	// home itself: a served fault-in adds the requester, a remote diff
	// leaves only its writer, a demote empties it.
	Copyset  [][]memory.NodeID
	MyWrites []memory.ObjectID // objects written this interval, under a barrier policy
	MgrHome  []memory.NodeID   // manager-locator current-home table
	Loc      *locator.Table
	// homeEpoch is the newest migration epoch announced here per object
	// (MgrUpdate at the manager, HomeBcast anywhere); see announced.
	homeEpoch []uint32

	// Locks is indexed by lock id: the manager state where this node
	// manages the lock, nil elsewhere.
	Locks []*syncmgr.Lock
	// bars is indexed by barrier id; every node has a row for each.
	bars []barrier

	// Pool recycles twin buffers, diff run storage and invalidated cached
	// copies' data so the steady-state write/flush cycle is allocation-free.
	Pool twindiff.Pool

	// views lists, per local thread slot, the home objects it holds bulk
	// write views on and whether it is outside the DSM; see PinView. Live
	// engine only: a sim thread never yields inside a view.
	views []viewSlot
}

// barrier is one barrier's row on a node.
type barrier struct {
	// mgr is the manager state where this node manages the barrier.
	mgr *syncmgr.Barrier
	// wait are the local thread slots parked on the barrier.
	wait []int32
	// pending are the objects this node reported between its arrival and
	// the barrier's go, kept per barrier so another barrier's go cannot
	// unpin them early. Together with MyWrites they pin local copies (see
	// BeginInterval): a barrier home transfer moves no data, so the
	// prospective new home must not drop its copy before it resolves.
	pending []memory.ObjectID
	// writer is the manager's per-object tally of the episode's write
	// reports: NoNode, the one node that reported the object, or
	// severalReports. Made at the first report, cleared at every release.
	writer []memory.NodeID
}

// severalReports marks a writer-table entry reported more than once in an
// episode, by several nodes or by several threads of one: no reassignment.
const severalReports memory.NodeID = -2

// viewSlot is one local thread slot's write views on home objects.
type viewSlot struct {
	objs []memory.ObjectID
	// held is objs as a set, indexed by object id and sized to the object
	// table at the first pin: a pin's dedup and viewed's probe are O(1).
	held []bool
	// out marks the slot outside the DSM, running application code that
	// may be writing its views; see Leave.
	out bool
}

// PinView records thread slot's bulk write view on home object obj until
// UnpinViews, at the holder's next synchronization. The holder writes the
// view without the node lock, so while it holds one:
//   - the home does not migrate (a demote would drop its later writes);
//   - a fault-in for obj is not routable while the holder is outside the
//     DSM (see CanRoute): it is served from the home copy itself once
//     every holder is inside, at the latest at the holder's next DSM
//     call. A thread holding a write view must therefore not block
//     outside the DSM.
//
// The served copy may carry the holder's writes of the current interval:
// values of a concurrent write, which LRC allows and no race-free program
// reads.
func (n *Node) PinView(slot int32, obj memory.ObjectID) {
	for int(slot) >= len(n.views) {
		n.views = append(n.views, viewSlot{})
	}
	v := &n.views[slot]
	if v.held == nil {
		v.held = make([]bool, len(n.Cache))
	}
	if !v.held[obj] {
		v.held[obj] = true
		v.objs = append(v.objs, obj)
	}
}

// UnpinViews ends every write view slot holds.
func (n *Node) UnpinViews(slot int32) {
	if int(slot) < len(n.views) {
		v := &n.views[slot]
		for _, obj := range v.objs {
			v.held[obj] = false
		}
		v.objs = v.objs[:0]
	}
}

// Enter marks thread slot inside the DSM: it holds the node lock, or is
// parked in a protocol wait, and writes none of its views.
func (n *Node) Enter(slot int32) {
	if int(slot) < len(n.views) {
		n.views[slot].out = false
	}
}

// Leave marks thread slot outside the DSM, where it may write its views;
// called as a DSM call ends, after the parked frames were retried.
func (n *Node) Leave(slot int32) {
	if int(slot) < len(n.views) {
		n.views[slot].out = true
	}
}

// viewed reports whether a local thread holds a write view on obj and
// whether one that does is outside the DSM.
func (n *Node) viewed(obj memory.ObjectID) (held, out bool) {
	for i := range n.views {
		if v := &n.views[i]; v.held != nil && v.held[obj] {
			held = true
			if v.out {
				return true, true
			}
		}
	}
	return held, false
}

func (n *Node) growObjects(total int) {
	for len(n.Cache) < total {
		n.Cache = append(n.Cache, nil)
		n.IsHome = append(n.IsHome, false)
		n.HomeSt = append(n.HomeSt, nil)
		n.Copyset = append(n.Copyset, nil)
		n.MgrHome = append(n.MgrHome, memory.NoNode)
		n.homeEpoch = append(n.homeEpoch, 0)
	}
	n.Loc.Grow(total)
}

// CanRoute reports whether the node can make progress on msg right now.
// A fault-in for a home object waits while a thread holding a write view
// on it is outside the DSM (see PinView): the home copy is read only
// while every holder is inside. Besides, under the forwarding-pointer
// locator a fault-in or diff for an object this node is neither home of
// nor holds a pointer for has exactly one legal explanation: the home
// transfer that will make it routable (a migrating fault reply awaiting
// install, or a barrier-go) is still in flight. The virtual-time
// engine cannot observe either window (message costs order the transfer
// before any dependent request, and a sim thread never pins), but the
// live engine can — it parks the message at its node until the holders
// enter or the transfer lands. Manager/broadcast locators recover from a
// missing home through HomeMiss instead.
func (n *Node) CanRoute(msg *wire.Msg) bool {
	if msg.Kind == wire.ObjReq && n.IsHome[msg.Obj] {
		_, out := n.viewed(msg.Obj)
		return !out
	}
	if n.S.Locator != locator.ForwardingPointer {
		return true
	}
	switch msg.Kind {
	case wire.ObjReq, wire.DiffMsg:
		return n.IsHome[msg.Obj] || n.Loc.Forward(msg.Obj) != memory.NoNode
	case wire.LockRel, wire.BarrierArrive:
		// Piggybacked diffs must each be applicable here or forwardable;
		// a dead end means the transfer that re-homes one of them is
		// still in flight, and the whole sync message waits for it.
		for _, od := range msg.Diffs {
			if !n.IsHome[od.Obj] && n.Loc.Forward(od.Obj) == memory.NoNode {
				return false
			}
		}
	}
	return true
}

// Handle is Dispatch on the caller's copy of msg: the benchmark probes'
// way in, which hand a message by value. The engines call Dispatch.
func (n *Node) Handle(msg wire.Msg) { n.Dispatch(&msg) }

// Dispatch runs one received protocol message's handler in daemon
// context. Handlers never block: requests needing remote work are
// forwarded, not awaited. msg is the engine's receive buffer, handled in
// place: a forwarded request is updated and sent on, so after Dispatch
// msg's From, To and Hops may no longer be what arrived.
func (n *Node) Dispatch(msg *wire.Msg) {
	switch msg.Kind {
	case wire.ObjReq:
		n.handleObjReq(msg)
	case wire.DiffMsg:
		n.handleDiff(msg)
	case wire.DiffAck:
		if msg.ReplySlot >= 0 {
			n.Eng.ToThread(msg.ReplySlot, *msg)
		} else {
			n.handleDaemonDiffAck(msg)
		}
	case wire.LockReq:
		lk := n.Locks[msg.Lock]
		w := syncmgr.Waiter{Node: msg.ReplyNode, Slot: msg.ReplySlot}
		if lk.Acquire(w) {
			n.GrantLock(msg.Lock, w)
		}
	case wire.LockRel:
		n.handleLockRel(msg)
	case wire.BarrierArrive:
		w := syncmgr.Waiter{Node: msg.ReplyNode, Slot: msg.ReplySlot}
		n.BarrierArrive(msg.Barrier, w, msg.Diffs, msg.Pairs)
	case wire.BarrierGo:
		n.ApplyBarrierGo(msg)
	case wire.MgrUpdate:
		if n.announced(msg.Obj, msg.Seq) {
			n.MgrHome[msg.Obj] = msg.Home
		}
	case wire.MgrQuery:
		n.Eng.Send(wire.Msg{
			Kind: wire.MgrReply, From: n.ID, To: msg.ReplyNode,
			Obj: msg.Obj, Home: n.MgrHome[msg.Obj], ReplySlot: msg.ReplySlot,
		}, stats.MgrMsg)
	case wire.MgrReply, wire.ObjReply, wire.LockGrant, wire.HomeMiss:
		n.Eng.ToThread(msg.ReplySlot, *msg)
	case wire.HomeBcast:
		if n.announced(msg.Obj, msg.Seq) {
			n.Loc.Learn(msg.Obj, msg.Home)
		}
	case wire.PtrUpdate:
		// Path compression: short-circuit this node's forwarding pointer.
		// A stale update racing with this node becoming home again is
		// ignored entirely — the home's own knowledge is authoritative.
		if !n.IsHome[msg.Obj] {
			if n.Loc.Forward(msg.Obj) != memory.NoNode {
				n.Loc.SetForward(msg.Obj, msg.Home)
			}
			n.Loc.Learn(msg.Obj, msg.Home)
		}
	default:
		panic(fmt.Sprintf("proto: node %d cannot handle %v", n.ID, msg.Kind))
	}
}

// announced reports whether a new home's announcement for migration epoch
// (core.Record.Epoch: it numbers an object's homes in order) is news here,
// and remembers the newest. Each home announces itself on its own pair
// connection and nothing orders two connections, so a later home's can
// overtake an earlier one's; believing the last to arrive leaves the
// manager's table (or, broadcast, a ring of hints) on a demoted node for
// good, and a fault-in is bounced between stale answers forever — over
// real sockets; virtual time never lines it up. A barrier-time
// reassignment opens no epoch and writes the table as is (applyAssign): a
// policy that reassigns at barriers never migrates at a fault.
func (n *Node) announced(obj memory.ObjectID, epoch uint32) bool {
	if epoch < n.homeEpoch[obj] {
		return false
	}
	n.homeEpoch[obj] = epoch
	return true
}

// handleObjReq serves a fault-in at the object's (believed) home.
func (n *Node) handleObjReq(msg *wire.Msg) {
	obj := msg.Obj
	if n.IsHome[obj] {
		n.serveFault(msg)
		return
	}
	if fwd := n.Loc.Forward(obj); fwd != memory.NoNode {
		// Forwarding-pointer redirection: one more hop of accumulation.
		msg.Hops++
		msg.From, msg.To = n.ID, fwd
		n.Eng.Send(*msg, stats.Redir)
		return
	}
	// Obsolete home under the manager/broadcast locators.
	n.Eng.Send(wire.Msg{
		Kind: wire.HomeMiss, From: n.ID, To: msg.ReplyNode,
		Obj: obj, Home: n.Loc.Hint(obj), ReplySlot: msg.ReplySlot, Seq: msg.Seq,
	}, stats.HomeMiss)
}

// serveFault replies with the object and, when the policy calls for it,
// the home itself (§3.3: "not only the object is replied, but also its
// home is migrated").
func (n *Node) serveFault(msg *wire.Msg) {
	obj := msg.Obj
	st := n.HomeSt[obj]
	requester := msg.ReplyNode
	cs := n.Counters
	if msg.Hops > 0 {
		st.Redirected(int(msg.Hops))
		cs.RedirectHops += int64(msg.Hops)
	}
	cs.FaultIns++
	if n.On(flight.Request) {
		n.Emit(flight.Event{Kind: flight.Request, Obj: obj, Peer: requester, Hops: int32(msg.Hops)})
	}

	data := twindiff.TwinInto(&n.Pool, n.Cache[obj].Data)
	reply := wire.Msg{
		Kind: wire.ObjReply, From: n.ID, To: requester, Obj: obj,
		ReplyNode: requester, ReplySlot: msg.ReplySlot, Seq: msg.Seq,
		Data: data, Home: n.ID, Hops: msg.Hops,
	}

	if requester == n.ID {
		// Request boomerang: another thread of the requester's node
		// migrated the home here while this fault-in was chasing the old
		// forwarding chain. Serve locally — no migration decision (the
		// object already lives on the requester's node), no copyset
		// entry (the home's own node is never a sharer), and no network
		// (same-node traffic bypasses it). The virtual-time engine's
		// cost structure never lines this window up; the live engine's
		// real scheduler does. The data snapshot stays in the reply even
		// though Install usually drops it (IsHome guard): if the home
		// migrates away again before the thread installs, the snapshot
		// becomes the thread's cached copy, and a nil-Data reply would
		// install an empty object.
		n.Eng.ToThread(reply.ReplySlot, reply)
		return
	}

	// Decided before st.Migrate resets the epoch feedback: the Decision
	// event carries the counter/threshold pair the heuristic compared.
	ex := n.S.Policy.Decide(migration.Fault{Obj: obj, Requester: requester, Copyset: n.Copyset[obj], St: st})
	if held, _ := n.viewed(obj); ex.Migrate && held {
		ex.Migrate, ex.Reason = false, migration.ReasonPinned
	}
	if n.On(flight.Decision) {
		n.Emit(flight.Event{
			Kind: flight.Decision, Obj: obj, Peer: requester,
			Migrated: ex.Migrate, Reason: ex.Reason,
			Count: ex.Count, Limit: ex.Limit,
		})
	}
	if ex.Migrate {
		reply.Migrate, reply.Rec, reply.Home = true, st.Migrate(n.S.Params), requester
		cs.Migrations++
		n.demote(obj, requester)
		if n.S.Locator == locator.ForwardingPointer {
			n.Loc.SetForward(obj, requester)
		}
		n.Eng.Send(reply, stats.MigReply)
		return
	}
	if cs := n.Copyset[obj]; !slices.Contains(cs, requester) {
		n.Copyset[obj] = append(cs, requester)
	}
	n.Eng.Send(reply, stats.ObjReply)
}

// demote strips home status, keeping the (currently valid) data as a
// cached read-only copy.
func (n *Node) demote(obj memory.ObjectID, newHome memory.NodeID) {
	n.IsHome[obj] = false
	n.HomeSt[obj] = nil
	n.Copyset[obj] = n.Copyset[obj][:0]
	o := n.Cache[obj]
	o.State = memory.ReadOnly
	o.Twin = nil
	o.Dirty = false
	n.Loc.Learn(obj, newHome)
}

// promote installs home status over the local (current) copy.
func (n *Node) promote(obj memory.ObjectID, rec *core.Record) {
	o := n.Cache[obj]
	if o == nil {
		panic(fmt.Sprintf("proto: node %d promoting object %d without a copy", n.ID, obj))
	}
	n.IsHome[obj] = true
	if rec != nil {
		n.HomeSt[obj] = core.FromRecord(n.S.Params, 8*len(o.Data), *rec)
	} else {
		n.HomeSt[obj] = core.NewState(n.S.Params, 8*len(o.Data))
	}
	n.Loc.ClearForward(obj)
	n.Loc.Learn(obj, n.ID)
	// Home-access monitoring: the access that faulted us here must be
	// trapped and recorded as a home read/write.
	o.State = memory.Invalid
	o.Twin = nil
	o.Dirty = false
}

// handleDiff applies (or routes) a propagated diff. The writer's node id
// travels in msg.Home, surviving forwarding hops (msg.From changes at
// each hop).
func (n *Node) handleDiff(msg *wire.Msg) {
	obj := msg.Obj
	if n.IsHome[obj] {
		n.applyRemoteDiff(obj, msg.Diff, msg.Home)
		ack := wire.Msg{
			Kind: wire.DiffAck, From: n.ID, To: msg.ReplyNode, Obj: obj,
			ReplySlot: msg.ReplySlot, Lock: msg.Lock, Barrier: msg.Barrier,
		}
		if msg.ReplyNode == n.ID {
			// Diff boomerang: the home migrated to the writer's (or, for
			// a forwarded piggyback, the sync manager's) own node while
			// the diff was in flight. The ack is local — same-node
			// traffic never touches the network.
			if ack.ReplySlot >= 0 {
				n.Eng.ToThread(ack.ReplySlot, ack)
			} else {
				n.handleDaemonDiffAck(&ack)
			}
			return
		}
		// For daemon-forwarded piggybacked diffs the ack returns to the
		// sync manager's daemon (ReplySlot −1), not to a thread.
		n.Eng.Send(ack, stats.DiffAck)
		return
	}
	if fwd := n.Loc.Forward(obj); fwd != memory.NoNode {
		msg.Hops++
		msg.From, msg.To = n.ID, fwd
		n.Eng.Send(*msg, stats.Diff)
		return
	}
	if msg.ReplySlot < 0 {
		// Daemon-forwarded piggyback can only exist under the forwarding-
		// pointer locator, which never misses.
		panic(fmt.Sprintf("proto: daemon diff for object %d hit a dead end on node %d", obj, n.ID))
	}
	n.Eng.Send(wire.Msg{
		Kind: wire.HomeMiss, From: n.ID, To: msg.ReplyNode,
		Obj: obj, Home: n.Loc.Hint(obj), ReplySlot: msg.ReplySlot,
	}, stats.HomeMiss)
}

// applyRemoteDiff applies a diff from node writer to the home copy and
// feeds the migration state (a diff receipt is one "consecutive remote
// write" observation, §3.3).
func (n *Node) applyRemoteDiff(obj memory.ObjectID, d twindiff.Diff, writer memory.NodeID) {
	d.Apply(n.Cache[obj].Data)
	n.HomeSt[obj].RemoteWrite(writer, d.WireSize())
	cs := n.Counters
	cs.RemoteWrites++
	cs.DiffWords += int64(d.WordCount())
	if n.On(flight.RemoteWrite) {
		n.Emit(flight.Event{Kind: flight.RemoteWrite, Obj: obj, Peer: writer, Bytes: int32(d.WireSize())})
	}
	// After a write by writer, every other cached copy is stale under LRC;
	// approximate the copyset as {writer} (it certainly has a current copy).
	// A diff can boomerang back to its own writer: with multiple threads
	// per node, one thread's in-flight diff chases a forwarding chain
	// while another thread's fault migrates the home here. The home's own
	// copy is authoritative, so the copyset must stay free of self
	// entries (CheckInvariants enforces this).
	set := n.Copyset[obj][:0]
	if writer != n.ID {
		set = append(set, writer)
	}
	n.Copyset[obj] = set
}

// NoteMyWrite records a first-write-of-interval for barrier-time
// single-writer detection: nodes self-report what they wrote, and the
// barrier manager tallies the reports (§2 [9]).
func (n *Node) NoteMyWrite(obj memory.ObjectID) {
	if _, ok := n.S.Policy.(migration.BarrierPolicy); ok && !slices.Contains(n.MyWrites, obj) {
		n.MyWrites = append(n.MyWrites, obj)
	}
}

// handleLockRel applies piggybacked diffs and releases the lock. Diffs
// whose home migrated away are forwarded; the next grant waits for their
// acks (LRC release visibility).
func (n *Node) handleLockRel(msg *wire.Msg) {
	lk := n.Locks[msg.Lock]
	blocked := n.applyPiggyback(msg.Diffs, msg.From, msg.Lock+1, 0)
	if blocked > 0 {
		lk.Block(blocked)
	}
	if next, ok := lk.Release(); ok {
		n.GrantLock(msg.Lock, next)
	}
}

// applyPiggyback applies sync-message diffs, forwarding stale ones. It
// returns the number of forwarded diffs whose acks must gate the sync
// operation. lockTag/barTag are id+1 (0 = unset) for ack routing.
func (n *Node) applyPiggyback(diffs []wire.ObjDiff, writer memory.NodeID, lockTag, barTag uint32) int {
	blocked := 0
	for _, od := range diffs {
		if n.IsHome[od.Obj] {
			n.applyRemoteDiff(od.Obj, od.D, writer)
			continue
		}
		fwd := n.Loc.Forward(od.Obj)
		if fwd == memory.NoNode {
			panic(fmt.Sprintf("proto: piggybacked diff for %d has no forward on node %d", od.Obj, n.ID))
		}
		n.Eng.Send(wire.Msg{
			Kind: wire.DiffMsg, From: n.ID, To: fwd, Obj: od.Obj, Diff: od.D,
			Home: writer, ReplyNode: n.ID, ReplySlot: -1,
			Lock: lockTag, Barrier: barTag, Hops: 1,
		}, stats.Diff)
		blocked++
	}
	return blocked
}

// handleDaemonDiffAck resumes a sync operation gated on forwarded diffs.
func (n *Node) handleDaemonDiffAck(msg *wire.Msg) {
	switch {
	case msg.Lock > 0:
		lk := n.Locks[msg.Lock-1]
		if next, ok := lk.Unblock(); ok {
			n.GrantLock(msg.Lock-1, next)
		}
	case msg.Barrier > 0:
		if n.bars[msg.Barrier-1].mgr.Unblock() {
			n.barrierRelease(msg.Barrier - 1)
		}
	default:
		panic("proto: daemon diff ack without sync tag")
	}
}

// GrantLock hands the lock to w, locally or over the network.
func (n *Node) GrantLock(lock uint32, w syncmgr.Waiter) {
	if n.On(flight.LockGrant) {
		n.Emit(flight.Event{Kind: flight.LockGrant, Sync: lock, Peer: w.Node})
	}
	msg := wire.Msg{Kind: wire.LockGrant, From: n.ID, To: w.Node, Lock: lock, ReplySlot: w.Slot}
	if w.Node == n.ID {
		n.Eng.ToThread(w.Slot, msg)
		return
	}
	n.Eng.Send(msg, stats.LockMsg)
}

// BarrierArrive registers one arrival at this (manager) node.
func (n *Node) BarrierArrive(bid uint32, w syncmgr.Waiter, diffs []wire.ObjDiff, reports []wire.Pair) {
	b := &n.bars[bid]
	if blocked := n.applyPiggyback(diffs, w.Node, 0, bid+1); blocked > 0 {
		b.mgr.Block(blocked)
	}
	if len(reports) > 0 && b.writer == nil {
		b.writer = slices.Repeat([]memory.NodeID{memory.NoNode}, len(n.S.ObjWords))
	}
	for _, r := range reports {
		if b.writer[r.Obj] == memory.NoNode {
			b.writer[r.Obj] = r.Node
		} else {
			b.writer[r.Obj] = severalReports
		}
	}
	if b.mgr.Arrive(w) {
		n.barrierRelease(bid)
	}
}

// barrierRelease broadcasts the go to every node and rearms the barrier.
// The go carries the episode's home reassignments: each object reported
// exactly once is a candidate, since only a sole writer's copy can take
// the home without data moving, and goes to its reporter if the barrier
// policy says so, asked in object order.
func (n *Node) barrierRelease(bid uint32) {
	if n.On(flight.BarrierRelease) {
		n.Emit(flight.Event{Kind: flight.BarrierRelease, Sync: bid})
	}
	b := &n.bars[bid]
	if len(b.mgr.Reset()) != n.S.BarParties[bid] {
		panic("proto: barrier released with wrong arrival count")
	}
	var assigns []wire.Pair
	bp, ok := n.S.Policy.(migration.BarrierPolicy)
	for obj, w := range b.writer {
		if w >= 0 && ok && bp.Reassign(memory.ObjectID(obj), w) {
			assigns = append(assigns, wire.Pair{Obj: memory.ObjectID(obj), Node: w})
		}
		b.writer[obj] = memory.NoNode
	}
	goMsg := wire.Msg{Kind: wire.BarrierGo, From: n.ID, Barrier: bid, Pairs: assigns}
	for id := 0; id < n.S.Nodes; id++ {
		if memory.NodeID(id) == n.ID {
			continue
		}
		m := goMsg
		m.To = memory.NodeID(id)
		n.Eng.Send(m, stats.BarrierMsg)
	}
	n.ApplyBarrierGo(&goMsg)
}

// ApplyBarrierGo applies barrier-time reassignments, wakes local waiters,
// and opens a new synchronization interval.
func (n *Node) ApplyBarrierGo(msg *wire.Msg) {
	for _, a := range msg.Pairs {
		n.applyAssign(a)
	}
	// This barrier's reassignments are resolved; unpin only its own
	// candidates — another barrier's episode may still be in flight.
	b := &n.bars[msg.Barrier]
	b.pending = b.pending[:0]
	slots := b.wait
	b.wait = slots[:0] // keep the backing array for the next episode
	for _, s := range slots {
		n.Eng.ToThread(s, *msg)
	}
}

// applyAssign performs one barrier-time home transfer. The new home
// was the interval's only writer, so its copy equals the home copy and no
// data moves (§2 [9]: new home notifications piggyback on barrier
// messages).
func (n *Node) applyAssign(a wire.Pair) {
	// Under the manager locator the designated manager must track
	// barrier-time transfers too; the barrier-go broadcast reaches every
	// node, so the manager updates its table locally. (Without this the
	// manager keeps answering with the pre-barrier home: a requester then
	// alternates between the stale manager answer and the demoted home's
	// hint, and a post-barrier fault-in livelocks.)
	if n.S.Locator == locator.Manager && locator.ManagerOf(a.Obj, n.S.Nodes) == n.ID {
		n.MgrHome[a.Obj] = a.Node
	}
	switch {
	case n.IsHome[a.Obj] && a.Node != n.ID:
		n.Counters.Migrations++
		if n.On(flight.Decision) {
			n.Emit(flight.Event{
				Kind: flight.Decision, Obj: a.Obj, Peer: a.Node,
				Migrated: true, Reason: migration.ReasonBarrierReassign,
			})
		}
		n.demote(a.Obj, a.Node)
		// Leave a forwarding pointer like a fault-time migration would:
		// a request already in flight toward this (old) home must still
		// find a route — the virtual-time engine never sees that window,
		// the live engine does (subset-party barriers let non-parties
		// fault while the go is being applied).
		if n.S.Locator == locator.ForwardingPointer {
			n.Loc.SetForward(a.Obj, a.Node)
		}
		// A live-engine thread may hold a bulk write view on the copy we
		// just demoted (barrier-time reassignment cannot be refused the
		// way serveFault refuses to migrate a pinned object — the new
		// home is already promoting cluster-wide). Re-dirty the demoted
		// copy with a demote-time twin so the view's subsequent writes
		// are diffed and flushed to the new home at the holder's next
		// synchronization instead of silently dying in a clean cached
		// copy. Writes made before the demote follow barrier-time
		// semantics: the reassigned home's copy is authoritative for the
		// closing interval.
		if held, _ := n.viewed(a.Obj); held {
			o := n.Cache[a.Obj]
			o.Twin = twindiff.TwinInto(&n.Pool, o.Data)
			o.Dirty = true
			o.State = memory.ReadWrite
			n.NoteMyWrite(a.Obj)
		}
	case !n.IsHome[a.Obj] && a.Node == n.ID:
		n.promote(a.Obj, nil)
	default:
		n.Loc.Learn(a.Obj, a.Node)
	}
}

// reportPinned reports whether obj is pinned as a barrier reassignment
// candidate: written by this node in the current interval (MyWrites) or
// reported and awaiting a barrier's verdict (barrier.pending).
func (n *Node) reportPinned(obj memory.ObjectID) bool {
	if slices.Contains(n.MyWrites, obj) {
		return true
	}
	for i := range n.bars {
		if slices.Contains(n.bars[i].pending, obj) {
			return true
		}
	}
	return false
}

// WriteReports lists the objects this node wrote since the previous
// barrier (self-reported; the barrier manager tallies reports from all
// nodes to find single-writer objects) and opens a fresh write interval.
// Without a barrier policy there is nothing to report.
func (n *Node) WriteReports(bid uint32) []wire.Pair {
	if _, ok := n.S.Policy.(migration.BarrierPolicy); !ok {
		return nil
	}
	out := make([]wire.Pair, 0, len(n.MyWrites))
	for _, obj := range n.MyWrites {
		out = append(out, wire.Pair{Obj: obj, Node: n.ID})
	}
	// The reported objects stay pinned until this barrier's go applies
	// (or declines) the reassignment: another local thread may run
	// acquires — or complete a different barrier — in the meantime, and
	// those must not discard a copy the node might be about to become
	// home of.
	b := &n.bars[bid]
	b.pending = append(b.pending, n.MyWrites...)
	n.MyWrites = n.MyWrites[:0]
	return out
}

// EndInterval flips home copies to read-only at a release (§3.3: "the
// access state of the home copy will be set to ... read-only on releasing
// a lock"), so the next interval's first home access is trapped again.
func (n *Node) EndInterval() {
	for obj, home := range n.IsHome {
		if home {
			n.Cache[obj].State = memory.ReadOnly
		}
	}
}

// BeginInterval implements acquire semantics: cached clean copies are
// invalidated (LRC: the acquirer must observe preceding releases), and
// home copies are set to invalid for access monitoring (§3.3).
func (n *Node) BeginInterval() {
	_, reports := n.S.Policy.(migration.BarrierPolicy)
	for obj, o := range n.Cache {
		switch {
		case o == nil:
		case n.IsHome[obj]:
			o.State = memory.Invalid
		case o.Dirty:
			// Unflushed writes survive acquires.
		case reports && n.reportPinned(memory.ObjectID(obj)):
			// This node is the interval's (so far) only writer of obj and
			// may be handed its home at the next barrier — a transfer
			// that moves no data. Keep the copy but make it Invalid, so
			// reads still refetch (no stale-read hazard) while the data
			// survives for a potential promote. If the object was in fact
			// written elsewhere too, or the policy declines it, the
			// barrier reassigns nothing and the copy is simply replaced on
			// the next fault-in.
			o.State = memory.Invalid
			n.Counters.InvalidatedObjs++
		default:
			// The dropped copy's data (installed from a fault-in reply) feeds
			// the pool; the next twin, diff or served fault reuses it.
			n.Pool.PutWords(o.Data)
			n.Cache[obj] = nil
			n.Counters.InvalidatedObjs++
		}
	}
}
