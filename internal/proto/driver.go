package proto

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/syncmgr"
	"repro/internal/twindiff"
	"repro/internal/wire"
)

// TokenKind says what a thread's mailbox delivered.
type TokenKind uint8

const (
	// TokMessage: a protocol message addressed to the thread (Token.Msg).
	TokMessage TokenKind = iota
	// TokRetryDiff: re-send the diff for Token.Obj after a
	// broadcast-locator back-off.
	TokRetryDiff
	// TokRetryQuery: re-resolve Token.Obj's home through the manager
	// after a stale-table back-off.
	TokRetryQuery
)

// Token is one mailbox delivery: a protocol message, or one of the
// flush loop's retry timers naming the object to retry.
type Token struct {
	Kind TokenKind
	Obj  memory.ObjectID // TokRetryDiff, TokRetryQuery
	Msg  wire.Msg        // TokMessage
}

// Host is what the thread side of the protocol needs from its execution
// engine: how a thread waits, and nothing else — the Driver decides what
// to send and what a reply means. Every wait, timer and clock read is a
// Host call, which is how this package stays free of time.
//
// Lock/Unlock bracket each Driver operation (live: the node mutex every
// receive path takes too; sim: no-ops under the cooperative scheduler).
// Recv and Backoff are called with the lock held and release it while
// parked.
type Host interface {
	Lock()
	Unlock()
	// Now reads the engine's clock, for the latency histograms.
	Now() sim.Time
	// Recv blocks for the thread's next mailbox delivery, stored in tok.
	Recv(tok *Token)
	// Backoff waits one retry delay.
	Backoff()
	// RetryAfter posts a kind token for obj to the thread's own mailbox
	// one retry delay from now, without blocking.
	RetryAfter(kind TokenKind, obj memory.ObjectID)
	// SyncPoint opens every synchronization operation (sim: materialize
	// lazily accumulated compute; live: expire the thread's write views).
	SyncPoint()
	// ChargeFault accounts one trapped access check, ChargeSend the
	// sender-side overhead ahead of a fault-in's first message — modeled
	// costs: virtual time under sim, nothing live.
	ChargeFault()
	ChargeSend()
}

// Driver is the thread side of the protocol, written once for both
// engines: software access checks, fault-in with the locator chase,
// manager queries, lock acquire/release, barriers, and the
// flush/ack/retry loop behind release visibility. An engine's thread
// type embeds a Driver, implements Host, and adds only its clock
// (Now/Compute) to satisfy Thread.
type Driver struct {
	n    *Node
	h    Host
	id   int
	slot int32
	name string

	seq uint32
	// tok is the receive buffer: Host.Recv fills it in place, so a
	// delivery is copied out of the mailbox once.
	tok Token

	// outstanding/pendingQuery/sendScratch are flushDirty's working
	// state, kept here so the buffers are allocated once and reused.
	// outstanding holds the flushed diffs not yet acknowledged;
	// pendingQuery marks those with a manager resolution in progress.
	outstanding  map[memory.ObjectID]twindiff.Diff
	pendingQuery map[memory.ObjectID]bool
	sendScratch  []wire.ObjDiff
}

// NewDriver returns the driver for global thread id, the slot-th thread
// of node n, waiting through h.
func NewDriver(n *Node, h Host, id int, slot int32, name string) Driver {
	return Driver{n: n, h: h, id: id, slot: slot, name: name}
}

// ID returns the global thread index.
func (d *Driver) ID() int { return d.id }

// Node returns the cluster node this thread runs on.
func (d *Driver) Node() memory.NodeID { return d.n.ID }

// Name returns the thread's name.
func (d *Driver) Name() string { return d.name }

// Read returns word idx of obj, faulting in a copy if needed.
func (d *Driver) Read(obj memory.ObjectID, idx int) uint64 {
	d.h.Lock()
	v := d.objForRead(obj).Data[idx]
	if d.n.On(flight.Read) {
		d.n.Emit(flight.Event{Kind: flight.Read, Thread: int32(d.id), Obj: obj, Word: int32(idx), Val: v})
	}
	d.h.Unlock()
	return v
}

// Write stores v into word idx of obj, twinning a cached copy on its
// first write of the interval.
func (d *Driver) Write(obj memory.ObjectID, idx int, v uint64) {
	d.h.Lock()
	d.ObjForWrite(obj).Data[idx] = v
	if d.n.On(flight.Write) {
		d.n.Emit(flight.Event{Kind: flight.Write, Thread: int32(d.id), Obj: obj, Word: int32(idx), Val: v})
	}
	d.h.Unlock()
}

// ReadView returns the object's local data for bulk read-only access
// (e.g. scanning a whole matrix row). The caller must not mutate it and
// must not hold it across synchronization operations.
func (d *Driver) ReadView(obj memory.ObjectID) []uint64 {
	d.h.Lock()
	o := d.objForRead(obj)
	d.h.Unlock()
	return o.Data
}

// WriteView faults the object for writing and returns its data for bulk
// mutation within the current interval.
func (d *Driver) WriteView(obj memory.ObjectID) []uint64 {
	d.h.Lock()
	o := d.ObjForWrite(obj)
	d.h.Unlock()
	return o.Data
}

// objForRead implements the read-side access check.
func (d *Driver) objForRead(obj memory.ObjectID) *memory.Object {
	o, trapped := d.n.ReadCheck(obj)
	if trapped {
		d.h.ChargeFault()
	}
	if o != nil {
		return o
	}
	return d.fault(obj)
}

// ObjForWrite implements the write-side access check and returns the
// writable local copy. Called with the Host lock held — exported for an
// engine whose WriteView must do more under the same lock hold.
func (d *Driver) ObjForWrite(obj memory.ObjectID) *memory.Object {
	for {
		o, trapped := d.n.WriteCheck(obj)
		if trapped {
			d.h.ChargeFault()
		}
		if o != nil {
			return o
		}
		d.fault(obj) // the fault may have migrated the home to us
	}
}

// recvMsg blocks for the next protocol message addressed to this
// thread. The result points into the receive buffer: it is valid until
// the next receive.
func (d *Driver) recvMsg() *wire.Msg {
	d.h.Recv(&d.tok)
	if d.tok.Kind != TokMessage {
		panic(fmt.Sprintf("proto: thread %s: stray token %d in mailbox", d.name, d.tok.Kind))
	}
	return &d.tok.Msg
}

// fault brings a fresh copy of obj to this node, chasing the home
// through the configured location mechanism, and returns the installed
// copy.
func (d *Driver) fault(obj memory.ObjectID) *memory.Object {
	n := d.n
	d.h.ChargeSend()
	start := d.h.Now()
	for {
		if n.IsHome[obj] {
			return n.Cache[obj]
		}
		h := n.Loc.Hint(obj)
		if h == n.ID || h == memory.NoNode {
			// Defensive: a stale self-hint after demotion falls back to
			// the well-known initial home.
			h = n.S.ObjHome0[obj]
		}
		if h == n.ID {
			// Still ourselves and not home: the transfer (or manager
			// update) that explains it is in flight. Back off and
			// re-resolve rather than sending to ourselves.
			d.h.Backoff()
			continue
		}
		d.seq++
		n.Eng.Send(wire.Msg{
			Kind: wire.ObjReq, From: n.ID, To: h, Obj: obj,
			ReplyNode: n.ID, ReplySlot: d.slot, Seq: d.seq,
		}, stats.ObjReq)
		msg := d.recvMsg()
		switch msg.Kind {
		case wire.ObjReply:
			n.MaybeCompressPath(h, *msg)
			n.Counters.RoundTripNs.Observe(int64(d.h.Now() - start))
			return n.Install(*msg)
		case wire.HomeMiss:
			if msg.Home != memory.NoNode && msg.Home != n.ID {
				n.Loc.Learn(obj, msg.Home)
			}
			switch n.S.Locator {
			case locator.Manager:
				d.queryManager(obj)
			case locator.Broadcast:
				n.Counters.Retries++
				d.h.Backoff()
			default:
				panic("proto: home miss under forwarding-pointer locator")
			}
		default:
			panic(fmt.Sprintf("proto: thread %s: unexpected %v during fault", d.name, msg.Kind))
		}
	}
}

// queryManager resolves the current home through the manager node (§3.2:
// old home, manager, new home in sequence). Runs synchronously: no other
// messages can be outstanding for this thread during a fault. A manager
// table may transiently name this node itself while it is not home (it
// just demoted and the new home's MgrUpdate is still in flight); the
// resolution backs off and re-queries until the table converges.
func (d *Driver) queryManager(obj memory.ObjectID) {
	n := d.n
	mgr := locator.ManagerOf(obj, n.S.Nodes)
	for {
		var h memory.NodeID
		if mgr == n.ID {
			h = n.MgrHome[obj]
		} else {
			d.sendMgrQuery(mgr, obj)
			msg := d.recvMsg()
			if msg.Kind != wire.MgrReply {
				panic(fmt.Sprintf("proto: thread %s: unexpected %v during manager query", d.name, msg.Kind))
			}
			h = msg.Home
		}
		if h == n.ID && !n.IsHome[obj] {
			d.h.Backoff()
			continue
		}
		n.Loc.Learn(obj, h)
		return
	}
}

func (d *Driver) sendMgrQuery(mgr memory.NodeID, obj memory.ObjectID) {
	d.n.Eng.Send(wire.Msg{
		Kind: wire.MgrQuery, From: d.n.ID, To: mgr, Obj: obj,
		ReplyNode: d.n.ID, ReplySlot: d.slot,
	}, stats.MgrMsg)
}

// Acquire obtains the distributed lock, then applies acquire-side
// consistency (invalidate cached copies; arm home-access monitoring).
func (d *Driver) Acquire(l LockID) {
	n := d.n
	d.h.Lock()
	d.h.SyncPoint()
	home := n.S.LockHome[l]
	start := d.h.Now()
	granted := false
	if home == n.ID {
		granted = n.Locks[uint32(l)].Acquire(syncmgr.Waiter{Node: n.ID, Slot: d.slot})
	} else {
		n.Eng.Send(wire.Msg{
			Kind: wire.LockReq, From: n.ID, To: home, Lock: uint32(l),
			ReplyNode: n.ID, ReplySlot: d.slot,
		}, stats.LockMsg)
	}
	if !granted {
		if msg := d.recvMsg(); msg.Kind != wire.LockGrant || msg.Lock != uint32(l) {
			panic(fmt.Sprintf("proto: thread %s: expected grant of lock %d, got %v", d.name, l, msg.Kind))
		}
		n.Counters.LockHandoffNs.Observe(int64(d.h.Now() - start))
	}
	n.BeginInterval()
	if n.On(flight.Acquire) {
		n.Emit(flight.Event{Kind: flight.Acquire, Thread: int32(d.id), Sync: uint32(l)})
	}
	d.h.Unlock()
}

// Release flushes this node's dirty objects to their homes (eagerly
// creating diffs, §3.1), ends the home-monitoring interval and frees the
// lock. Diffs homed at the lock manager piggyback on the release (§5.2).
func (d *Driver) Release(l LockID) {
	n := d.n
	d.h.Lock()
	d.h.SyncPoint()
	home := n.S.LockHome[l]
	piggy := d.flushDirty(home)
	n.EndInterval()
	// The release point: flushes are acknowledged (or piggybacked on the
	// release message below, which the manager applies before regranting),
	// and the lock has not yet been handed on — so in the emission order
	// this event separates this critical section's writes from the next
	// holder's acquire.
	if n.On(flight.Release) {
		n.Emit(flight.Event{Kind: flight.Release, Thread: int32(d.id), Sync: uint32(l)})
	}
	if home == n.ID {
		if next, ok := n.Locks[uint32(l)].Release(); ok {
			n.GrantLock(uint32(l), next)
		}
	} else {
		n.Eng.Send(wire.Msg{
			Kind: wire.LockRel, From: n.ID, To: home, Lock: uint32(l),
			ReplyNode: n.ID, ReplySlot: d.slot, Diffs: piggy,
		}, stats.LockMsg)
	}
	d.h.Unlock()
}

// Barrier performs release-side flushing, arrives at the barrier manager
// (carrying piggybacked diffs and Jiajia write reports), waits for the
// go, then applies acquire-side consistency.
func (d *Driver) Barrier(b BarrierID) {
	n := d.n
	d.h.Lock()
	d.h.SyncPoint()
	home := n.S.BarHome[b]
	piggy := d.flushDirty(home)
	n.EndInterval()
	if n.On(flight.BarrierArrive) {
		n.Emit(flight.Event{Kind: flight.BarrierArrive, Thread: int32(d.id), Sync: uint32(b)})
	}
	reports := n.JiajiaReports(uint32(b))
	n.BarWait[uint32(b)] = append(n.BarWait[uint32(b)], d.slot)
	start := d.h.Now()
	if home == n.ID {
		n.BarrierArrive(uint32(b), syncmgr.Waiter{Node: n.ID, Slot: d.slot}, piggy, reports)
	} else {
		n.Eng.Send(wire.Msg{
			Kind: wire.BarrierArrive, From: n.ID, To: home, Barrier: uint32(b),
			ReplyNode: n.ID, ReplySlot: d.slot, Diffs: piggy, Reports: reports,
		}, stats.BarrierMsg)
	}
	if msg := d.recvMsg(); msg.Kind != wire.BarrierGo || msg.Barrier != uint32(b) {
		panic(fmt.Sprintf("proto: thread %s: expected barrier go, got %v", d.name, msg.Kind))
	}
	n.Counters.BarrierNs.Observe(int64(d.h.Now() - start))
	n.BeginInterval()
	if n.On(flight.BarrierDepart) {
		n.Emit(flight.Event{Kind: flight.BarrierDepart, Thread: int32(d.id), Sync: uint32(b)})
	}
	d.h.Unlock()
}

// flushDirty propagates every dirty cached object's diff to its home and
// waits for all acknowledgments (release visibility). Diffs homed at
// syncHome are returned for piggybacking instead (see
// Node.FlushCollect).
func (d *Driver) flushDirty(syncHome memory.NodeID) []wire.ObjDiff {
	n := d.n
	sends, piggy := n.FlushCollect(syncHome, d.sendScratch)
	if sends != nil {
		d.sendScratch = sends[:0]
	}
	if len(sends) == 0 {
		return piggy
	}
	if d.outstanding == nil {
		d.outstanding = make(map[memory.ObjectID]twindiff.Diff)
		d.pendingQuery = make(map[memory.ObjectID]bool)
	}
	for _, od := range sends {
		n.SendDiff(d.slot, od.Obj, od.D)
		d.outstanding[od.Obj] = od.D
	}
	for len(d.outstanding) > 0 {
		d.h.Recv(&d.tok)
		switch d.tok.Kind {
		case TokRetryDiff:
			d.resend(d.tok.Obj)
		case TokRetryQuery:
			if d.pendingQuery[d.tok.Obj] {
				d.managerStep(d.tok.Obj)
			}
		case TokMessage:
			d.flushReply(&d.tok.Msg)
		}
	}
	return piggy
}

// flushReply handles one message received while diffs are outstanding.
func (d *Driver) flushReply(msg *wire.Msg) {
	n := d.n
	obj := msg.Obj
	switch msg.Kind {
	case wire.DiffAck:
		// The ack means the home applied the diff; nothing holds its
		// buffer any more, so it can be recycled.
		if diff, ok := d.outstanding[obj]; ok {
			n.Pool.PutDiff(diff)
		}
		delete(d.outstanding, obj)
	case wire.HomeMiss:
		if msg.Home != memory.NoNode && msg.Home != n.ID {
			n.Loc.Learn(obj, msg.Home)
		}
		switch n.S.Locator {
		case locator.Manager:
			if !d.pendingQuery[obj] {
				d.pendingQuery[obj] = true
				d.managerStep(obj)
			}
		case locator.Broadcast:
			n.Counters.Retries++
			d.h.RetryAfter(TokRetryDiff, obj)
		default:
			panic("proto: diff home miss under forwarding-pointer locator")
		}
	case wire.MgrReply:
		if msg.Home == n.ID && !n.IsHome[obj] {
			// Stale manager table (see managerStep); re-query.
			d.h.RetryAfter(TokRetryQuery, obj)
			return
		}
		n.Loc.Learn(obj, msg.Home)
		d.pendingQuery[obj] = false
		d.resend(obj)
	default:
		panic(fmt.Sprintf("proto: thread %s: unexpected %v during flush", d.name, msg.Kind))
	}
}

// settle completes one outstanding diff without the network: the home
// migrated to this node while the diff was bouncing (a HomeMiss
// round-trip raced a fault-in migration), so fold it in locally.
func (d *Driver) settle(obj memory.ObjectID, diff twindiff.Diff) {
	d.n.ApplyLocalDiff(obj, diff)
	d.n.Pool.PutDiff(diff)
	delete(d.outstanding, obj)
	d.pendingQuery[obj] = false
}

// resend routes one outstanding diff at its freshly resolved home, or
// settles it locally when the resolved home is this node.
func (d *Driver) resend(obj memory.ObjectID) {
	diff, ok := d.outstanding[obj]
	if !ok {
		return
	}
	if d.n.IsHome[obj] {
		d.settle(obj, diff)
		return
	}
	d.n.SendDiff(d.slot, obj, diff)
}

// managerStep advances the stale-home resolution for obj by one step:
// consult the manager (local table or remote query), resend on an
// answer, back off on a transiently-self answer.
func (d *Driver) managerStep(obj memory.ObjectID) {
	n := d.n
	mgr := locator.ManagerOf(obj, n.S.Nodes)
	if mgr != n.ID {
		d.sendMgrQuery(mgr, obj)
		return
	}
	h := n.MgrHome[obj]
	if n.IsHome[obj] {
		d.settle(obj, d.outstanding[obj])
		return
	}
	if h == n.ID {
		// Our own manager table still names us: the new home's
		// MgrUpdate is in flight. Re-step after a back-off.
		d.h.RetryAfter(TokRetryQuery, obj)
		return
	}
	n.Loc.Learn(obj, h)
	d.pendingQuery[obj] = false
	d.resend(obj)
}
