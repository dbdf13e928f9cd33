package proto

import (
	"fmt"
	"slices"

	"repro/internal/flight"
	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/syncmgr"
	"repro/internal/wire"
)

// TokenKind says what a thread's mailbox delivered.
type TokenKind uint8

const (
	// TokMessage: a protocol message addressed to the thread (Token.Msg).
	TokMessage TokenKind = iota
	// TokRetry: re-send what the thread awaits on Token.Obj (its
	// fault-in or its flushed diff) after a retry delay.
	TokRetry
	// TokRetryQuery: re-resolve Token.Obj's home through the manager
	// after a stale-table back-off.
	TokRetryQuery
)

// Token is one mailbox delivery: a protocol message, or one of the
// Driver's retry timers naming the object to retry.
type Token struct {
	Kind TokenKind
	Obj  memory.ObjectID // TokRetry, TokRetryQuery
	Msg  wire.Msg        // TokMessage
}

// Host is what the thread side of the protocol needs from its execution
// engine: how a thread waits, and nothing else — the Driver decides what
// to send and what a reply means. Every wait, timer and clock read is a
// Host call, which is how this package stays free of time.
//
// Lock/Unlock bracket each Driver operation (live: the node mutex every
// receive path takes too; sim: no-ops under the cooperative scheduler).
// Recv is the one wait: it is called with the lock held and releases it
// while parked. A back-off is a RetryAfter timer, received like a reply.
type Host interface {
	Lock()
	Unlock()
	// Now reads the engine's clock, for the latency histograms.
	Now() sim.Time
	// Recv blocks for the thread's next mailbox delivery, stored in tok.
	Recv(tok *Token)
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
// flush/ack/retry loop behind release visibility. Every operation sends
// its requests, then waits in await until each is answered. An engine's
// thread type embeds a Driver, implements Host, and adds only its clock
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

	// What await waits for. fetching: a fault-in of fetchObj, begun at
	// fetchStart, whose latest ObjReq went to fetchTo. syncing: the
	// syncKind (LockGrant or BarrierGo) of lock or barrier syncID.
	// outstanding: the flushed diffs not yet acknowledged, in flush order
	// (its backing array is reused flush after flush). pendingQuery marks,
	// per object, a manager resolution in progress.
	fetching     bool
	fetchObj     memory.ObjectID
	fetchTo      memory.NodeID
	fetchStart   sim.Time
	syncing      bool
	syncKind     wire.Kind
	syncID       uint32
	outstanding  []wire.ObjDiff
	pendingQuery []bool
}

// NewDriver returns the driver for global thread id, the slot-th thread
// of node n, waiting through h. The layout is sealed by then.
func NewDriver(n *Node, h Host, id int, slot int32, name string) Driver {
	return Driver{n: n, h: h, id: id, slot: slot, name: name,
		pendingQuery: make([]bool, len(n.S.ObjWords)),
	}
}

// ID returns the global thread index.
func (d *Driver) ID() int { return d.id }

// Node returns the cluster node this thread runs on.
func (d *Driver) Node() memory.NodeID { return d.n.ID }

// Name returns the thread's name.
func (d *Driver) Name() string { return d.name }

// Slot returns the thread's index among its node's threads.
func (d *Driver) Slot() int32 { return d.slot }

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

// fault brings a fresh copy of obj to this node, chasing the home
// through the configured location mechanism, and returns the installed
// copy (the home copy, should the home have come here meanwhile).
func (d *Driver) fault(obj memory.ObjectID) *memory.Object {
	d.h.ChargeSend()
	d.fetching, d.fetchObj, d.fetchStart = true, obj, d.h.Now()
	d.resend(obj)
	d.await()
	return d.n.Cache[obj]
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
		d.awaitSync(wire.LockGrant, uint32(l))
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
// (carrying piggybacked diffs and any write reports), waits for the
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
	reports := n.WriteReports(uint32(b))
	bar := &n.bars[b]
	bar.wait = append(bar.wait, d.slot)
	start := d.h.Now()
	if home == n.ID {
		n.BarrierArrive(uint32(b), syncmgr.Waiter{Node: n.ID, Slot: d.slot}, piggy, reports)
	} else {
		n.Eng.Send(wire.Msg{
			Kind: wire.BarrierArrive, From: n.ID, To: home, Barrier: uint32(b),
			ReplyNode: n.ID, ReplySlot: d.slot, Diffs: piggy, Pairs: reports,
		}, stats.BarrierMsg)
	}
	d.awaitSync(wire.BarrierGo, uint32(b))
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
	var piggy []wire.ObjDiff
	d.outstanding, piggy = n.FlushCollect(syncHome, d.outstanding)
	for _, od := range d.outstanding {
		n.SendDiff(d.slot, od.Obj, od.D)
	}
	d.await()
	return piggy
}

// awaitSync waits for the kind (LockGrant or BarrierGo) of lock or
// barrier id.
func (d *Driver) awaitSync(kind wire.Kind, id uint32) {
	d.syncing, d.syncKind, d.syncID = true, kind, id
	d.await()
}

// await is the thread's one wait: it receives until nothing the thread
// asked for is outstanding (its fault-in, its lock grant or barrier go,
// its flushed diffs). A retry timer re-sends, or re-asks the manager
// unless a reply has resolved the object since it was armed.
func (d *Driver) await() {
	for d.fetching || d.syncing || len(d.outstanding) > 0 {
		d.h.Recv(&d.tok)
		switch obj := d.tok.Obj; d.tok.Kind {
		case TokMessage:
			d.reply(&d.tok.Msg)
		case TokRetry:
			d.resend(obj)
		case TokRetryQuery:
			if d.pendingQuery[obj] {
				d.managerStep(obj)
			}
		}
	}
}

// reply handles one protocol message addressed to the thread. A message
// the thread did not ask for is a protocol violation.
func (d *Driver) reply(msg *wire.Msg) {
	n, obj := d.n, msg.Obj
	switch msg.Kind {
	case wire.ObjReply:
		if !d.fetching || obj != d.fetchObj {
			d.stray(msg)
		}
		n.MaybeCompressPath(d.fetchTo, msg)
		n.Counters.RoundTripNs.Observe(int64(d.h.Now() - d.fetchStart))
		n.install(msg)
		d.fetching = false
	case wire.LockGrant, wire.BarrierGo:
		id := msg.Lock
		if msg.Kind == wire.BarrierGo {
			id = msg.Barrier
		}
		if !d.syncing || msg.Kind != d.syncKind || id != d.syncID {
			d.stray(msg)
		}
		d.syncing = false
	case wire.DiffAck:
		// The ack means the home applied the diff; nothing holds its
		// buffer any more, so it can be recycled.
		if i := d.flushed(obj); i >= 0 {
			n.Pool.PutDiff(d.outstanding[i].D)
			d.outstanding = slices.Delete(d.outstanding, i, i+1)
		}
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
			// §3.2: wait "for some time before repeating the fault-in".
			n.Counters.Retries++
			d.h.RetryAfter(TokRetry, obj)
		default:
			panic("proto: home miss under forwarding-pointer locator")
		}
	case wire.MgrReply:
		d.resolved(obj, msg.Home)
	default:
		d.stray(msg)
	}
}

// stray fails the thread on a message it did not ask for.
func (d *Driver) stray(msg *wire.Msg) {
	panic(fmt.Sprintf("proto: thread %s: unexpected %v (obj %d, lock %d, barrier %d)",
		d.name, msg.Kind, msg.Obj, msg.Lock, msg.Barrier))
}

// resend sends what the thread awaits on obj toward the home it now
// believes in: the fault-in, or the flushed diff. Either is done here
// instead when the home has come to this node (the fault-in ends, the
// diff is settled locally). A fault-in whose only candidate is this
// node, not home, waits a retry delay: the transfer or manager update
// that explains it is in flight.
func (d *Driver) resend(obj memory.ObjectID) {
	n := d.n
	if d.fetching && obj == d.fetchObj {
		if n.IsHome[obj] {
			d.fetching = false
			return
		}
		h := n.target(obj)
		if h == n.ID {
			d.h.RetryAfter(TokRetry, obj)
			return
		}
		d.seq++
		d.fetchTo = h
		n.Eng.Send(wire.Msg{
			Kind: wire.ObjReq, From: n.ID, To: h, Obj: obj,
			ReplyNode: n.ID, ReplySlot: d.slot, Seq: d.seq,
		}, stats.ObjReq)
		return
	}
	i := d.flushed(obj)
	if i < 0 {
		return
	}
	diff := d.outstanding[i].D
	if n.IsHome[obj] {
		// The home migrated here while the diff was bouncing (a HomeMiss
		// round-trip raced a fault-in migration): fold it in locally.
		n.ApplyLocalDiff(obj, diff)
		n.Pool.PutDiff(diff)
		d.outstanding = slices.Delete(d.outstanding, i, i+1)
		return
	}
	n.SendDiff(d.slot, obj, diff)
}

// flushed returns the index in outstanding of obj's unacknowledged diff,
// or -1.
func (d *Driver) flushed(obj memory.ObjectID) int {
	for i := range d.outstanding {
		if d.outstanding[i].Obj == obj {
			return i
		}
	}
	return -1
}

// managerStep advances the home resolution for obj by one step through
// the manager (§3.2: old home, manager, new home in sequence): query a
// remote manager, or read this node's own table.
func (d *Driver) managerStep(obj memory.ObjectID) {
	n := d.n
	if mgr := locator.ManagerOf(obj, n.S.Nodes); mgr != n.ID {
		n.Eng.Send(wire.Msg{
			Kind: wire.MgrQuery, From: n.ID, To: mgr, Obj: obj,
			ReplyNode: n.ID, ReplySlot: d.slot,
		}, stats.MgrMsg)
		return
	}
	d.resolved(obj, n.MgrHome[obj])
}

// resolved takes the manager's answer h for obj and resends. A table
// that names this node while it is not home is stale (this node just
// demoted, and the new home's MgrUpdate is in flight): ask again after a
// retry delay.
func (d *Driver) resolved(obj memory.ObjectID, h memory.NodeID) {
	n := d.n
	if h == n.ID && !n.IsHome[obj] {
		d.h.RetryAfter(TokRetryQuery, obj)
		return
	}
	n.Loc.Learn(obj, h)
	d.pendingQuery[obj] = false
	d.resend(obj)
}
