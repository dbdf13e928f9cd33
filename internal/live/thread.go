//dsm:wallclock live thread watchdogs detect stalls in real time

package live

import (
	"fmt"
	"time"

	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/syncmgr"
	"repro/internal/twindiff"
	"repro/internal/wire"
)

// Thread is one application thread running as a real goroutine on a
// live cluster node. It implements proto.Thread with the same protocol
// control flow as the sim engine's thread; the blocking rendezvous
// (fault-in replies, lock grants, diff acks, barrier go) happens on the
// thread's mailbox, with the node lock released while parked.
//
// The locking discipline: every access check, state mutation and send
// runs under t.node.mu; recvToken drops the lock, blocks, and retakes
// it. Methods never hold two node locks, and the transport and mailbox
// never block a sender, so there is no lock cycle.
type Thread struct {
	c    *Cluster
	node *node
	id   int
	slot int32
	name string
	mbox *mailbox

	seq uint32

	// outstanding/pendingQuery/sendScratch are flushDirty's reusable
	// working state, touched only by this thread under the node lock.
	outstanding  map[memory.ObjectID]twindiff.Diff
	pendingQuery map[memory.ObjectID]bool
	sendScratch  []wire.ObjDiff

	// pins lists the home objects this thread holds bulk write views
	// on (proto.Node.ViewPins); cleared at the next sync operation.
	pins []memory.ObjectID
}

// pinView blocks home migration of obj while this thread's write view
// is live. Called with the node lock held.
func (t *Thread) pinView(obj memory.ObjectID) {
	n := t.node.ps
	if n.ViewPins == nil {
		n.ViewPins = make(map[memory.ObjectID]int)
	}
	n.ViewPins[obj]++
	t.pins = append(t.pins, obj)
}

// unpinViews releases this thread's view pins: its views expired (the
// contract forbids holding one across a synchronization operation).
// Called with the node lock held.
func (t *Thread) unpinViews() {
	n := t.node.ps
	for _, obj := range t.pins {
		if n.ViewPins[obj]--; n.ViewPins[obj] == 0 {
			delete(n.ViewPins, obj)
		}
	}
	t.pins = t.pins[:0]
}

// ID returns the global thread index.
func (t *Thread) ID() int { return t.id }

// Node returns the cluster node this thread runs on.
func (t *Thread) Node() memory.NodeID { return t.node.ps.ID }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Now returns the wall-clock time elapsed since the run started.
func (t *Thread) Now() sim.Time { return sim.Time(time.Since(t.c.start).Nanoseconds()) }

// Compute is a no-op on the live engine: modeled work is a simulation
// concept, real work takes real time.
func (t *Thread) Compute(sim.Time) {}

// recvToken parks the thread on its mailbox with the node lock
// released, and retakes the lock around the received token.
func (t *Thread) recvToken() token {
	t.node.mu.Unlock()
	v := t.mbox.get()
	t.node.mu.Lock()
	return v
}

// backoff releases the node lock for one retry delay, then retakes it.
// If the run aborted while sleeping it unwinds instead: the state
// change the caller's retry loop is waiting for (a home transfer, a
// manager update) will never arrive over a dead transport.
func (t *Thread) backoff() {
	t.node.mu.Unlock()
	time.Sleep(t.c.cfg.RetryDelay)
	if t.c.aborted.Load() {
		panic(abortPanic{})
	}
	t.node.mu.Lock()
}

// recvMsg blocks for the next protocol message addressed to this thread.
func (t *Thread) recvMsg() wire.Msg {
	if tok := t.recvToken(); tok.kind == message {
		return tok.msg
	}
	panic(fmt.Sprintf("live: thread %s: stray token in mailbox", t.name))
}

// Read returns word idx of obj, faulting in a copy if needed.
func (t *Thread) Read(obj memory.ObjectID, idx int) uint64 {
	n := t.node
	n.mu.Lock()
	o, _ := n.ps.ReadCheck(obj)
	if o == nil {
		o = t.fault(obj)
	}
	v := o.Data[idx]
	if obs := t.c.obs; obs != nil {
		obs.OnRead(t.id, obj, idx, v)
	}
	n.mu.Unlock()
	return v
}

// Write stores v into word idx of obj, twinning a cached copy on its
// first write of the interval.
func (t *Thread) Write(obj memory.ObjectID, idx int, v uint64) {
	n := t.node
	n.mu.Lock()
	for {
		o, _ := n.ps.WriteCheck(obj)
		if o != nil {
			o.Data[idx] = v
			break
		}
		t.fault(obj) // the fault may have migrated the home to us
	}
	if obs := t.c.obs; obs != nil {
		obs.OnWrite(t.id, obj, idx, v)
	}
	n.mu.Unlock()
}

// ReadView returns the object's local data for bulk read-only access.
// The caller must not mutate it, must not hold it across its own
// synchronization operations, and — live-engine specific — must not
// hold it across another same-node thread's synchronization (see the
// package comment).
func (t *Thread) ReadView(obj memory.ObjectID) []uint64 {
	n := t.node
	n.mu.Lock()
	o, _ := n.ps.ReadCheck(obj)
	if o == nil {
		o = t.fault(obj)
	}
	n.mu.Unlock()
	return o.Data
}

// WriteView faults the object for writing and returns its data for bulk
// mutation within the current interval. On a home copy the object is
// pinned against migration until this thread's next synchronization
// operation — without the pin, a fault-time migration could demote the
// copy mid-view and the remaining view writes would land in a clean
// cached copy, untwinned and silently lost.
func (t *Thread) WriteView(obj memory.ObjectID) []uint64 {
	n := t.node
	n.mu.Lock()
	var o *memory.Object
	for {
		o, _ = n.ps.WriteCheck(obj)
		if o != nil {
			break
		}
		t.fault(obj)
	}
	if n.ps.IsHome[obj] {
		t.pinView(obj)
	}
	n.mu.Unlock()
	return o.Data
}

// fault brings a fresh copy of obj to this node, chasing the home
// through the configured location mechanism, and returns the installed
// copy. Called (and returns) with the node lock held.
func (t *Thread) fault(obj memory.ObjectID) *memory.Object {
	n := t.node
	s := t.c.shared()
	start := time.Now()
	for {
		if n.ps.IsHome[obj] {
			return n.ps.Cache[obj]
		}
		h := n.ps.Loc.Hint(obj)
		if h == n.ps.ID || h == memory.NoNode {
			// Defensive: a stale self-hint after demotion falls back to
			// the well-known initial home.
			h = s.ObjHome0[obj]
		}
		if h == n.ps.ID {
			// Still ourselves and not home: the transfer (or manager
			// update) that explains it is in flight. Back off and
			// re-resolve rather than sending to ourselves.
			t.backoff()
			continue
		}
		t.seq++
		n.Send(wire.Msg{
			Kind: wire.ObjReq, From: n.ps.ID, To: h, Obj: obj,
			ReplyNode: n.ps.ID, ReplySlot: t.slot, Seq: t.seq,
		}, stats.ObjReq)
		msg := t.recvMsg()
		switch msg.Kind {
		case wire.ObjReply:
			n.ps.MaybeCompressPath(h, msg)
			n.counters.RoundTripNs.Observe(time.Since(start).Nanoseconds())
			return n.ps.Install(msg)
		case wire.HomeMiss:
			if msg.Home != memory.NoNode && msg.Home != n.ps.ID {
				n.ps.Loc.Learn(obj, msg.Home)
			}
			switch s.Locator {
			case locator.Manager:
				t.queryManager(obj)
			case locator.Broadcast:
				n.counters.Retries++
				t.backoff()
			default:
				panic("live: home miss under forwarding-pointer locator")
			}
		default:
			panic(fmt.Sprintf("live: thread %s: unexpected %v during fault", t.name, msg.Kind))
		}
	}
}

// queryManager resolves the current home through the manager node.
// Called with the node lock held. A manager table may transiently name
// this node itself while it is not home (it just demoted and the new
// home's MgrUpdate is still in flight); the resolution backs off and
// re-queries until the table converges.
func (t *Thread) queryManager(obj memory.ObjectID) {
	n := t.node
	mgr := locator.ManagerOf(obj, t.c.cfg.Nodes)
	for {
		var h memory.NodeID
		if mgr == n.ps.ID {
			h = n.ps.MgrHome[obj]
		} else {
			n.Send(wire.Msg{
				Kind: wire.MgrQuery, From: n.ps.ID, To: mgr, Obj: obj,
				ReplyNode: n.ps.ID, ReplySlot: t.slot,
			}, stats.MgrMsg)
			msg := t.recvMsg()
			if msg.Kind != wire.MgrReply {
				panic(fmt.Sprintf("live: thread %s: unexpected %v during manager query", t.name, msg.Kind))
			}
			h = msg.Home
		}
		if h == n.ps.ID && !n.ps.IsHome[obj] {
			t.backoff()
			continue
		}
		n.ps.Loc.Learn(obj, h)
		return
	}
}

// Acquire obtains the distributed lock, then applies acquire-side
// consistency (invalidate cached copies; arm home-access monitoring).
func (t *Thread) Acquire(l proto.LockID) {
	n := t.node
	home := t.c.shared().LockHome[l]
	n.mu.Lock()
	t.unpinViews()
	w := syncmgr.Waiter{Node: n.ps.ID, Slot: t.slot}
	if home == n.ps.ID {
		if !n.ps.Locks[uint32(l)].Acquire(w) {
			start := time.Now()
			t.awaitGrant(l)
			n.counters.LockHandoffNs.Observe(time.Since(start).Nanoseconds())
		}
	} else {
		start := time.Now()
		n.Send(wire.Msg{
			Kind: wire.LockReq, From: n.ps.ID, To: home, Lock: uint32(l),
			ReplyNode: n.ps.ID, ReplySlot: t.slot,
		}, stats.LockMsg)
		t.awaitGrant(l)
		n.counters.LockHandoffNs.Observe(time.Since(start).Nanoseconds())
	}
	n.ps.BeginInterval()
	if obs := t.c.obs; obs != nil {
		obs.OnAcquire(t.id, uint32(l))
	}
	n.mu.Unlock()
}

func (t *Thread) awaitGrant(l proto.LockID) {
	msg := t.recvMsg()
	if msg.Kind != wire.LockGrant || msg.Lock != uint32(l) {
		panic(fmt.Sprintf("live: thread %s: expected grant of lock %d, got %v", t.name, l, msg.Kind))
	}
}

// Release flushes this node's dirty objects to their homes, ends the
// home-monitoring interval and frees the lock. Diffs homed at the lock
// manager piggyback on the release (§5.2).
func (t *Thread) Release(l proto.LockID) {
	n := t.node
	home := t.c.shared().LockHome[l]
	n.mu.Lock()
	t.unpinViews()
	piggy := t.flushDirty(home)
	n.ps.EndInterval()
	// The release point: flushes are acknowledged (or piggybacked on the
	// release message below, which the manager applies before
	// regranting), and the lock has not yet been handed on.
	if obs := t.c.obs; obs != nil {
		obs.OnRelease(t.id, uint32(l))
	}
	if home == n.ps.ID {
		lk := n.ps.Locks[uint32(l)]
		if next, ok := lk.Release(); ok {
			n.ps.GrantLock(uint32(l), next)
		}
		n.mu.Unlock()
		return
	}
	n.Send(wire.Msg{
		Kind: wire.LockRel, From: n.ps.ID, To: home, Lock: uint32(l),
		ReplyNode: n.ps.ID, ReplySlot: t.slot, Diffs: piggy,
	}, stats.LockMsg)
	n.mu.Unlock()
}

// Barrier performs release-side flushing, arrives at the barrier
// manager (carrying piggybacked diffs and Jiajia write reports), waits
// for the go, then applies acquire-side consistency.
func (t *Thread) Barrier(b proto.BarrierID) {
	n := t.node
	home := t.c.shared().BarHome[b]
	n.mu.Lock()
	t.unpinViews()
	piggy := t.flushDirty(home)
	n.ps.EndInterval()
	if obs := t.c.obs; obs != nil {
		obs.OnBarrierArrive(t.id, uint32(b))
	}
	reports := n.ps.JiajiaReports(uint32(b))
	n.ps.BarWait[uint32(b)] = append(n.ps.BarWait[uint32(b)], t.slot)
	w := syncmgr.Waiter{Node: n.ps.ID, Slot: t.slot}
	start := time.Now()
	if home == n.ps.ID {
		n.ps.BarrierArrive(uint32(b), w, piggy, reports)
	} else {
		n.Send(wire.Msg{
			Kind: wire.BarrierArrive, From: n.ps.ID, To: home, Barrier: uint32(b),
			ReplyNode: n.ps.ID, ReplySlot: t.slot, Diffs: piggy, Reports: reports,
		}, stats.BarrierMsg)
	}
	msg := t.recvMsg()
	if msg.Kind != wire.BarrierGo || msg.Barrier != uint32(b) {
		panic(fmt.Sprintf("live: thread %s: expected barrier go, got %v", t.name, msg.Kind))
	}
	n.counters.BarrierNs.Observe(time.Since(start).Nanoseconds())
	n.ps.BeginInterval()
	if obs := t.c.obs; obs != nil {
		obs.OnBarrierDepart(t.id, uint32(b))
	}
	n.mu.Unlock()
}

// flushDirty propagates every dirty cached object's diff to its home
// and waits for all acknowledgments (release visibility). Called (and
// returns) with the node lock held.
func (t *Thread) flushDirty(syncHome memory.NodeID) []wire.ObjDiff {
	n := t.node
	sends, piggy := n.ps.FlushCollect(syncHome, t.sendScratch)
	if sends != nil {
		t.sendScratch = sends[:0]
	}
	if len(sends) == 0 {
		return piggy
	}
	if t.outstanding == nil {
		t.outstanding = make(map[memory.ObjectID]twindiff.Diff)
		t.pendingQuery = make(map[memory.ObjectID]bool)
	}
	outstanding := t.outstanding
	for _, od := range sends {
		n.ps.SendDiff(t.slot, od.Obj, od.D)
		outstanding[od.Obj] = od.D
	}

	pendingQuery := t.pendingQuery
	// settle completes one outstanding diff without the network: the
	// home migrated to this node while the diff was bouncing (HomeMiss
	// round-trip raced a fault-in migration), so fold it in locally.
	settle := func(obj memory.ObjectID, d twindiff.Diff) {
		n.ps.ApplyLocalDiff(obj, d)
		n.ps.Pool.PutDiff(d)
		delete(outstanding, obj)
		pendingQuery[obj] = false
	}
	// resend routes one outstanding diff at its freshly resolved home,
	// or settles it locally when the resolved home is this node.
	resend := func(obj memory.ObjectID) {
		d, ok := outstanding[obj]
		if !ok {
			return
		}
		if n.ps.IsHome[obj] {
			settle(obj, d)
			return
		}
		n.ps.SendDiff(t.slot, obj, d)
	}
	// managerStep advances the stale-home resolution for obj by one
	// step: consult the manager (local table or remote query), resend
	// on an answer, back off on a transiently-self answer.
	var managerStep func(obj memory.ObjectID)
	managerStep = func(obj memory.ObjectID) {
		mgr := locator.ManagerOf(obj, t.c.cfg.Nodes)
		if mgr != n.ps.ID {
			n.Send(wire.Msg{
				Kind: wire.MgrQuery, From: n.ps.ID, To: mgr, Obj: obj,
				ReplyNode: n.ps.ID, ReplySlot: t.slot,
			}, stats.MgrMsg)
			return
		}
		h := n.ps.MgrHome[obj]
		if n.ps.IsHome[obj] {
			settle(obj, outstanding[obj])
			return
		}
		if h == n.ps.ID {
			// Our own manager table still names us: the new home's
			// MgrUpdate is in flight. Re-step after a back-off.
			mbox := t.mbox
			time.AfterFunc(t.c.cfg.RetryDelay, func() { mbox.put(token{kind: retryQuery, obj: obj}) })
			return
		}
		n.ps.Loc.Learn(obj, h)
		pendingQuery[obj] = false
		resend(obj)
	}
	for len(outstanding) > 0 {
		switch tok := t.recvToken(); tok.kind {
		case retryDiff:
			resend(tok.obj)
		case retryQuery:
			if pendingQuery[tok.obj] {
				managerStep(tok.obj)
			}
		case message:
			switch msg := tok.msg; msg.Kind {
			case wire.DiffAck:
				// The ack means the home applied the diff; the encoded
				// frame carried a copy, so the buffers can be recycled.
				if d, ok := outstanding[msg.Obj]; ok {
					n.ps.Pool.PutDiff(d)
				}
				delete(outstanding, msg.Obj)
			case wire.HomeMiss:
				if msg.Home != memory.NoNode && msg.Home != n.ps.ID {
					n.ps.Loc.Learn(msg.Obj, msg.Home)
				}
				switch t.c.shared().Locator {
				case locator.Manager:
					if !pendingQuery[msg.Obj] {
						pendingQuery[msg.Obj] = true
						managerStep(msg.Obj)
					}
				case locator.Broadcast:
					n.counters.Retries++
					obj := msg.Obj
					mbox := t.mbox
					time.AfterFunc(t.c.cfg.RetryDelay, func() { mbox.put(token{kind: retryDiff, obj: obj}) })
				default:
					panic("live: diff home miss under forwarding-pointer locator")
				}
			case wire.MgrReply:
				if msg.Home == n.ps.ID && !n.ps.IsHome[msg.Obj] {
					// Stale manager table (see managerStep); re-query.
					obj := msg.Obj
					mbox := t.mbox
					time.AfterFunc(t.c.cfg.RetryDelay, func() { mbox.put(token{kind: retryQuery, obj: obj}) })
					break
				}
				n.ps.Loc.Learn(msg.Obj, msg.Home)
				pendingQuery[msg.Obj] = false
				resend(msg.Obj)
			default:
				panic(fmt.Sprintf("live: thread %s: unexpected %v during flush", t.name, msg.Kind))
			}
		}
	}
	return piggy
}

// compile-time check: the live thread implements the shared interface.
var _ proto.Thread = (*Thread)(nil)
