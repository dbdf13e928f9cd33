package proto

import (
	"fmt"

	"repro/internal/flight"
	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/twindiff"
	"repro/internal/wire"
)

// Thread is the application-facing access surface every engine's thread
// implements: software access checks (Read/Write and the bulk views),
// the synchronization operations that drive the consistency protocol,
// and modeled local compute. Applications and the scenario engine are
// written against this interface, so the same workload runs unchanged
// on the virtual-time simulator and on the live goroutine runtime.
type Thread interface {
	// ID returns the global thread index.
	ID() int
	// Node returns the cluster node this thread runs on.
	Node() memory.NodeID
	// Name returns the thread's name.
	Name() string
	// Now returns the engine's clock: virtual time under sim, wall-clock
	// elapsed since the run started under live.
	Now() sim.Time
	// Compute models d of local computation. The sim engine advances
	// virtual time lazily; the live engine ignores it (real work takes
	// real time).
	Compute(d sim.Time)
	// Read returns word idx of obj, faulting in a copy if needed.
	Read(obj memory.ObjectID, idx int) uint64
	// Write stores v into word idx of obj.
	Write(obj memory.ObjectID, idx int, v uint64)
	// ReadView returns the object's local data for bulk read-only
	// access. The caller must not mutate it and must not hold it across
	// synchronization operations.
	ReadView(obj memory.ObjectID) []uint64
	// WriteView faults the object for writing and returns its data for
	// bulk mutation within the current interval.
	WriteView(obj memory.ObjectID) []uint64
	// Acquire obtains the distributed lock (acquire-side consistency).
	Acquire(l LockID)
	// Release flushes dirty objects and frees the lock.
	Release(l LockID)
	// Barrier flushes, arrives, waits for the go, then invalidates.
	Barrier(b BarrierID)
}

// Worker is one application thread to run.
type Worker struct {
	Node memory.NodeID
	Name string
	Fn   func(Thread)
}

// ReadCheck performs the read-side software access check against local
// state. It returns the copy to read (nil when a fault-in is required)
// and whether the access trapped at a home copy (the engine charges its
// fault cost for trapped accesses).
func (n *Node) ReadCheck(obj memory.ObjectID) (o *memory.Object, trapped bool) {
	if n.IsHome[obj] {
		o := n.Cache[obj]
		if o.State == memory.Invalid {
			// Trapped home read (§3.3): record and continue locally.
			n.Counters.HomeReads++
			if n.On(flight.HomeRead) {
				n.Emit(flight.Event{Kind: flight.HomeRead, Obj: obj})
			}
			o.State = memory.ReadOnly
			return o, true
		}
		return o, false
	}
	if o := n.Cache[obj]; o != nil && o.State != memory.Invalid {
		return o, false
	}
	return nil, false
}

// WriteCheck performs the write-side software access check against
// local state. It returns the copy to write (nil when a fault-in is
// required — the caller faults and re-checks, because the fault may
// have migrated the home here) and whether the access trapped (home
// write monitoring or twin creation).
func (n *Node) WriteCheck(obj memory.ObjectID) (o *memory.Object, trapped bool) {
	if n.IsHome[obj] {
		o := n.Cache[obj]
		if o.State != memory.ReadWrite {
			// Trapped home write: the positive-feedback observation.
			st := n.HomeSt[obj]
			if st.HomeWrite(n.S.Params) {
				n.Counters.ExclHomeWrites++
			}
			n.Counters.HomeWrites++
			if n.On(flight.HomeWrite) {
				n.Emit(flight.Event{Kind: flight.HomeWrite, Obj: obj})
			}
			n.NoteMyWrite(obj)
			o.State = memory.ReadWrite
			return o, true
		}
		return o, false
	}
	o = n.Cache[obj]
	if o == nil || o.State == memory.Invalid {
		return nil, false
	}
	if o.State == memory.ReadOnly {
		o.Twin = twindiff.TwinInto(n.Pool, o.Data)
		o.Dirty = true
		o.State = memory.ReadWrite
		n.NoteMyWrite(obj)
		n.Counters.TwinsCreated++
		return o, true
	}
	return o, false
}

// Install places a fault-in reply into the local cache (and takes over
// the home when the reply migrates it).
func (n *Node) Install(msg wire.Msg) *memory.Object { return n.install(&msg) }

// install is Install on the reply in place: the Driver's receive buffer.
func (n *Node) install(msg *wire.Msg) *memory.Object {
	obj := msg.Obj
	if n.IsHome[obj] {
		// The node became home while this reply was in flight — a
		// boomerang reply served by our own daemon, or a concurrent
		// thread's migrating fault landing first. The authoritative
		// copy is already here and strictly newer than the reply's
		// serve-time snapshot (another thread's trapped home write or
		// an applied remote diff may have advanced it since): installing
		// the snapshot would silently lose those updates. Drop the
		// reply; the caller re-runs its access check against the home
		// copy. Only the live engine's real scheduler produces this
		// window — under virtual time the install always precedes any
		// same-object transfer. The dropped payload feeds the pool (a
		// boomerang reply's snapshot came from it in the first place).
		if msg.Data != nil {
			n.Pool.PutWords(msg.Data)
		}
		return n.Cache[obj]
	}
	if old := n.Cache[obj]; old != nil {
		// A kept Invalid copy (a barrier reassignment candidate the
		// barrier declined) is being replaced: recycle its buffer so
		// the refetch stays allocation-free.
		n.Pool.PutWords(old.Data)
	}
	if n.objs == nil {
		n.objs = make([]memory.Object, len(n.Cache))
	}
	o := &n.objs[obj]
	*o = memory.Object{ID: obj, Data: msg.Data, State: memory.ReadOnly}
	n.Cache[obj] = o
	n.Loc.Learn(obj, msg.Home)
	if msg.Migrate {
		n.promote(obj, msg.Rec)
		n.NotifyNewHome(obj)
	}
	return o
}

// NotifyNewHome performs the locator-specific announcement after this
// node became an object's home.
func (n *Node) NotifyNewHome(obj memory.ObjectID) {
	// The epoch this home opened rides in Seq, which announcements do not
	// otherwise use: receivers, this node included, keep the newest.
	epoch := uint32(n.HomeSt[obj].Epoch)
	n.announced(obj, epoch)
	switch n.S.Locator {
	case locator.Manager:
		mgr := locator.ManagerOf(obj, n.S.Nodes)
		if mgr == n.ID {
			n.MgrHome[obj] = n.ID
			return
		}
		n.Eng.Send(wire.Msg{
			Kind: wire.MgrUpdate, From: n.ID, To: mgr, Obj: obj, Home: n.ID, Seq: epoch,
		}, stats.MgrMsg)
	case locator.Broadcast:
		// One point-to-point message to every other node, in id order: §3.2
		// allows that "a well implemented broadcast operation" would be
		// cheaper, and charging N−1 sends favors the non-broadcast locators,
		// the direction the paper argues from.
		for id := range n.S.Nodes {
			if to := memory.NodeID(id); to != n.ID {
				n.Eng.Send(wire.Msg{
					Kind: wire.HomeBcast, From: n.ID, To: to, Obj: obj, Home: n.ID, Seq: epoch,
				}, stats.HomeBcast)
			}
		}
	}
}

// MaybeCompressPath sends the path-compression pointer update after a
// redirected fault-in: teach the stale entry point the true home so
// future chains through it collapse to one hop. entry is the node the
// fault-in was first addressed to; msg is the ObjReply.
func (n *Node) MaybeCompressPath(entry memory.NodeID, msg *wire.Msg) {
	if n.S.PathCompress && msg.Hops > 0 && entry != msg.Home && entry != n.ID {
		n.Eng.Send(wire.Msg{
			Kind: wire.PtrUpdate, From: n.ID, To: entry, Obj: msg.Obj, Home: msg.Home,
		}, stats.HomeBcast)
	}
}

// FlushCollect computes every dirty object's diff (ascending object
// order), recycling twins and marking copies clean. Diffs homed (per
// the local hint) at syncHome are returned in piggy for carrying on the
// sync message (forwarding-pointer locator only — under manager/
// broadcast a stale piggyback could not be re-routed by the daemon);
// the rest are returned in sends for individual DiffMsg transmission.
// sends reuses scratch's backing array. piggy escapes into an in-flight
// message: it is built in the array an engine handed back with
// ReturnPiggyback, if any, and freshly allocated otherwise.
func (n *Node) FlushCollect(syncHome memory.NodeID, scratch []wire.ObjDiff) (sends, piggy []wire.ObjDiff) {
	canPiggy := n.S.Piggyback && n.S.Locator == locator.ForwardingPointer && syncHome != n.ID
	sends = scratch[:0]
	for i, o := range n.Cache {
		if o == nil || !o.Dirty {
			continue
		}
		obj := memory.ObjectID(i)
		if n.IsHome[obj] {
			panic(fmt.Sprintf("proto: home copy of %d is dirty on node %d", obj, n.ID))
		}
		d := twindiff.ComputeInto(n.Pool, o.Twin, o.Data)
		n.Pool.PutWords(o.Twin) // the twin's job is done; recycle it
		o.Twin = nil
		o.Dirty = false
		o.State = memory.ReadOnly
		n.Counters.DiffsComputed++
		if d.Empty() {
			continue
		}
		if n.S.DropDiffs {
			// Deliberate protocol sabotage (see Shared.DropDiffs): the
			// writes silently vanish instead of reaching the home.
			n.Pool.PutDiff(d)
			continue
		}
		n.Counters.DiffWords += int64(d.WordCount())
		if canPiggy && n.Loc.Hint(obj) == syncHome {
			if piggy == nil {
				piggy, n.piggy = n.piggy, nil
			}
			piggy = append(piggy, wire.ObjDiff{Obj: obj, D: d})
			n.Counters.PiggybackDiffs++
			continue
		}
		sends = append(sends, wire.ObjDiff{Obj: obj, D: d})
	}
	return sends, piggy
}

// ReturnPiggyback takes back a sent sync message's piggybacked diffs once
// the engine has copied them out (the live engine's Send encodes them).
// Nothing acknowledges a piggybacked diff, so this is its last use: each
// buffer goes back to the pool, and the list's array is kept for the next
// FlushCollect. The sim engine delivers the list by reference, so its
// sender returns neither: the receiver returns each diff it applies.
func (n *Node) ReturnPiggyback(diffs []wire.ObjDiff) {
	for _, od := range diffs {
		n.Pool.PutDiff(od.D)
	}
	clear(diffs)
	n.piggy = diffs[:0]
}

// ApplyLocalDiff folds one of this node's own flushed diffs into the
// home copy, for the window where the home migrated HERE while the
// diff was in flight and came back unapplied (a manager/broadcast
// HomeMiss round-trip raced a fault-in migration). A self-flush is a
// home write, not a remote one: the migration state and copyset are
// not fed. The virtual-time engine's cost structure never lines this
// window up; the live engine's real scheduler does.
func (n *Node) ApplyLocalDiff(obj memory.ObjectID, d twindiff.Diff) {
	if !n.IsHome[obj] {
		panic(fmt.Sprintf("proto: local diff apply on non-home node %d", n.ID))
	}
	d.Apply(n.Cache[obj].Data)
	n.Counters.DiffWords += int64(d.WordCount())
}

// target is where a request about obj goes: the locator's hint, or the
// well-known initial home when there is none or it names this node (a
// stale self-hint after a demotion). It can still be this node.
func (n *Node) target(obj memory.ObjectID) memory.NodeID {
	if h := n.Loc.Hint(obj); h != n.ID && h != memory.NoNode {
		return h
	}
	return n.S.ObjHome0[obj]
}

// SendDiff transmits one flushed diff toward the object's believed
// home, replying to thread slot on this node.
func (n *Node) SendDiff(slot int32, obj memory.ObjectID, d twindiff.Diff) {
	to := n.target(obj)
	if to == n.ID {
		panic(fmt.Sprintf("proto: diff for %d addressed to self on node %d", obj, n.ID))
	}
	n.Eng.Send(wire.Msg{
		Kind: wire.DiffMsg, From: n.ID, To: to, Obj: obj, Diff: d,
		Home: n.ID, ReplyNode: n.ID, ReplySlot: slot,
	}, stats.Diff)
}
