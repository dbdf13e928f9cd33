// Package proto is the engine-independent core of the Global Object
// Space protocol: the per-node coherence state machines (object copies,
// home bookkeeping, copysets, locator tables, lock/barrier managers,
// migration feedback) and the message handlers that drive them.
//
// Two execution engines share this package instead of forking the
// protocol:
//
//   - internal/gos runs it on the deterministic virtual-time simulation
//     kernel (internal/sim), charging Hockney-model costs to every
//     message — the engine behind the paper's figures;
//   - internal/live runs it on real goroutines behind a pluggable
//     transport (internal/live/transport), one protocol daemon
//     goroutine per node.
//
// Both halves of the protocol live here: Node.Handle is what a daemon
// does with a received message; Driver is what an application thread
// sends — access checks, fault-in with the locator chase, locks,
// barriers, the flush/ack/retry loop — and what each reply means to it.
//
// The split is strict: nothing in this package knows about time. An
// engine supplies an Engine per node (how messages leave it), drives
// Node.Handle with received messages, and gives each thread's Driver a
// Host, the only place a thread ever waits (mailbox receive, back-off,
// retry timer, the node lock released around them, the clock behind the
// latency histograms). Every wait, sleep and clock read being a Host
// call is what keeps the package clock-free (detlint enforces it) and
// lets a scripted Host walk the Driver through any interleaving without
// a scheduler. Everything else — what a fault-in reply contains, when a
// home migrates, when a stale manager answer is re-asked, how a barrier
// releases — is decided here, identically for both engines.
package proto

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/stats"
	"repro/internal/syncmgr"
	"repro/internal/wire"
)

// LockID names a distributed lock.
type LockID uint32

// BarrierID names a distributed barrier.
type BarrierID uint32

// Engine is what a node's protocol state machine needs from its
// execution engine: ways for messages to leave the node. Send transmits
// one protocol message to msg.To (never the node itself); ToThread
// hands a message to a local application thread's reply mailbox,
// bypassing the network; Broadcast sends to every node but msg.From,
// charged as N−1 point-to-point messages.
//
// Implementations must not block indefinitely: handlers run send calls
// while the node is processing a message, and a blocking send would
// deadlock two nodes sending to each other.
type Engine interface {
	Send(msg wire.Msg, cat stats.Category)
	ToThread(slot int32, msg wire.Msg)
	Broadcast(msg wire.Msg, cat stats.Category)
}

// Cluster is the execution-engine contract: what any engine running
// the GOS protocol exposes to the layers above it (the dsm facade, the
// scenario engine, sweep tooling). Both *gos.Cluster (virtual time)
// and *live.Cluster (real goroutines) satisfy it.
type Cluster interface {
	AddObject(words int, home memory.NodeID) memory.ObjectID
	AddLock(home memory.NodeID) LockID
	AddBarrier(home memory.NodeID, parties int) BarrierID
	InitObject(id memory.ObjectID, fn func(words []uint64))
	// Subscribe attaches one more observer to every node, before Run.
	Subscribe(sub flight.Subscriber)
	NumObjects() int
	HomeOf(obj memory.ObjectID) memory.NodeID
	ObjectData(obj memory.ObjectID) []uint64
	Run(ws []Worker) (stats.Metrics, error)
	CheckInvariants() error
	Digest() uint64
}

// Shared is the engine-independent cluster configuration plus the
// declared layout (objects, locks, barriers). Both engines build one
// from their own config structs.
type Shared struct {
	// Nodes is the cluster size.
	Nodes int
	// Policy decides home migration.
	Policy migration.Policy
	// Locator is the home-location mechanism (§3.2).
	Locator locator.Kind
	// Params are the adaptive-threshold constants (λ, T_init, α).
	Params core.Params
	// Piggyback enables the §5.2 optimization: diffs destined to the
	// lock's (or barrier's) home node ride on the release message.
	Piggyback bool
	// PathCompress enables forwarding-chain compression (extension
	// beyond the paper).
	PathCompress bool
	// DropDiffs deliberately breaks the protocol (oracle self-test).
	DropDiffs bool

	// Declared layout. ObjWords/ObjHome0 are per object, LockHome per
	// lock, BarHome/BarParties per barrier.
	ObjWords   []int
	ObjHome0   []memory.NodeID
	LockHome   []memory.NodeID
	BarHome    []memory.NodeID
	BarParties []int
}

// Space is the engine-independent cluster state: the shared
// configuration/layout and every node's protocol state. Engines embed a
// Space, which gives their cluster type the declaration half of the
// Cluster contract (AddObject, InitObject, AddLock, AddBarrier) and the
// post-run inspection half (NumObjects, HomeOf, ObjectData,
// CheckInvariants, Digest); the engine adds Run, which seals the layout.
type Space struct {
	S     *Shared
	Nodes []*Node
	// sealed is set when the run starts: the layout is fixed from then on.
	sealed bool
}

// Seal fixes the declared layout; the engine calls it first thing in
// Run. Declaring anything afterwards — or running twice — panics.
func (sp *Space) Seal() {
	sp.mustBeOpen()
	sp.sealed = true
}

func (sp *Space) mustBeOpen() {
	if sp.sealed {
		panic("proto: cluster already running")
	}
}

// NewSpace returns an empty space over s; the engine populates Nodes
// with NewNode and wires each node's Eng and Counters.
func NewSpace(s *Shared) *Space { return &Space{S: s} }

// NewNode appends one node (the next dense id) and returns it. The
// caller must set Eng and Counters before any protocol activity.
func (sp *Space) NewNode(id memory.NodeID) *Node {
	if int(id) != len(sp.Nodes) {
		panic(fmt.Sprintf("proto: node %d created out of order (have %d)", id, len(sp.Nodes)))
	}
	n := &Node{
		ID:        id,
		S:         sp.S,
		Loc:       locator.NewTable(0),
		Locks:     make(map[uint32]*syncmgr.Lock),
		Bars:      make(map[uint32]*syncmgr.Barrier),
		jjWriter:  make(map[uint32]map[memory.ObjectID][]memory.NodeID),
		BarWait:   make(map[uint32][]int32),
		jjPending: make(map[uint32][]memory.ObjectID),
	}
	sp.Nodes = append(sp.Nodes, n)
	return n
}

// AddObject declares a shared object of words 64-bit words homed at
// home. Must be called before Run. The home node's copy is authoritative
// from the start ("when an object is created, the creation node becomes
// its default home node", §5).
func (sp *Space) AddObject(words int, home memory.NodeID) memory.ObjectID {
	sp.mustBeOpen()
	s := sp.S
	if home < 0 || int(home) >= s.Nodes {
		panic(fmt.Sprintf("proto: object home %d out of range", home))
	}
	id := memory.ObjectID(len(s.ObjWords))
	s.ObjWords = append(s.ObjWords, words)
	s.ObjHome0 = append(s.ObjHome0, home)
	for _, n := range sp.Nodes {
		n.growObjects(len(s.ObjWords))
		n.Loc.SetInitialHome(id, home)
	}
	hn := sp.Nodes[home]
	o := memory.NewObject(id, words)
	o.State = memory.ReadOnly
	hn.Cache[id] = o
	hn.IsHome[id] = true
	hn.HomeSt[id] = core.NewState(s.Params, 8*words)
	hn.HomeList = append(hn.HomeList, id)
	// The manager locator's designated node learns the initial home.
	sp.Nodes[locator.ManagerOf(id, s.Nodes)].MgrHome[id] = home
	return id
}

// InitObject populates an object's home copy before the run, free of
// charge (models data that exists before the timed region, e.g. the
// input graph of ASP).
func (sp *Space) InitObject(id memory.ObjectID, fn func(words []uint64)) {
	sp.mustBeOpen()
	home := sp.S.ObjHome0[id]
	fn(sp.Nodes[home].Cache[id].Data)
}

// AddLock declares a distributed lock managed by node home.
func (sp *Space) AddLock(home memory.NodeID) LockID {
	sp.mustBeOpen()
	s := sp.S
	id := LockID(len(s.LockHome))
	s.LockHome = append(s.LockHome, home)
	sp.Nodes[home].Locks[uint32(id)] = syncmgr.NewLock()
	return id
}

// AddBarrier declares a barrier of parties threads managed by node home.
func (sp *Space) AddBarrier(home memory.NodeID, parties int) BarrierID {
	sp.mustBeOpen()
	s := sp.S
	id := BarrierID(len(s.BarHome))
	s.BarHome = append(s.BarHome, home)
	s.BarParties = append(s.BarParties, parties)
	sp.Nodes[home].Bars[uint32(id)] = syncmgr.NewBarrier(parties)
	return id
}

// NumObjects reports the number of declared shared objects.
func (sp *Space) NumObjects() int { return len(sp.S.ObjWords) }

// HomeOf reports the current home of obj (post-run inspection).
func (sp *Space) HomeOf(obj memory.ObjectID) memory.NodeID {
	for _, n := range sp.Nodes {
		if n.IsHome[obj] {
			return n.ID
		}
	}
	return memory.NoNode
}

// ObjectData returns the authoritative (home) copy of obj's data.
func (sp *Space) ObjectData(obj memory.ObjectID) []uint64 {
	h := sp.HomeOf(obj)
	if h == memory.NoNode {
		panic(fmt.Sprintf("proto: object %d has no home", obj))
	}
	return sp.Nodes[h].Cache[obj].Data
}

// Sentinel invariant violations, one per violation class CheckInvariants
// detects. Tests match them with errors.Is; the wrapping message carries
// the object and node involved.
var (
	// ErrHomeCount: an object has zero or several homes.
	ErrHomeCount = errors.New("object must have exactly one home")
	// ErrMissingState: a home node lacks the per-object migration state.
	ErrMissingState = errors.New("home lacks migration state")
	// ErrMissingData: a home node lacks the authoritative data copy.
	ErrMissingData = errors.New("home lacks data")
	// ErrDirtyCopy: a cached copy still holds unflushed writes after the
	// post-run quiesce.
	ErrDirtyCopy = errors.New("dirty cached copy after quiesce")
	// ErrTwinLeak: a clean copy (or a home copy, which never twins)
	// retains a twin buffer.
	ErrTwinLeak = errors.New("twin retained on clean copy")
	// ErrStaleCopyset: a copyset survives where none may exist (on a
	// non-home node) or names an impossible sharer (the home itself, or
	// a node outside the cluster).
	ErrStaleCopyset = errors.New("stale copyset entry")
	// ErrOwnerMismatch: home/ownership metadata disagree — migration
	// state on a non-home node, or (under the manager locator) a manager
	// table entry that does not name the true home.
	ErrOwnerMismatch = errors.New("home/ownership metadata mismatch")
	// ErrForwardCycle: a forwarding chain revisits a node.
	ErrForwardCycle = errors.New("forwarding cycle")
	// ErrDeadEndChain: a forwarding chain ends before the home under the
	// forwarding-pointer locator (which has no miss recovery).
	ErrDeadEndChain = errors.New("forwarding chain dead end")
)

// CheckInvariants validates global protocol invariants after a run (call
// it only once Run has returned):
// every object has exactly one home, with migration state and data there
// and nowhere else; no dirty cached copies or leaked twins remain; home
// copysets name only plausible sharers; the manager locator's table
// resolves to the true home; and every node's hint chain terminates at
// the home without cycles. It returns the first violation, wrapping the
// matching sentinel error (ErrHomeCount, ErrTwinLeak, ...).
func (sp *Space) CheckInvariants() error {
	s := sp.S
	for obj := 0; obj < len(s.ObjWords); obj++ {
		id := memory.ObjectID(obj)
		homes := 0
		var home memory.NodeID
		for _, n := range sp.Nodes {
			if n.IsHome[id] {
				homes++
				home = n.ID
				if n.HomeSt[id] == nil {
					return fmt.Errorf("proto: object %d home on node %d: %w", obj, n.ID, ErrMissingState)
				}
				if n.Cache[id] == nil {
					return fmt.Errorf("proto: object %d home on node %d: %w", obj, n.ID, ErrMissingData)
				}
			}
		}
		if homes != 1 {
			return fmt.Errorf("proto: object %d has %d homes: %w", obj, homes, ErrHomeCount)
		}
		for _, n := range sp.Nodes {
			if o := n.Cache[id]; o != nil {
				if o.Dirty {
					return fmt.Errorf("proto: object %d on node %d: %w", obj, n.ID, ErrDirtyCopy)
				}
				if o.Twin != nil {
					return fmt.Errorf("proto: object %d on node %d: %w", obj, n.ID, ErrTwinLeak)
				}
			}
			if !n.IsHome[id] {
				if n.HomeSt[id] != nil {
					return fmt.Errorf("proto: object %d: migration state on non-home node %d: %w",
						obj, n.ID, ErrOwnerMismatch)
				}
				if len(n.Copyset[id]) > 0 {
					return fmt.Errorf("proto: object %d: copyset on non-home node %d: %w",
						obj, n.ID, ErrStaleCopyset)
				}
			} else {
				// Validate sharers in sorted order so the error names the
				// same node on every run (detlint: a return inside the map
				// range would leak randomized iteration order).
				sharers := make([]memory.NodeID, 0, len(n.Copyset[id]))
				for sharer, ok := range n.Copyset[id] {
					if ok {
						sharers = append(sharers, sharer)
					}
				}
				slices.Sort(sharers)
				for _, sharer := range sharers {
					if sharer == n.ID || sharer < 0 || int(sharer) >= s.Nodes {
						return fmt.Errorf("proto: object %d: copyset of home %d names node %d: %w",
							obj, n.ID, sharer, ErrStaleCopyset)
					}
				}
			}
			// Chase the forwarding chain from this node's belief.
			cur := n.Loc.Hint(id)
			if cur == memory.NoNode {
				cur = s.ObjHome0[id]
			}
			for hops := 0; cur != home; hops++ {
				if hops > s.Nodes {
					return fmt.Errorf("proto: object %d from node %d: %w", obj, n.ID, ErrForwardCycle)
				}
				next := sp.Nodes[cur].Loc.Forward(id)
				if next == memory.NoNode {
					if s.Locator == locator.ForwardingPointer {
						return fmt.Errorf("proto: object %d from node %d at node %d: %w",
							obj, n.ID, cur, ErrDeadEndChain)
					}
					break // manager/broadcast locators recover via miss
				}
				cur = next
			}
		}
		if s.Locator == locator.Manager {
			mgr := sp.Nodes[locator.ManagerOf(id, s.Nodes)]
			if got := mgr.MgrHome[id]; got != home {
				return fmt.Errorf("proto: object %d: manager %d believes home %d, actual %d: %w",
					obj, mgr.ID, got, home, ErrOwnerMismatch)
			}
		}
	}
	return nil
}

// Digest fingerprints the final shared-memory contents: an FNV-1a hash
// over every object's authoritative (home) copy, in object order. Two
// runs of the same deterministic program must produce equal digests
// under every migration policy, locator and engine — migration changes
// cost, never results.
func (sp *Space) Digest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for obj := range sp.S.ObjWords {
		data := sp.ObjectData(memory.ObjectID(obj))
		mix(uint64(obj))
		mix(uint64(len(data)))
		for _, w := range data {
			mix(w)
		}
	}
	return h
}
