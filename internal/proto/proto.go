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
//     transport (internal/live/transport), each received frame handled
//     by whichever goroutine delivers it, under the node's lock.
//
// Both halves of the protocol live here: Node.Handle is what a node
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
	"fmt"

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
// execution engine: the two ways a message leaves a handler. Send
// transmits one protocol message to msg.To (never the node itself);
// ToThread hands a message to a local application thread's reply
// mailbox, bypassing the network. Everything else a handler sends is
// built from Send here, in the protocol core — a home announcement under
// the broadcast locator is N−1 of them (Node.NotifyNewHome).
//
// Implementations must not block indefinitely: handlers run send calls
// while the node is processing a message, and a blocking send would
// deadlock two nodes sending to each other.
type Engine interface {
	Send(msg wire.Msg, cat stats.Category)
	ToThread(slot int32, msg wire.Msg)
}

// Shared is the engine-independent cluster configuration — the protocol
// selection the paper's experiments vary — plus the declared layout
// (objects, locks, barriers). It is the only declaration of the selection
// below the dsm facade: gos.Config and live.Config embed it beside their
// engine-only fields and hand it to NewSpace as is; dsm.New parses
// dsm.Config's strings into one.
type Shared struct {
	// Nodes is the cluster size.
	Nodes int
	// Policy decides home migration (required: the engines take the
	// selection as given; dsm.New and DefaultShared fill in the paper's).
	Policy migration.Policy
	// Locator is the home-location mechanism (§3.2; the zero value is the
	// forwarding pointer, the paper's choice, §3.3).
	Locator locator.Kind
	// Params are the adaptive-threshold constants (λ, T_init, α). The
	// threshold formula needs a message-cost model even on a live
	// cluster; dsm.New and live.DefaultConfig keep the Fast-Ethernet
	// calibration there, so policy decisions match the simulation's.
	Params core.Params
	// Piggyback enables the §5.2 optimization: diffs destined to the
	// lock's (or barrier's) home node ride on the release message. Only
	// effective under the forwarding-pointer locator.
	Piggyback bool
	// PathCompress enables forwarding-chain compression (an extension
	// beyond the paper, §6 future work): after a redirected fault-in the
	// requester notifies its stale entry point of the true home, so
	// later requesters pay at most one hop through that node. Costs one
	// extra message per redirected fault; only meaningful under the
	// forwarding-pointer locator.
	PathCompress bool
	// DropDiffs deliberately breaks the protocol: every diff is
	// discarded at flush time instead of being propagated to the home,
	// so remote writes never become visible. It exists solely to prove
	// that the coherence oracle detects a broken protocol (tests set it;
	// nothing else may).
	DropDiffs bool

	// Declared layout. ObjWords/ObjHome0 are per object, LockHome per
	// lock, BarHome/BarParties per barrier.
	ObjWords   []int
	ObjHome0   []memory.NodeID
	LockHome   []memory.NodeID
	BarHome    []memory.NodeID
	BarParties []int
}

// DefaultShared returns the paper's selection for a cluster of nodes: the
// adaptive policy at λ = T_init = 1 with the α deduction of the given
// message-cost model, forwarding pointers, piggybacking on.
func DefaultShared(nodes int, alpha func(objBytes, diffBytes int) float64) Shared {
	params := core.DefaultParams(alpha)
	return Shared{
		Nodes:     nodes,
		Policy:    migration.Adaptive{P: params},
		Locator:   locator.ForwardingPointer,
		Params:    params,
		Piggyback: true,
	}
}

// Space is the engine-independent cluster state: the shared
// configuration/layout and every node's protocol state. An engine is a
// Space — declarations (AddObject, InitObject, AddLock, AddBarrier),
// observers (Subscribe), post-run inspection (NumObjects, EndState and
// its readers HomeOf, ObjectData, CheckInvariants, Digest;
// FlightRecorders, FlightEvents) — plus Run, which seals the layout; the
// dsm facade holds the two.
type Space struct {
	S *Shared
	// Nodes is indexed by node id; see Release for the nil entries.
	Nodes []*Node
	// flights are the attached flight rings (AttachFlight).
	flights []*flight.Recorder
	// sealed is set when the run starts: the layout is fixed from then on.
	sealed bool
	// end is the Installed end state of a space that Released nodes.
	end *EndState
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
	n := &Node{ID: id, S: sp.S, Loc: locator.NewTable(0)}
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
	for _, n := range sp.Nodes {
		n.Locks = append(n.Locks, nil)
	}
	sp.Nodes[home].Locks[id] = syncmgr.NewLock()
	return id
}

// AddBarrier declares a barrier of parties threads managed by node home.
func (sp *Space) AddBarrier(home memory.NodeID, parties int) BarrierID {
	sp.mustBeOpen()
	s := sp.S
	id := BarrierID(len(s.BarHome))
	s.BarHome = append(s.BarHome, home)
	s.BarParties = append(s.BarParties, parties)
	for _, n := range sp.Nodes {
		n.bars = append(n.bars, barrier{})
	}
	sp.Nodes[home].bars[id].mgr = syncmgr.NewBarrier(parties)
	return id
}

// NumObjects reports the number of declared shared objects.
func (sp *Space) NumObjects() int { return len(sp.S.ObjWords) }

// Release drops every node's protocol state but keep's, when the run
// starts: the other nodes of the cluster live in peer processes, which
// declared the same layout. The end state then has to be Installed.
func (sp *Space) Release(keep memory.NodeID) {
	for id := range sp.Nodes {
		if memory.NodeID(id) != keep {
			sp.Nodes[id] = nil
		}
	}
}

// Install records the end state the cluster's coordinator assembled.
func (sp *Space) Install(end *EndState) { sp.end = end }

// EndState assembles the memory the nodes hold and checks the protocol
// invariants over it (Assemble), or returns what was Installed. Meant for
// after Run has returned; the state shares the nodes' buffers.
func (sp *Space) EndState() (*EndState, error) {
	if sp.end != nil {
		return sp.end, nil
	}
	reports := make([]NodeReport, len(sp.Nodes))
	for id, n := range sp.Nodes {
		if n == nil {
			return nil, fmt.Errorf("proto: node %d runs in another process and the cluster delivered no end state", id)
		}
		reports[id] = n.Report()
	}
	return Assemble(sp.S, reports, true)
}

// mustEnd is EndState for the readers below, which have no error to return.
func (sp *Space) mustEnd() *EndState {
	end, err := sp.EndState()
	if end == nil {
		panic(err)
	}
	return end
}

// HomeOf reports the current home of obj, NoNode when it has none.
func (sp *Space) HomeOf(obj memory.ObjectID) memory.NodeID { return sp.mustEnd().Homes[obj] }

// ObjectData returns the authoritative (home) copy of obj's data.
func (sp *Space) ObjectData(obj memory.ObjectID) []uint64 { return sp.mustEnd().ObjectData(obj) }

// CheckInvariants validates the global protocol invariants after a run
// (see Assemble for the clauses).
func (sp *Space) CheckInvariants() error {
	_, err := sp.EndState()
	return err
}

// Digest fingerprints the final shared-memory contents (EndState.Digest).
func (sp *Space) Digest() uint64 { return sp.mustEnd().Digest() }
