package proto

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/locator"
	"repro/internal/memory"
)

// Sentinel invariant violations, one per class the end-state check
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
	// ErrViewOpen: a home object is still pinned by a write view after
	// the run (a thread's views end with it; see Node.PinView).
	ErrViewOpen = errors.New("write view open after the run")
	// ErrBadReport: a node report (which may have crossed a wire) does
	// not fit the declared layout.
	ErrBadReport = errors.New("malformed node report")
)

// classes numbers the sentinels a node finds on its own, so a verdict
// crosses the wire as a code and errors.Is holds on the far side. The
// order is wire format: append, never reorder.
var classes = [...]error{
	nil, ErrMissingState, ErrMissingData, ErrDirtyCopy, ErrTwinLeak, ErrStaleCopyset, ErrOwnerMismatch,
	ErrViewOpen,
}

// NodeReport is one node's end-of-run state: the home copies it owns
// (HomeData[k] is object HomeObjs[k]'s), its locator and manager tables
// by object, and the first failure of the invariant clauses a node can
// check alone (Class indexes classes, 0: none). The report shares the
// node's buffers; Assemble runs the clauses that need every node.
type NodeReport struct {
	Class    uint8
	Detail   string
	HomeObjs []memory.ObjectID
	HomeData [][]uint64
	Hints    []memory.NodeID
	Fwds     []memory.NodeID
	MgrHomes []memory.NodeID
}

// Report snapshots the quiesced node and checks the node-local clauses:
// no dirty cached copy, leaked twin or open write view, migration state
// and data exactly where the node is home, copysets only there, naming
// plausible sharers.
func (n *Node) Report() NodeReport {
	objs := len(n.S.ObjWords)
	rep := NodeReport{
		Hints:    make([]memory.NodeID, objs),
		Fwds:     make([]memory.NodeID, objs),
		MgrHomes: n.MgrHome,
	}
	fail := func(class error, format string, args ...any) {
		if rep.Class == 0 {
			rep.Class = uint8(slices.Index(classes[:], class))
			rep.Detail = fmt.Sprintf(format, args...)
		}
	}
	for obj := 0; obj < objs; obj++ {
		id := memory.ObjectID(obj)
		rep.Hints[obj] = n.Loc.Hint(id)
		rep.Fwds[obj] = n.Loc.Forward(id)
		o := n.Cache[id]
		if o != nil && o.Dirty {
			fail(ErrDirtyCopy, "object %d on node %d", obj, n.ID)
		}
		if o != nil && o.Twin != nil {
			fail(ErrTwinLeak, "object %d on node %d", obj, n.ID)
		}
		if held, _ := n.viewed(id); held {
			fail(ErrViewOpen, "object %d on node %d", obj, n.ID)
		}
		if !n.IsHome[id] {
			if n.HomeSt[id] != nil {
				fail(ErrOwnerMismatch, "object %d: migration state on non-home node %d", obj, n.ID)
			}
			if len(n.Copyset[id]) > 0 {
				fail(ErrStaleCopyset, "object %d: copyset on non-home node %d", obj, n.ID)
			}
			continue
		}
		if n.HomeSt[id] == nil {
			fail(ErrMissingState, "object %d home on node %d", obj, n.ID)
		}
		if o == nil {
			// Still claim the object, with no data: the verdict is the
			// missing copy, not a missing home.
			fail(ErrMissingData, "object %d home on node %d", obj, n.ID)
			o = &memory.Object{}
		}
		rep.HomeObjs = append(rep.HomeObjs, id)
		rep.HomeData = append(rep.HomeData, o.Data)
		for _, sharer := range n.Copyset[id] {
			if sharer == n.ID || sharer < 0 || int(sharer) >= n.S.Nodes {
				fail(ErrStaleCopyset, "object %d: copyset of home %d names node %d", obj, n.ID, sharer)
			}
		}
	}
	return rep
}

// EndState is the shared memory a run left behind: every object's home
// and authoritative copy, as Assemble builds it, or as much of it as a
// process that runs one node of a cluster holds (MemberView).
type EndState struct {
	Homes []memory.NodeID
	Data  [][]uint64
	// digest stands in for Digest() where Data is partial.
	digest  uint64
	partial bool
}

// MemberView is the end state on a cluster member other than node 0:
// homes and digest as node 0 sent them, data from the member's own report.
func MemberView(homes []memory.NodeID, digest uint64, own NodeReport) *EndState {
	e := &EndState{Homes: homes, Data: make([][]uint64, len(homes)), digest: digest, partial: true}
	for k, obj := range own.HomeObjs {
		e.Data[obj] = own.HomeData[k]
	}
	return e
}

// ObjectData returns the authoritative (home) copy of obj. Asking a
// member's view for an object homed elsewhere is the caller's bug.
func (e *EndState) ObjectData(obj memory.ObjectID) []uint64 {
	if e.Data[obj] == nil {
		if e.Homes[obj] == memory.NoNode {
			panic(fmt.Sprintf("proto: object %d has no home", obj))
		}
		panic(fmt.Sprintf("proto: object %d is homed on node %d; this process holds no copy of it (the assembled memory is on node 0)",
			obj, e.Homes[obj]))
	}
	return e.Data[obj]
}

// Digest fingerprints the final shared-memory contents: an FNV-1a hash
// over every object's authoritative (home) copy, in object order. Two
// runs of the same deterministic program must produce equal digests
// under every migration policy, locator and engine — migration changes
// cost, never results.
func (e *EndState) Digest() uint64 {
	if e.partial {
		return e.digest
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for obj := range e.Homes {
		data := e.ObjectData(memory.ObjectID(obj))
		mix(uint64(obj))
		mix(uint64(len(data)))
		for _, w := range data {
			mix(w)
		}
	}
	return h
}

// Assemble is the one definition of a run's end state: from every
// node's report (indexed by node) it builds the memory and, with check
// set, holds it to the protocol invariants — every object has exactly
// one home, with migration state and data there and nowhere else; no
// dirty cached copies or leaked twins remain; home copysets name only
// plausible sharers; the manager locator's table resolves to the true
// home; and every node's hint chain terminates at the home without
// cycles. Without check only well-formed reports and one home per object
// are required. It returns the first violation, wrapping its sentinel,
// and the state as far as it could be built: nil when the reports cannot
// even be indexed.
func Assemble(s *Shared, reports []NodeReport, check bool) (*EndState, error) {
	objs := len(s.ObjWords)
	end := &EndState{Homes: make([]memory.NodeID, objs), Data: make([][]uint64, objs)}
	for obj := range end.Homes {
		end.Homes[obj] = memory.NoNode
	}
	if len(reports) != s.Nodes {
		return nil, fmt.Errorf("proto: %d reports for %d nodes: %w", len(reports), s.Nodes, ErrBadReport)
	}
	var homes, words error
	for id, rep := range reports {
		if int(rep.Class) >= len(classes) || len(rep.Hints) != objs || len(rep.Fwds) != objs ||
			len(rep.MgrHomes) != objs || len(rep.HomeData) != len(rep.HomeObjs) {
			return nil, fmt.Errorf("proto: node %d: violation class %d, tables for %d/%d/%d of %d objects, %d copies of %d homes: %w",
				id, rep.Class, len(rep.Hints), len(rep.Fwds), len(rep.MgrHomes), objs, len(rep.HomeData), len(rep.HomeObjs), ErrBadReport)
		}
		for k, obj := range rep.HomeObjs {
			switch {
			case int(obj) >= objs:
				return nil, fmt.Errorf("proto: node %d claims unknown object %d: %w", id, obj, ErrBadReport)
			case end.Homes[obj] != memory.NoNode:
				if homes == nil {
					homes = fmt.Errorf("proto: object %d is homed on node %d and node %d: %w", obj, end.Homes[obj], id, ErrHomeCount)
				}
				continue
			case len(rep.HomeData[k]) != s.ObjWords[obj] && words == nil:
				words = fmt.Errorf("proto: object %d home copy on node %d has %d words, want %d: %w",
					obj, id, len(rep.HomeData[k]), s.ObjWords[obj], ErrBadReport)
			}
			end.Homes[obj], end.Data[obj] = memory.NodeID(id), rep.HomeData[k]
		}
	}
	for obj, home := range end.Homes {
		if home == memory.NoNode && homes == nil {
			homes = fmt.Errorf("proto: object %d has no home: %w", obj, ErrHomeCount)
		}
	}
	if homes != nil {
		return end, homes
	}
	for _, rep := range reports {
		if check && rep.Class != 0 {
			return end, fmt.Errorf("proto: %s: %w", rep.Detail, classes[rep.Class])
		}
	}
	// Only now, so that a home that lost its copy reads as ErrMissingData
	// where the nodes' own verdicts are heard at all.
	if words != nil {
		return nil, words
	}
	if !check {
		return end, nil
	}
	for obj, home := range end.Homes {
		if mgr := locator.ManagerOf(memory.ObjectID(obj), s.Nodes); s.Locator == locator.Manager && reports[mgr].MgrHomes[obj] != home {
			return end, fmt.Errorf("proto: object %d: manager %d believes home %d, actual %d: %w",
				obj, mgr, reports[mgr].MgrHomes[obj], home, ErrOwnerMismatch)
		}
		// Chase the forwarding chain from every node's belief.
		for from := range reports {
			cur := reports[from].Hints[obj]
			if cur == memory.NoNode {
				cur = s.ObjHome0[obj]
			}
			for hops := 0; cur != home; hops++ {
				if hops > s.Nodes {
					return end, fmt.Errorf("proto: object %d from node %d: %w", obj, from, ErrForwardCycle)
				}
				if cur < 0 || int(cur) >= s.Nodes {
					return end, fmt.Errorf("proto: object %d: node %d's chain leaves the cluster at node %d: %w",
						obj, from, cur, ErrBadReport)
				}
				next := reports[cur].Fwds[obj]
				if next == memory.NoNode {
					if s.Locator == locator.ForwardingPointer {
						return end, fmt.Errorf("proto: object %d from node %d at node %d: %w", obj, from, cur, ErrDeadEndChain)
					}
					break // manager/broadcast locators recover via miss
				}
				cur = next
			}
		}
	}
	return end, nil
}
