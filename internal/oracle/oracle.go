// Package oracle is an executable lazy-release-consistency checker for
// the DSM. A Recorder subscribes to a cluster (Config.Observer, either
// engine) for the thread-side events the protocol driver emits — every
// per-thread scalar access, lock acquire/release and barrier
// arrive/depart — plus the managers' BarrierRelease and LockGrant; Check
// then reconstructs the happens-before order those synchronization
// chains imply (vector clocks over the recorded total order) and
// verifies that every read was LRC-legal:
//
//   - a read must return the value of a happens-before-maximal write to
//     its word — never a value that a write ordered before the read has
//     already overwritten — or the value of a write concurrent with the
//     read (LRC places no obligation between unsynchronized threads);
//   - a word no write happened-before may also show its initial value;
//   - locks must be mutually exclusive, and barrier departures must
//     follow a completed episode.
//
// The oracle is policy-blind on purpose: home migration, locator choice
// and diff piggybacking change *when* data moves, never *what* a program
// may observe. Any migration-protocol bug that leaks a stale value
// (a skipped diff flush, a lost invalidation, a mis-routed diff) shows
// up as a Violation here, without golden files and without knowing the
// program's intent.
package oracle

import (
	"fmt"
	"strings"

	"repro/internal/flight"
	"repro/internal/memory"
)

// threadKinds are the events issued by an application thread (Thread
// set); Kinds is everything Check reads — what any recorder feeding it
// must subscribe to. LockGrant is a manager-side diagnostic only: the
// acquire-side happens-before edge comes from Acquire.
var (
	threadKinds = flight.MaskOf(flight.Read, flight.Write, flight.Acquire, flight.Release,
		flight.BarrierArrive, flight.BarrierDepart)
	Kinds = threadKinds | flight.MaskOf(flight.BarrierRelease, flight.LockGrant)
)

// Recorder captures a run's event log: the protocol's own flight.Events,
// of which Check reads Thread, Obj, Word and Val of a Read/Write, Thread
// and Sync (the lock or barrier id) of the four thread-side sync kinds,
// and Sync of a BarrierRelease. It is not synchronized: the
// simulation kernel is cooperatively scheduled and the live engine
// serializes delivery, so on either the log is a total order consistent
// with happens-before. Within one thread, events arrive in program
// order; Release after the release-side flush completed (all diff acks
// received) and before the lock can be granted on; Acquire after the
// grant arrived; BarrierArrive before the arrival is sent to the
// manager, BarrierRelease at the manager after every party arrived and
// before any BarrierDepart.
//
// Only scalar Read/Write accesses are events. Bulk ReadView/WriteView
// accesses are invisible (the values are not known at access time);
// programs meant to be oracle-checked must use the scalar path, as the
// scenario engine does.
type Recorder struct {
	threads int
	ops     []flight.Event
}

// NewRecorder returns a recorder for a run with the given thread count
// (thread ids must be dense in [0, threads)).
func NewRecorder(threads int) *Recorder {
	if threads <= 0 {
		panic("oracle: recorder needs at least one thread")
	}
	return &Recorder{threads: threads}
}

// Reset clears the log for reuse across runs, keeping capacity.
func (r *Recorder) Reset() { r.ops = r.ops[:0] }

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return len(r.ops) }

// Ops exposes the raw log (read-only use: diagnostics, replay).
func (r *Recorder) Ops() []flight.Event { return r.ops }

// Kinds implements flight.Subscriber.
func (r *Recorder) Kinds() flight.Mask { return Kinds }

// Record implements flight.Subscriber: append one event.
func (r *Recorder) Record(ev flight.Event) { r.ops = append(r.ops, ev) }

// InitFn supplies the pre-run initial value of a word (from InitObject
// seeding); nil means all words start at zero.
type InitFn func(obj memory.ObjectID, word int) uint64

// Violation is one LRC illegality found by Check.
type Violation struct {
	// OpIndex is the offending event's position in the log.
	OpIndex int
	Op      flight.Event
	// Legal lists the values the read was allowed to return (capped).
	Legal []uint64
	// Reason is a one-line diagnosis.
	Reason string
}

func (v Violation) String() string {
	if v.Op.Kind == flight.Read {
		vals := make([]string, 0, len(v.Legal))
		for _, x := range v.Legal {
			vals = append(vals, fmt.Sprintf("%#x", x))
		}
		return fmt.Sprintf("op %d: thread %d read obj %d word %d = %#x, legal {%s}: %s",
			v.OpIndex, v.Op.Thread, v.Op.Obj, v.Op.Word, v.Op.Val,
			strings.Join(vals, ", "), v.Reason)
	}
	return fmt.Sprintf("op %d: thread %d %s (sync %d): %s",
		v.OpIndex, v.Op.Thread, v.Op.Kind, v.Op.Sync, v.Reason)
}

// vclock is a per-thread vector clock.
type vclock []uint32

func (v vclock) clone() vclock { return append(vclock(nil), v...) }

// join folds other into v component-wise.
func (v vclock) join(other vclock) {
	for i, x := range other {
		if x > v[i] {
			v[i] = x
		}
	}
}

// hb reports whether the event stamped w happened before the event
// stamped r, where w was issued by thread wt. Because every event bumps
// its own component, w hb r iff r's view of wt includes w.
func hb(w vclock, wt int, r vclock) bool { return w[wt] <= r[wt] }

type locKey struct {
	obj  memory.ObjectID
	word int
}

type writeRec struct {
	thread int
	clock  vclock
	val    uint64
}

type barThread struct {
	barrier uint32
	thread  int
}

// maxLegalValues caps the legal-value list attached to a violation.
const maxLegalValues = 8

// Check replays the recorded log, building the happens-before order from
// program order, lock transfer chains and barrier episodes, and returns
// every violation found (empty means the run was LRC-legal). init
// supplies pre-seeded initial values (nil = zeros).
func (r *Recorder) Check(init InitFn) []Violation {
	n := r.threads
	vc := make([]vclock, n)
	for i := range vc {
		vc[i] = make(vclock, n)
	}
	var (
		viols     []Violation
		writes    = map[locKey][]writeRec{}
		lastRel   = map[uint32]vclock{}   // release clock per lock
		lockOwner = map[uint32]int{}      // current holder per lock (-1 free)
		barAccum  = map[uint32]vclock{}   // accumulating arrival join
		episodes  = map[uint32][]vclock{} // completed episode joins
		// arriveEp queues, per (barrier, thread), the episode index each
		// arrival feeds — the one accumulating at arrival time. The
		// depart joins exactly that episode, so a thread sitting out an
		// episode (subset-party barriers) cannot be matched to a stale
		// one.
		arriveEp = map[barThread][]int{}
	)
	bad := func(i int, op flight.Event, legal []uint64, reason string) {
		viols = append(viols, Violation{OpIndex: i, Op: op, Legal: legal, Reason: reason})
	}
	for i, op := range r.ops {
		t := int(op.Thread)
		if threadKinds.Has(op.Kind) {
			if t < 0 || t >= n {
				bad(i, op, nil, fmt.Sprintf("thread id %d out of range (recorder sized for %d)", t, n))
				continue
			}
			vc[t][t]++
		}
		switch op.Kind {
		case flight.Write:
			k := locKey{op.Obj, int(op.Word)}
			writes[k] = append(writes[k], writeRec{thread: t, clock: vc[t].clone(), val: op.Val})
		case flight.Read:
			legal, ok := legalRead(writes[locKey{op.Obj, int(op.Word)}], t, vc[t], op, init)
			if !ok {
				bad(i, op, legal, "stale or phantom value under lazy release consistency")
			}
		case flight.Acquire:
			if owner, held := lockOwner[op.Sync]; held && owner >= 0 {
				bad(i, op, nil, fmt.Sprintf("lock %d acquired while thread %d still holds it", op.Sync, owner))
			}
			lockOwner[op.Sync] = t
			if rel := lastRel[op.Sync]; rel != nil {
				vc[t].join(rel)
			}
		case flight.Release:
			if owner, held := lockOwner[op.Sync]; !held || owner != t {
				bad(i, op, nil, fmt.Sprintf("lock %d released by non-holder", op.Sync))
			}
			lockOwner[op.Sync] = -1
			lastRel[op.Sync] = vc[t].clone()
		case flight.BarrierArrive:
			acc := barAccum[op.Sync]
			if acc == nil {
				acc = make(vclock, n)
				barAccum[op.Sync] = acc
			}
			acc.join(vc[t])
			key := barThread{op.Sync, t}
			arriveEp[key] = append(arriveEp[key], len(episodes[op.Sync]))
		case flight.BarrierRelease:
			acc := barAccum[op.Sync]
			if acc == nil {
				bad(i, op, nil, "barrier released with no arrivals")
				acc = make(vclock, n)
			}
			episodes[op.Sync] = append(episodes[op.Sync], acc)
			delete(barAccum, op.Sync)
		case flight.BarrierDepart:
			key := barThread{op.Sync, t}
			q := arriveEp[key]
			if len(q) == 0 {
				bad(i, op, nil, "barrier departed without a matching arrival")
				continue
			}
			idx := q[0]
			arriveEp[key] = q[1:]
			eps := episodes[op.Sync]
			if idx >= len(eps) {
				bad(i, op, nil, "barrier departed before its episode was released")
				continue
			}
			vc[t].join(eps[idx])
		case flight.LockGrant:
			// Manager-side diagnostic only: the happens-before edge is
			// taken at the grantee's Acquire.
		}
	}
	return viols
}

// legalRead decides whether a read could legally return op.Val given the
// writes so far. The legal set is: the value of every happens-before-
// maximal write (two hb writes unordered with each other are both
// maximal — their diffs merge at the home in arrival order), the value
// of every write concurrent with the read, and — when no write happened
// before the read — the word's initial value.
func legalRead(ws []writeRec, rt int, rc vclock, op flight.Event, init InitFn) ([]uint64, bool) {
	want := uint64(0)
	if init != nil {
		want = init(op.Obj, int(op.Word))
	}
	legal := make([]uint64, 0, 4)
	addLegal := func(v uint64) {
		for _, x := range legal {
			if x == v {
				return
			}
		}
		if len(legal) < maxLegalValues {
			legal = append(legal, v)
		}
	}
	ok := false
	anyHB := false
	for wi := range ws {
		w := &ws[wi]
		if !hb(w.clock, w.thread, rc) {
			// Concurrent with the read (the log is in virtual-time order,
			// so a write recorded earlier can never be *after* the read):
			// LRC allows observing it.
			addLegal(w.val)
			if w.val == op.Val {
				ok = true
			}
			continue
		}
		anyHB = true
		// Happened before the read: legal only if hb-maximal, i.e. no
		// other hb write overwrote it on the way to this reader.
		dominated := false
		for wj := range ws {
			w2 := &ws[wj]
			if wi == wj || !hb(w2.clock, w2.thread, rc) {
				continue
			}
			if hb(w.clock, w.thread, w2.clock) {
				dominated = true
				break
			}
		}
		if !dominated {
			addLegal(w.val)
			if w.val == op.Val {
				ok = true
			}
		}
	}
	if !anyHB {
		addLegal(want)
		if op.Val == want {
			ok = true
		}
	}
	return legal, ok
}
