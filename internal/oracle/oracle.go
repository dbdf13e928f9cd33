// Package oracle is an executable lazy-release-consistency checker for
// the DSM. A Checker reads a run's events of Kinds — the thread-side
// events the protocol driver emits (every per-thread scalar access, lock
// acquire/release and barrier arrive/depart) plus the managers'
// BarrierRelease and LockGrant — as they arrive: listed in a cluster's
// observers (dsm.Config.Observers, either engine) it folds each one into
// the happens-before order those synchronization chains imply (vector
// clocks over the order the events arrive in) and judges each read at
// once, keeping no event. Check runs one over a finished log: the merge of
// a cluster's members' logs at node 0 (flight.Merge), or a test's. Every
// read must have been LRC-legal:
//
//   - a read must return the value of a happens-before-maximal write to
//     its word — never a value that a write ordered before the read has
//     already overwritten — or the value of a write concurrent with the
//     read (LRC places no obligation between unsynchronized threads);
//   - a word no write happened-before may also show its initial value;
//   - locks must be mutually exclusive, and barrier departures must
//     follow a completed episode.
//
// The checker keeps each word's writes per thread, in program order, so a
// read costs one binary search per thread and a test among the threads'
// last happens-before writes — O(T log W + T²) for T threads and W kept
// writes of its word — plus a step for each write concurrent with it, of
// which a data-race-free program leaves few. It keeps a write only while
// a future read could find it: thread u's write of a word goes once every
// thread's clock has reached u's next write of that word, for from then
// on every read has that next write happened-before it, and the next
// write overwrote this one. The word's writes are pruned whenever it is
// read or written. Each thread's last write of a word stays, and a
// barrier episode goes once every arrival in it has departed. So the
// checker holds the run's live writes, not its events, and is cheap
// enough to attach to every checked run at any length. A thread that
// stops synchronizing early holds the floor down: no other thread's
// writes it has not seen can go.
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
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/flight"
	"repro/internal/memory"
)

// threadKinds are the events issued by an application thread (Thread
// set); Kinds is everything a Checker reads — what it subscribes to, and
// what a log fed to Check must hold. LockGrant is a manager-side
// diagnostic only: the acquire-side happens-before edge comes from
// Acquire.
var (
	threadKinds = flight.MaskOf(flight.Read, flight.Write, flight.Acquire, flight.Release,
		flight.BarrierArrive, flight.BarrierDepart)
	Kinds = threadKinds | flight.MaskOf(flight.BarrierRelease, flight.LockGrant)
)

// InitFn supplies the pre-run initial value of a word (from InitObject
// seeding); nil means all words start at zero.
type InitFn func(obj memory.ObjectID, word int) uint64

// Violation is one LRC illegality found by a Checker.
type Violation struct {
	// OpIndex is the offending event's position in the stream.
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

// writeRec is one write of a word: its position in the stream, its
// thread's clock and the value written. A Checker keeps a word's writes
// per thread.
type writeRec struct {
	pos   int
	clock vclock
	val   uint64
}

type barThread struct {
	barrier uint32
	thread  int
}

// barState is one barrier's episodes: the one accumulating arrivals, and
// the released ones an arrival has yet to depart from.
type barState struct {
	acc      vclock // join of the accumulating episode's arrivals; nil before the first
	arrivals int    // into acc
	base     int    // the episode number of eps[0]
	eps      []episode
}

// episode is a released barrier episode: the join of its arrivals, which
// each departure takes, and how many have yet to depart.
type episode struct {
	clock vclock
	left  int
}

// maxLegalValues caps the legal-value list attached to a violation.
const maxLegalValues = 8

// Checker is the LRC check as a fold over a run's events: a
// flight.Subscriber of Kinds whose Record advances the clocks and judges
// the event on arrival, keeping none (see the package doc for what it
// keeps). It locks itself, as flight.Log does, so live nodes delivering at
// once fold their events in one total order, which must be consistent
// with happens-before (see Check). Read Ops and Violations after the run.
type Checker struct {
	// Threads reports the run's thread count (ids dense in [0, Threads()))
	// and Init its words' initial values (nil: zeros). The checker asks
	// Threads once, at the first event, and Init during the run, one call
	// at a time under its lock: a cluster's checker, listed before the
	// cluster is built, is bound to it after.
	Threads func() int
	Init    InitFn

	mu    sync.Mutex
	vc    []vclock // per thread; nil before the first event
	ops   int      // events received: the next one's position
	viols []Violation

	writes    map[locKey][][]writeRec // per word, per thread, in program order
	lastRel   map[uint32]vclock       // release clock per lock
	lockOwner map[uint32]int          // current holder per lock (-1 free)
	bars      map[uint32]*barState
	// arriveEp queues, per (barrier, thread), the episode number each
	// arrival feeds — the one accumulating at arrival time. The depart
	// joins exactly that episode, so a thread sitting out an episode
	// (subset-party barriers) cannot be matched to a stale one.
	arriveEp map[barThread][]int

	// free holds the clocks of dropped writes and episodes for the next
	// ones: a new clock per write is garbage that lifts a long run's peak.
	free    []vclock
	last    []*writeRec
	cands   []*writeRec
	initial writeRec
}

// NewChecker returns a checker that has seen no event. Bind Threads, and
// Init if words start nonzero, before the first event.
func NewChecker() *Checker {
	return &Checker{
		writes:    map[locKey][][]writeRec{},
		lastRel:   map[uint32]vclock{},
		lockOwner: map[uint32]int{},
		bars:      map[uint32]*barState{},
		arriveEp:  map[barThread][]int{},
	}
}

// Kinds implements flight.Subscriber.
func (c *Checker) Kinds() flight.Mask { return Kinds }

// Record implements flight.Subscriber: fold ev into the happens-before
// order and judge it.
func (c *Checker) Record(ev flight.Event) {
	c.mu.Lock()
	c.fold(ev)
	c.mu.Unlock()
}

// Ops reports how many events the checker received.
func (c *Checker) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Violations reports every violation found so far, in stream order
// (empty means the events were LRC-legal).
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viols
}

// Check folds events, the log of a run of threads threads (thread ids
// dense in [0, threads)), through one Checker, building the
// happens-before order from program order, lock transfer chains and
// barrier episodes, and returns every violation found (empty means the
// run was LRC-legal). init supplies pre-seeded initial values (nil =
// zeros).
//
// Of each event a Checker reads Thread, Obj, Word and Val of a
// Read/Write, Thread and Sync (the lock or barrier id) of the four
// thread-side sync kinds, and Sync of a BarrierRelease. The events must
// arrive in a total order consistent with happens-before: one process's
// do, on either engine (the simulation kernel is cooperatively scheduled;
// a live node emits under its state lock to a subscriber that folds under
// its own), and so does the HLC-ordered merge of a cluster's logs.
// Within one thread, events arrive in program order; Release after the
// release-side flush completed (all diff acks received) and before the
// lock can be granted on; Acquire after the grant arrived; BarrierArrive
// before the arrival is sent to the manager, BarrierRelease at the
// manager after every party arrived and before any BarrierDepart.
//
// Only scalar Read/Write accesses are events. Bulk ReadView/WriteView
// accesses are invisible (the values are not known at access time);
// programs meant to be oracle-checked must use the scalar path, as the
// scenario engine does.
func Check(threads int, events []flight.Event, init InitFn) []Violation {
	c := NewChecker()
	c.Threads, c.Init = func() int { return threads }, init
	for _, ev := range events {
		c.Record(ev)
	}
	return c.viols
}

// fold is Record under the lock.
func (c *Checker) fold(op flight.Event) {
	if c.vc == nil {
		n := 0
		if c.Threads != nil {
			n = c.Threads()
		}
		c.vc = make([]vclock, n)
		for i := range c.vc {
			c.vc[i] = make(vclock, n)
		}
		c.last = make([]*writeRec, n)
	}
	i := c.ops
	c.ops++
	bad := func(legal []uint64, reason string) {
		c.viols = append(c.viols, Violation{OpIndex: i, Op: op, Legal: legal, Reason: reason})
	}
	t := int(op.Thread)
	if threadKinds.Has(op.Kind) {
		if t < 0 || t >= len(c.vc) {
			bad(nil, fmt.Sprintf("thread id %d out of range (log of %d threads)", t, len(c.vc)))
			return
		}
		c.vc[t][t]++
	}
	switch op.Kind {
	case flight.Write:
		k := locKey{op.Obj, int(op.Word)}
		ws := c.writes[k]
		if ws == nil {
			ws = make([][]writeRec, len(c.vc))
			c.writes[k] = ws
		}
		ws[t] = append(ws[t], writeRec{pos: i, clock: c.clock(c.vc[t]), val: op.Val})
		c.prune(ws)
	case flight.Read:
		ws := c.writes[locKey{op.Obj, int(op.Word)}]
		c.prune(ws)
		if legal, ok := c.legalRead(ws, c.vc[t], op); !ok {
			bad(legal, "stale or phantom value under lazy release consistency")
		}
	case flight.Acquire:
		if owner, held := c.lockOwner[op.Sync]; held && owner >= 0 {
			bad(nil, fmt.Sprintf("lock %d acquired while thread %d still holds it", op.Sync, owner))
		}
		c.lockOwner[op.Sync] = t
		if rel := c.lastRel[op.Sync]; rel != nil {
			c.vc[t].join(rel)
		}
	case flight.Release:
		if owner, held := c.lockOwner[op.Sync]; !held || owner != t {
			bad(nil, fmt.Sprintf("lock %d released by non-holder", op.Sync))
		}
		c.lockOwner[op.Sync] = -1
		c.lastRel[op.Sync] = append(c.lastRel[op.Sync][:0], c.vc[t]...)
	case flight.BarrierArrive:
		b := c.bar(op.Sync)
		if b.acc == nil {
			b.acc = c.clock(nil)
		}
		b.acc.join(c.vc[t])
		b.arrivals++
		key := barThread{op.Sync, t}
		c.arriveEp[key] = append(c.arriveEp[key], b.base+len(b.eps))
	case flight.BarrierRelease:
		b := c.bar(op.Sync)
		if b.acc == nil {
			bad(nil, "barrier released with no arrivals")
			b.acc = c.clock(nil)
		}
		b.eps = append(b.eps, episode{clock: b.acc, left: b.arrivals})
		b.acc, b.arrivals = nil, 0
		c.dropDeparted(b)
	case flight.BarrierDepart:
		key := barThread{op.Sync, t}
		q := c.arriveEp[key]
		if len(q) == 0 {
			bad(nil, "barrier departed without a matching arrival")
			return
		}
		idx := q[0]
		c.arriveEp[key] = q[1:]
		b := c.bar(op.Sync)
		if idx >= b.base+len(b.eps) {
			bad(nil, "barrier departed before its episode was released")
			return
		}
		ep := &b.eps[idx-b.base]
		c.vc[t].join(ep.clock)
		ep.left--
		c.dropDeparted(b)
	case flight.LockGrant:
		// Manager-side diagnostic only: the happens-before edge is
		// taken at the grantee's Acquire.
	}
}

// bar returns barrier id's episodes.
func (c *Checker) bar(id uint32) *barState {
	b := c.bars[id]
	if b == nil {
		b = &barState{}
		c.bars[id] = b
	}
	return b
}

// dropDeparted drops b's oldest released episodes that every arrival has
// departed from: no departure can join them again.
func (c *Checker) dropDeparted(b *barState) {
	d := 0
	for d < len(b.eps) && b.eps[d].left == 0 {
		c.free = append(c.free, b.eps[d].clock)
		d++
	}
	if d > 0 {
		b.eps = slices.Delete(b.eps, 0, d)
		b.base += d
	}
}

// clock returns a copy of v (nil: a zero clock), in a dropped clock when
// there is one.
func (c *Checker) clock(v vclock) vclock {
	var w vclock
	if k := len(c.free); k > 0 {
		w, c.free = c.free[k-1], c.free[:k-1]
		clear(w)
	} else {
		w = make(vclock, len(c.vc))
	}
	copy(w, v)
	return w
}

// prune drops the writes of one word, ws[u] thread u's, that no read to
// come can find. u's write goes once every thread's clock has reached
// u's next write of the word: every later read has that one happened
// before it, and it overwrote the first. Each thread's last write stays.
func (c *Checker) prune(ws [][]writeRec) {
	for u, uw := range ws {
		d := 0
		for d+1 < len(uw) && c.seenByAll(u, uw[d+1].clock[u]) {
			c.free = append(c.free, uw[d].clock)
			d++
		}
		if d > 0 {
			ws[u] = slices.Delete(uw, 0, d)
		}
	}
}

// seenByAll reports whether every thread's clock has reached x in u's
// component: whether u's event stamped x happened before whatever any
// thread does next.
func (c *Checker) seenByAll(u int, x uint32) bool {
	for _, v := range c.vc {
		if v[u] < x {
			return false
		}
	}
	return true
}

// legalRead decides whether a read could legally return op.Val given the
// writes kept, ws[u] holding thread u's writes of the word in program
// order. The legal set is: the value of every happens-before-maximal write
// (two hb writes unordered with each other are both maximal — their diffs
// merge at the home in arrival order), the value of every write concurrent
// with the read, and — when no write happened before the read — the word's
// initial value. legal lists the set in stream order, and only when ok is
// false.
//
// Every thread event ticks its own clock component, so along ws[u] clock[u]
// strictly increases: u's writes that happened before the read are the
// prefix with clock[u] ≤ rc[u], and the rest are concurrent with it (the
// stream is consistent with happens-before, so no write received before
// the read can follow it). Of a prefix only the last write can be
// hb-maximal, and it is unless another thread's last hb write has seen it —
// clocks only grow along a thread, so that write's view of u is the widest
// of its thread's. prune keeps each prefix's last write.
func (c *Checker) legalRead(ws [][]writeRec, rc vclock, op flight.Event) (legal []uint64, ok bool) {
	last, cands := c.last[:len(ws)], c.cands[:0] // per thread, its last hb write
	for u, uw := range ws {
		n := sort.Search(len(uw), func(i int) bool { return !hb(uw[i].clock, u, rc) })
		if n > 0 {
			last[u] = &uw[n-1]
		}
		for i := n; i < len(uw); i++ {
			cands = append(cands, &uw[i])
		}
	}
	for u, w := range last {
		if w != nil && !slices.ContainsFunc(last, func(w2 *writeRec) bool { return w2 != nil && w2 != w && hb(w.clock, u, w2.clock) }) {
			cands = append(cands, w)
		}
	}
	if !slices.ContainsFunc(last, func(w *writeRec) bool { return w != nil }) {
		c.initial = writeRec{pos: math.MaxInt} // the initial value, listed last
		if c.Init != nil {
			c.initial.val = c.Init(op.Obj, int(op.Word))
		}
		cands = append(cands, &c.initial)
	}
	ok = slices.ContainsFunc(cands, func(w *writeRec) bool { return w.val == op.Val })
	if !ok {
		slices.SortFunc(cands, func(a, b *writeRec) int { return a.pos - b.pos })
		for _, w := range cands {
			if len(legal) < maxLegalValues && !slices.Contains(legal, w.val) {
				legal = append(legal, w.val)
			}
		}
	}
	clear(last)
	clear(cands)
	c.cands = cands[:0]
	return legal, ok
}
