package oracle

import (
	"fmt"

	"repro/internal/flight"
)

type refWriteRec struct {
	thread int
	clock  vclock
	val    uint64
}

// referenceCheck is Check as it was before the per-thread prefix search,
// verbatim but for the names: the quadratic oracle, kept as the reference
// the linear one is tested against (linear_test.go). Each read's
// happens-before writes of its word are tested against every other write
// of that word.
func referenceCheck(threads int, events []flight.Event, init InitFn) []Violation {
	n := threads
	vc := make([]vclock, n)
	for i := range vc {
		vc[i] = make(vclock, n)
	}
	var (
		viols     []Violation
		writes    = map[locKey][]refWriteRec{}
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
	for i, op := range events {
		t := int(op.Thread)
		if threadKinds.Has(op.Kind) {
			if t < 0 || t >= n {
				bad(i, op, nil, fmt.Sprintf("thread id %d out of range (log of %d threads)", t, n))
				continue
			}
			vc[t][t]++
		}
		switch op.Kind {
		case flight.Write:
			k := locKey{op.Obj, int(op.Word)}
			writes[k] = append(writes[k], refWriteRec{thread: t, clock: vc[t].clone(), val: op.Val})
		case flight.Read:
			legal, ok := refLegalRead(writes[locKey{op.Obj, int(op.Word)}], t, vc[t], op, init)
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

// refLegalRead decides whether a read could legally return op.Val given the
// writes so far. The legal set is: the value of every happens-before-
// maximal write (two hb writes unordered with each other are both
// maximal — their diffs merge at the home in arrival order), the value
// of every write concurrent with the read, and — when no write happened
// before the read — the word's initial value.
func refLegalRead(ws []refWriteRec, rt int, rc vclock, op flight.Event, init InitFn) ([]uint64, bool) {
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
