package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/prng"
)

// scheduled is one event a randomSchedule filed: its scheduling ordinal
// (the index in the schedule log) and the time it is due.
type scheduled struct {
	id  int
	due Time
}

// randomSchedule mixes every way the kernel files an event — At,
// DeliverAt (with and without an in-flight counter), a proc's Sleep and
// Spawn, and a consumer's After — with equal and zero delays, from the
// top level, from inside callbacks and from procs. It logs each event as
// it is filed and again as it fires. A delivery fires unseen, onto a queue
// nobody waits on, so the queue's FIFO order is its firing order: every
// observed firing first drains the deliveries that fired before it.
type randomSchedule struct {
	e        *Env
	rnd      *prng.Rand
	budget   int         // events still to file
	filed    []scheduled // in scheduling order
	fired    []int       // ids, in firing order
	net      *Queue      // DeliverAt target: no consumer, no waiter
	step     *Queue      // a consumer that is only ever scheduled through After
	inflight int
	peak     int // most keys in the heap at one firing
}

func (s *randomSchedule) file(d Time) int {
	s.budget--
	s.filed = append(s.filed, scheduled{id: len(s.filed), due: s.e.Now() + max(d, 0)})
	return len(s.filed) - 1
}

func (s *randomSchedule) drain() {
	for {
		v, ok := s.net.TryRecv()
		if !ok {
			return
		}
		s.fired = append(s.fired, v.(int))
	}
}

func (s *randomSchedule) fire(id int) {
	s.drain()
	s.fired = append(s.fired, id)
	s.peak = max(s.peak, len(s.e.heap))
}

// delay draws from few values, so most events tie with others.
func (s *randomSchedule) delay() Time {
	return []Time{0, 0, 1, 2, 5, 5, 13}[s.rnd.Intn(7)]
}

// spray files up to k callbacks and deliveries.
func (s *randomSchedule) spray(k int) {
	for i := 0; i < k && s.budget > 0; i++ {
		d := s.delay()
		switch s.rnd.Intn(4) {
		case 0:
			id := s.file(d)
			s.e.At(d, s.callback(id))
		case 1:
			id := s.file(d)
			s.step.After(d, s.callback(id))
		case 2:
			s.e.DeliverAt(d, s.net, s.file(d), nil)
		default:
			s.inflight++
			s.e.DeliverAt(d, s.net, s.file(d), &s.inflight)
		}
	}
}

func (s *randomSchedule) callback(id int) func() {
	return func() {
		s.fire(id)
		s.spray(s.rnd.Intn(3))
	}
}

func (s *randomSchedule) proc(name string) {
	id := s.file(0)
	s.e.Spawn(name, func(p *Proc) {
		s.fire(id)
		for s.budget > 0 {
			s.spray(1 + s.rnd.Intn(3))
			d := s.delay()
			id := s.file(d)
			p.Sleep(d)
			s.fire(id)
		}
	})
}

func runRandomSchedule(t *testing.T, seed uint64) *randomSchedule {
	e := NewEnv()
	s := &randomSchedule{e: e, rnd: prng.New(seed), budget: 3000, net: e.NewQueue("net"), step: e.NewQueue("step")}
	s.step.Consume(func() string { return "step" }, func() {})
	s.spray(200) // a wide heap at time zero: several full 4-ary levels
	for i := 0; i < 3; i++ {
		s.proc(fmt.Sprintf("p%d", i))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s.drain()
	return s
}

// TestEventOrderAndSlabHygiene: over seeded random schedules, events fire
// exactly in the stable sort of the schedule log by due time — (t, seq)
// order — and after Run every slab slot is free and zero, so no fired
// event keeps its proc, queue, payload or callback reachable.
func TestEventOrderAndSlabHygiene(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		s := runRandomSchedule(t, seed)
		want := slices.Clone(s.filed)
		slices.SortStableFunc(want, func(a, b scheduled) int { return cmp.Compare(a.due, b.due) })
		ids := make([]int, len(want))
		for i, w := range want {
			ids[i] = w.id
		}
		if !slices.Equal(s.fired, ids) {
			i := 0
			for i < min(len(s.fired), len(ids)) && s.fired[i] == ids[i] {
				i++
			}
			t.Fatalf("seed %d: %d events filed, %d fired; firing %d departs from the stable sort by due time:\ngot  %v\nwant %v",
				seed, len(ids), len(s.fired), i, s.fired[i:min(i+8, len(s.fired))], ids[i:min(i+8, len(ids))])
		}
		if s.peak <= 1+4+16 {
			t.Errorf("seed %d: the heap peaked at %d keys, want more than two full 4-ary levels", seed, s.peak)
		}
		if s.inflight != 0 {
			t.Errorf("seed %d: in-flight counter %d after Run, want 0", seed, s.inflight)
		}
		e := s.e
		if len(e.heap) != 0 || len(e.free) != len(e.slab) {
			t.Fatalf("seed %d: %d keys left, %d of %d slots free", seed, len(e.heap), len(e.free), len(e.slab))
		}
		free := slices.Sorted(slices.Values(e.free))
		for i, ev := range e.slab {
			if free[i] != int32(i) {
				t.Fatalf("seed %d: free list %v is not every slot once", seed, free)
			}
			if ev.kind != 0 || ev.proc != nil || ev.q != nil || ev.msg != nil || ev.inflight != nil || ev.fn != nil {
				t.Fatalf("seed %d: slot %d still holds %+v", seed, i, ev)
			}
		}
	}
}
