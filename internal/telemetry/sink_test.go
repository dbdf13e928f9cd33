package telemetry

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/flight"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/prng"
)

// mapSink is the reference sketch: the same space-saving update, its
// entries found through a map keyed by object id. It keeps its entries,
// totals and decision counters in an embedded Sink, so Top, Total and
// Decisions read them exactly as they read the real sketch's; the
// embedded index stays unused.
type mapSink struct {
	*Sink
	byObj map[memory.ObjectID]int
}

func newMapSink(k int) *mapSink {
	return &mapSink{Sink: NewSink(k), byObj: map[memory.ObjectID]int{}}
}

func (r *mapSink) record(ev flight.Event) {
	switch ev.Kind {
	case flight.HomeRead:
		r.count(ev.Obj, HomeRead)
	case flight.HomeWrite:
		r.count(ev.Obj, HomeWrite)
	case flight.Request:
		r.count(ev.Obj, RemoteFault)
	case flight.RemoteWrite:
		r.count(ev.Obj, RemoteWrite)
	case flight.Decision:
		if ev.Reason < migration.NumReasons {
			if ev.Migrated {
				r.migrated[ev.Reason]++
			} else {
				r.stayed[ev.Reason]++
			}
		}
		if ev.Migrated {
			r.count(ev.Obj, ObjMigration)
		}
	}
}

func (r *mapSink) count(obj memory.ObjectID, kind AccessKind) {
	access := uint64(1)
	if kind == ObjMigration {
		access = 0
	}
	r.total += access
	i, ok := r.byObj[obj]
	switch {
	case ok:
	case len(r.entries) < r.k:
		r.entries = append(r.entries, entry{obj: obj})
		i = len(r.entries) - 1
		r.byObj[obj] = i
	default:
		for j := 1; j < len(r.entries); j++ {
			if r.entries[j].count < r.entries[i].count {
				i = j
			}
		}
		e := &r.entries[i]
		delete(r.byObj, e.obj)
		r.byObj[obj] = i
		*e = entry{obj: obj, count: e.count, err: e.count}
	}
	e := &r.entries[i]
	e.count += access
	e.kinds[kind]++
}

// randomEvent draws one event the sketch reads: mostly a hot set of low
// ids, now and then a sparse id up to 300, over all four access kinds and
// Decisions that migrated or stayed.
func randomEvent(r *prng.Rand) flight.Event {
	obj := memory.ObjectID(r.Intn(24))
	switch r.Intn(10) {
	case 0:
		obj = memory.ObjectID(r.Intn(301))
	case 1:
		obj = memory.ObjectID(240 + 15*r.Intn(5)) // 240, 255, ..., 300
	}
	kinds := [...]flight.Kind{flight.HomeRead, flight.HomeWrite, flight.Request, flight.RemoteWrite, flight.Decision}
	ev := flight.Event{Kind: kinds[r.Intn(len(kinds))], Obj: obj}
	if ev.Kind == flight.Decision {
		ev.Reason = migration.Reason(r.Intn(int(migration.NumReasons)))
		ev.Migrated = r.Intn(2) == 0
	}
	return ev
}

// The dense index answers exactly as the map-keyed sketch it replaced:
// the same hot set, counts, error bounds and columns, total and decision
// counters, checked every 100 events of seeded random streams.
func TestSinkMatchesMapKeyedReference(t *testing.T) {
	for _, k := range []int{1, 2, 8, 64} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("k%d/seed%d", k, seed), func(t *testing.T) {
				r := prng.New(seed)
				s, ref := NewSink(k), newMapSink(k)
				for i := 1; i <= 5000; i++ {
					ev := randomEvent(r)
					s.Record(ev)
					ref.record(ev)
					if i%100 != 0 {
						continue
					}
					if got, want := s.Top(0), ref.Top(0); !reflect.DeepEqual(got, want) {
						t.Fatalf("after %d events Top(0):\n got %+v\nwant %+v", i, got, want)
					}
					if got, want := s.Total(), ref.Total(); got != want {
						t.Fatalf("after %d events Total = %d, want %d", i, got, want)
					}
					gm, gs := s.Decisions()
					wm, ws := ref.Decisions()
					if !reflect.DeepEqual(gm, wm) || !reflect.DeepEqual(gs, ws) {
						t.Fatalf("after %d events Decisions = %v/%v, want %v/%v", i, gm, gs, wm, ws)
					}
				}
			})
		}
	}
}
