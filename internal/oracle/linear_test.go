package oracle

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/flight"
	"repro/internal/gos"
	"repro/internal/live"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/prng"
	"repro/internal/proto"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// TestBrokenProtocolCaught proves the oracle has teeth: running
// scenarios on a deliberately sabotaged protocol (DropDiffs discards
// every diff at flush time, so remote writes never reach the home) must
// produce oracle violations — and the same seeds must be clean without
// the sabotage. This is the falsifiability guarantee: a protocol change
// that silently loses release visibility cannot pass the sweep.
func TestBrokenProtocolCaught(t *testing.T) {
	oracleCaught, modelCaught := 0, 0
	for seed := uint64(1); seed <= 12; seed++ {
		p := scenario.Generate(seed)
		viols, wrong := rawVerdict(t, p, true)
		if viols > 0 {
			oracleCaught++
		}
		if wrong > 0 {
			modelCaught++
		}
		if viols, wrong := rawVerdict(t, p, false); viols+wrong > 0 {
			t.Fatalf("seed %d: intact protocol flagged: %d oracle violation(s), %d word(s) off the model",
				seed, viols, wrong)
		}
	}
	if oracleCaught < 6 {
		t.Errorf("oracle caught the skipped diff flush in only %d/12 scenarios", oracleCaught)
	}
	if modelCaught < 6 {
		t.Errorf("model check caught the skipped diff flush in only %d/12 scenarios", modelCaught)
	}
}

// TestLiveEngineCatchesSabotage re-runs the self-test on the live engine:
// a protocol that drops every diff must be flagged by the model or by the
// oracle, proving the live wiring of both is not vacuously green.
func TestLiveEngineCatchesSabotage(t *testing.T) {
	p := scenario.Generate(7)
	events, offModel := runRaw(t, p, "live", true)
	if offModel == 0 && len(Check(p.Threads, events, initial(p))) == 0 {
		t.Fatal("DropDiffs run passed the model and the oracle on live — their wiring is broken")
	}
}

// rawVerdict runs p's script on the sim engine and returns the two
// verdicts apps.RunScenario folds into one error: the oracle's
// violations, and the checked reads plus final words that differ from
// the model.
func rawVerdict(t *testing.T, p *scenario.Program, dropDiffs bool) (violations, offModel int) {
	t.Helper()
	events, offModel := runRaw(t, p, "sim", dropDiffs)
	return len(Check(p.Threads, events, initial(p))), offModel
}

// initial is p's InitFn.
func initial(p *scenario.Program) InitFn {
	return func(obj memory.ObjectID, word int) uint64 { return p.Initial()[obj][word] }
}

// runRaw runs p's script on an engine the test builds itself — DropDiffs
// is reachable from no configuration above proto.Shared — under the
// policy that never migrates (every remote write is a diff), and returns
// the run's oracle log and the checked reads plus final words that differ
// from the model.
func runRaw(t *testing.T, p *scenario.Program, engine string, dropDiffs bool) ([]flight.Event, int) {
	t.Helper()
	var (
		sp  *proto.Space
		run func([]proto.Worker) (stats.Metrics, error)
	)
	if engine == "live" {
		cfg := live.DefaultConfig(p.Nodes)
		cfg.Policy, cfg.DropDiffs = migration.NoHM{}, dropDiffs
		c := live.New(cfg)
		sp, run = c.Space, c.Run
	} else {
		cfg := gos.DefaultConfig(p.Nodes)
		cfg.Policy, cfg.DropDiffs, cfg.DebugWire = migration.NoHM{}, dropDiffs, true
		c := gos.New(cfg)
		sp, run = c.Space, c.Run
	}
	rec := flight.NewLog(Kinds, nil)
	sp.Subscribe(rec)
	objs := make([]memory.ObjectID, len(p.Words))
	for o, words := range p.Words {
		objs[o] = sp.AddObject(words, memory.NodeID(p.Homes[o]))
		data := p.Initial()[o]
		sp.InitObject(objs[o], func(ws []uint64) { copy(ws, data) })
	}
	locks := make([]proto.LockID, p.Locks)
	for l := range locks {
		locks[l] = sp.AddLock(memory.NodeID(l % p.Nodes))
	}
	var offModel atomic.Int64
	workers := p.Workers(objs, locks, sp.AddBarrier(0, p.Threads), func(error) { offModel.Add(1) })
	if _, err := run(workers); err != nil {
		t.Fatal(err)
	}
	end, _ := sp.EndState()
	for o, want := range p.Expected() {
		for w, v := range end.ObjectData(objs[o]) {
			if v != want[w] {
				offModel.Add(1)
			}
		}
	}
	return rec.Events, int(offModel.Load())
}

// sameVerdict fails t unless Check and the quadratic reference it
// replaced report the same violations on events, field for field and in
// the same order, and returns how many there were.
func sameVerdict(t *testing.T, what string, threads int, events []flight.Event, init InitFn) int {
	t.Helper()
	got, want := Check(threads, events, init), referenceCheck(threads, events, init)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Check differs from the reference over %d events:\n got %v\nwant %v", what, len(events), got, want)
	}
	return len(want)
}

// TestCheckMatchesReference holds Check to the quadratic oracle it
// replaced on real logs: every seed of the default -scenarios sweep, run
// intact and with diffs dropped on the sim engine, and a live run with
// diffs dropped.
func TestCheckMatchesReference(t *testing.T) {
	events, viols := 0, 0
	for seed := uint64(0); seed <= 200; seed++ {
		p := scenario.Generate(seed)
		for _, drop := range []bool{false, true} {
			log, _ := runRaw(t, p, "sim", drop)
			events += len(log)
			viols += sameVerdict(t, fmt.Sprintf("seed %d dropDiffs=%v", seed, drop), p.Threads, log, initial(p))
		}
	}
	p := scenario.Generate(7)
	log, _ := runRaw(t, p, "live", true)
	viols += sameVerdict(t, "live seed 7 dropDiffs=true", p.Threads, log, initial(p))
	t.Logf("%d events, %d violations, every one equal", events+len(log), viols)
	if viols == 0 {
		t.Fatal("no violation compared: the reference's Legal lists went untested")
	}
}

// FuzzCheckMatchesReference holds Check to the quadratic reference on
// random well-formed logs (genLog). Its seed corpus, which go test runs,
// is a few hundred generated inputs.
func FuzzCheckMatchesReference(f *testing.F) {
	r := prng.New(54)
	for range 400 {
		b := make([]byte, 8+r.Intn(400))
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		threads, events := genLog(b)
		sameVerdict(t, "fuzzed log", threads, events, func(obj memory.ObjectID, word int) uint64 { return uint64(word) })
	})
}

// genLog decodes b into a well-formed log of up to four threads over three
// words whose initial values are their indices: acquires and releases that
// keep two locks exclusive, episodes of a barrier of every thread,
// writes of small values, and reads that return the word's latest value,
// an older one, its initial value or one that may never have been written.
func genLog(b []byte) (threads int, events []flight.Event) {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		x := b[0]
		b = b[1:]
		return int(x)
	}
	threads = 1 + next()%4
	const words = 3
	var (
		holder  = [2]int{-1, -1}
		state   = make([]int, threads) // 0 running, 1 arrived, 2 released
		arrived = 0
		written [words][]uint64
	)
	emit := func(e flight.Event) { events = append(events, e) }
	for len(b) > 0 {
		t, op, arg := next()%threads, next()%8, next()
		th := int32(t)
		switch {
		case state[t] == 1:
			continue // waits for the episode's release
		case state[t] == 2:
			emit(flight.Event{Kind: flight.BarrierDepart, Thread: th})
			state[t] = 0
		case op <= 2:
			w := arg % words
			v := uint64(next() % 16)
			written[w] = append(written[w], v)
			emit(flight.Event{Kind: flight.Write, Thread: th, Word: int32(w), Val: v})
		case op <= 5:
			w := arg % words
			v := uint64(w)
			switch ws := written[w]; next() % 4 {
			case 0:
				if len(ws) > 0 {
					v = ws[len(ws)-1]
				}
			case 1:
				if len(ws) > 0 {
					v = ws[next()%len(ws)]
				}
			case 3:
				v = uint64(next() % 16)
			}
			emit(flight.Event{Kind: flight.Read, Thread: th, Word: int32(w), Val: v})
		case op == 6:
			l := arg % 2
			switch holder[l] {
			case -1:
				holder[l] = t
				emit(flight.Event{Kind: flight.Acquire, Thread: th, Sync: uint32(l)})
			case t:
				holder[l] = -1
				emit(flight.Event{Kind: flight.Release, Thread: th, Sync: uint32(l)})
			}
		default:
			emit(flight.Event{Kind: flight.BarrierArrive, Thread: th})
			state[t] = 1
			if arrived++; arrived == threads {
				emit(flight.Event{Kind: flight.BarrierRelease})
				arrived = 0
				for i := range state {
					state[i] = 2
				}
			}
		}
	}
	return threads, events
}
