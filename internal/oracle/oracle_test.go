package oracle_test

import (
	"slices"
	"strings"
	"testing"

	dsm "repro"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/flight"
	"repro/internal/memory"
	"repro/internal/oracle"
	"repro/internal/scenario"
)

// log is the oracle log of a run of threads threads, with shorthands for
// building it by hand.
type log struct {
	*flight.Log
	threads int
}

// rec builds an empty log for n threads.
func rec(n int) log { return log{flight.NewLog(oracle.Kinds, nil), n} }

// check is oracle.Check over the log.
func (l log) check(init oracle.InitFn) []oracle.Violation {
	return oracle.Check(l.threads, l.Events, init)
}

func (l log) access(k flight.Kind, thread int, obj memory.ObjectID, word int, val uint64) {
	l.Record(flight.Event{Kind: k, Thread: int32(thread), Obj: obj, Word: int32(word), Val: val})
}

func (l log) sync(k flight.Kind, thread int, id uint32) {
	l.Record(flight.Event{Kind: k, Thread: int32(thread), Sync: id})
}

func (l log) read(thread int, obj memory.ObjectID, word int, val uint64) {
	l.access(flight.Read, thread, obj, word, val)
}

func (l log) write(thread int, obj memory.ObjectID, word int, val uint64) {
	l.access(flight.Write, thread, obj, word, val)
}

func (l log) acquire(thread int, lock uint32) { l.sync(flight.Acquire, thread, lock) }
func (l log) release(thread int, lock uint32) { l.sync(flight.Release, thread, lock) }
func (l log) arrive(thread int, bar uint32)   { l.sync(flight.BarrierArrive, thread, bar) }
func (l log) depart(thread int, bar uint32)   { l.sync(flight.BarrierDepart, thread, bar) }

// barRelease is the manager-side episode completion (no thread).
func (l log) barRelease(bar uint32) { l.sync(flight.BarrierRelease, 0, bar) }

// TestHandBuiltLogs drives the oracle directly with tiny
// synthetic logs, one per legality rule, and checks the oracle's verdict
// — the oracle's own unit semantics, independent of the DSM.
func TestHandBuiltLogs(t *testing.T) {
	const obj = memory.ObjectID(0)
	cases := []struct {
		name  string
		build func(r log)
		nviol int
		match string
	}{
		{
			name: "lock-chain read of latest value is legal",
			build: func(r log) {
				r.acquire(0, 0)
				r.write(0, obj, 0, 7)
				r.release(0, 0)
				r.acquire(1, 0)
				r.read(1, obj, 0, 7)
				r.release(1, 0)
			},
		},
		{
			name: "lock-chain stale read is a violation",
			build: func(r log) {
				r.acquire(0, 0)
				r.write(0, obj, 0, 7)
				r.release(0, 0)
				r.acquire(1, 0)
				r.read(1, obj, 0, 0) // must see 7
				r.release(1, 0)
			},
			nviol: 1, match: "stale or phantom",
		},
		{
			name: "overwritten (dominated) value is a violation",
			build: func(r log) {
				r.acquire(0, 0)
				r.write(0, obj, 0, 1)
				r.write(0, obj, 0, 2)
				r.release(0, 0)
				r.acquire(1, 0)
				r.read(1, obj, 0, 1) // 1 was overwritten by 2 before the release
				r.release(1, 0)
			},
			nviol: 1, match: "stale or phantom",
		},
		{
			name: "concurrent value or initial value are both legal",
			build: func(r log) {
				r.write(0, obj, 0, 9) // unsynchronized with thread 1
				r.read(1, obj, 0, 9)  // may see it...
				r.read(1, obj, 0, 0)  // ...or the initial value
			},
		},
		{
			name: "phantom value is a violation",
			build: func(r log) {
				r.write(0, obj, 0, 9)
				r.read(1, obj, 0, 5) // nobody ever wrote 5
			},
			nviol: 1, match: "stale or phantom",
		},
		{
			name: "barrier orders writes before later-phase reads",
			build: func(r log) {
				r.write(0, obj, 0, 3)
				r.arrive(0, 0)
				r.arrive(1, 0)
				r.barRelease(0)
				r.depart(0, 0)
				r.depart(1, 0)
				r.read(1, obj, 0, 3)
			},
		},
		{
			name: "stale read across a barrier is a violation",
			build: func(r log) {
				r.write(0, obj, 0, 3)
				r.arrive(0, 0)
				r.arrive(1, 0)
				r.barRelease(0)
				r.depart(0, 0)
				r.depart(1, 0)
				r.read(1, obj, 0, 0)
			},
			nviol: 1, match: "stale or phantom",
		},
		{
			name: "second barrier episode builds on the first",
			build: func(r log) {
				r.write(0, obj, 0, 1)
				r.arrive(0, 0)
				r.arrive(1, 0)
				r.barRelease(0)
				r.depart(0, 0)
				r.depart(1, 0)
				r.write(1, obj, 0, 2)
				r.arrive(0, 0)
				r.arrive(1, 0)
				r.barRelease(0)
				r.depart(0, 0)
				r.depart(1, 0)
				r.read(0, obj, 0, 1) // dominated by thread 1's phase-2 write
			},
			nviol: 1, match: "stale or phantom",
		},
		{
			name: "a write every thread has seen stays while its successor is unseen",
			build: func(r log) {
				r.acquire(0, 0)
				r.write(0, obj, 0, 1)
				r.release(0, 0)
				r.acquire(1, 0)
				r.release(1, 0)
				r.write(0, obj, 0, 2) // unsynchronized with thread 1
				r.read(1, obj, 0, 1)  // 1 is still hb-maximal for thread 1
			},
		},
		{
			name: "double acquire without release is flagged",
			build: func(r log) {
				r.acquire(0, 0)
				r.acquire(1, 0)
			},
			nviol: 1, match: "still holds",
		},
		{
			name: "depart before episode release is flagged",
			build: func(r log) {
				r.arrive(0, 0)
				r.depart(0, 0)
			},
			nviol: 1, match: "before its episode",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rec(2)
			tc.build(r)
			viols := r.check(nil)
			if len(viols) != tc.nviol {
				t.Fatalf("got %d violations, want %d: %v", len(viols), tc.nviol, viols)
			}
			if tc.nviol > 0 && !strings.Contains(viols[0].String(), tc.match) {
				t.Fatalf("violation %q does not mention %q", viols[0], tc.match)
			}
		})
	}
}

// TestSubsetBarrierEpisodes: a thread that sits out a barrier episode
// must join the episode its own arrival fed, not the oldest unclaimed
// one. Thread 2 skips episode 0; its depart from episode 1 must order
// thread 0's episode-1 write before its read — a per-thread departure
// counter would match it to episode 0 and miss the stale read.
func TestSubsetBarrierEpisodes(t *testing.T) {
	const obj = memory.ObjectID(0)
	build := func(r log, readVal uint64) []oracle.Violation {
		r.write(0, obj, 0, 1)
		r.arrive(0, 0) // episode 0: threads 0 and 1
		r.arrive(1, 0)
		r.barRelease(0)
		r.depart(0, 0)
		r.depart(1, 0)
		r.write(0, obj, 0, 2)
		r.arrive(0, 0) // episode 1: threads 0 and 2
		r.arrive(2, 0)
		r.barRelease(0)
		r.depart(0, 0)
		r.depart(2, 0)
		r.read(2, obj, 0, readVal)
		return r.check(nil)
	}
	if viols := build(rec(3), 2); len(viols) != 0 {
		t.Fatalf("reading the episode-1 value flagged: %v", viols)
	}
	if viols := build(rec(3), 1); len(viols) != 1 {
		t.Fatalf("stale episode-0 value not flagged: %v", viols)
	}
}

// TestInitialValues: with an InitFn, a never-written word must show its
// seeded value, and anything else is phantom.
func TestInitialValues(t *testing.T) {
	init := func(obj memory.ObjectID, word int) uint64 { return 40 + uint64(word) }
	r := rec(1)
	r.read(0, 0, 2, 42)
	if v := r.check(init); len(v) != 0 {
		t.Fatalf("seeded initial value flagged: %v", v)
	}
	r = rec(1)
	r.read(0, 0, 2, 0)
	if v := r.check(init); len(v) != 1 {
		t.Fatalf("zero against seeded initial value not flagged: %v", v)
	}
}

// TestScenarioSweep200 is the acceptance sweep: 200 seeded random
// scenarios, each run under every builtin migration policy, must pass
// the engine check, the oracle, the protocol invariants, and leave
// byte-identical final memory across policies. -short trims the range.
func TestScenarioSweep200(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	st, err := bench.Sweep([]string{"sim"}, 1, n, bench.RunOpts{})
	if err != nil {
		for _, f := range st.Failures {
			t.Error(f)
		}
		t.Fatal(err)
	}
	t.Logf("sweep: %d scenarios, %d runs, %d checked reads, %d oracle ops",
		st.Scenarios, st.Runs, st.ReadsChecked, st.OracleOps)
	if st.ReadsChecked == 0 || st.OracleOps == 0 {
		t.Fatal("sweep did no verification work")
	}
}

// FuzzScenario feeds arbitrary seeds to the scenario engine under a
// policy cross-section (never-migrate, the paper's adaptive protocol,
// always-migrate, and the barrier-driven related work), demanding clean
// verdicts and policy-independent final memory on every input.
func FuzzScenario(f *testing.F) {
	for _, s := range []uint64{1, 7, 42, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := scenario.Generate(seed)
		lc := bench.Locators[int(seed%3)]
		// Select by name, so a reorder of Builtins cannot silently swap
		// the fuzzed cross-section: never-migrate, the paper's adaptive
		// protocol, always-migrate, barrier-driven.
		pols := []string{"NoHM", "AT", "JUMP", "Jiajia"}
		for _, name := range pols {
			if !slices.Contains(bench.Policies(), name) {
				t.Fatalf("policy %s missing from Builtins", name)
			}
		}
		var digest uint64
		for i, pol := range pols {
			res, err := apps.RunScenario(p, apps.Options{
				Config: dsm.Config{Policy: pol, Locator: lc, DebugWire: true},
				Check:  true,
			})
			if err != nil {
				t.Errorf("seed %d %s %s/%s: %v", seed, p.Family, pol, lc, err)
				continue
			}
			if i == 0 {
				digest = res.Digest
			} else if res.Digest != digest {
				t.Errorf("seed %d %s: digest differs between %s and %s",
					seed, p.Family, pols[0], pol)
			}
		}
	})
}
