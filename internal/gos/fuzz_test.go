package gos

import (
	"fmt"
	"testing"

	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/prng"
	"repro/internal/proto"
)

// fuzzProgram is a randomly generated, barrier-structured shared-memory
// program whose final state is policy- and timing-independent: in each
// phase every object has at most one writer, readers never read objects
// written in the same phase, and phases are separated by barriers. Its
// reference semantics are computed on plain Go slices.
type fuzzProgram struct {
	nodes   int
	objects int
	words   int
	phases  int
	// writer[phase][obj] = thread that writes obj this phase (-1 none).
	writer [][]int
	// value written: deterministic function of (phase, obj, word).
}

func genProgram(seed uint64) fuzzProgram {
	r := prng.New(seed*2654435761 + 99)
	p := fuzzProgram{
		nodes:   2 + r.Intn(4), // 2..5
		objects: 1 + r.Intn(6), // 1..6
		words:   1 + r.Intn(8), // 1..8
		phases:  2 + r.Intn(5), // 2..6
	}
	for ph := 0; ph < p.phases; ph++ {
		row := make([]int, p.objects)
		for o := range row {
			// ~1/4 of objects rest each phase.
			if r.Intn(4) == 0 {
				row[o] = -1
			} else {
				row[o] = r.Intn(p.nodes)
			}
		}
		p.writer = append(p.writer, row)
	}
	return p
}

func fuzzValue(phase, obj, word int) uint64 {
	return uint64(phase+1)<<32 | uint64(obj)<<16 | uint64(word+1)
}

// reference computes the final object states sequentially.
func (p fuzzProgram) reference() [][]uint64 {
	state := make([][]uint64, p.objects)
	for o := range state {
		state[o] = make([]uint64, p.words)
	}
	for ph := 0; ph < p.phases; ph++ {
		for o, w := range p.writer[ph] {
			if w < 0 {
				continue
			}
			for k := 0; k < p.words; k++ {
				state[o][k] = fuzzValue(ph, o, k)
			}
		}
	}
	return state
}

// run executes the program on the DSM and returns the final states. Each
// thread also read-verifies, against the reference semantics, a value
// written in the *previous* phase by another thread.
func (p fuzzProgram) run(t *testing.T, pol migration.Policy, loc locator.Kind) [][]uint64 {
	t.Helper()
	cfg := testConfig(p.nodes, pol, loc)
	c := New(cfg)
	var objs []memory.ObjectID
	for o := 0; o < p.objects; o++ {
		objs = append(objs, c.AddObject(p.words, memory.NodeID(o%p.nodes)))
	}
	bar := c.AddBarrier(0, p.nodes)
	errs := make(chan string, p.nodes*p.phases)
	var workers []proto.Worker
	for th := 0; th < p.nodes; th++ {
		th := th
		workers = append(workers, proto.Worker{Node: memory.NodeID(th), Name: fmt.Sprintf("f%d", th),
			Fn: func(tt proto.Thread) {
				for ph := 0; ph < p.phases; ph++ {
					// Verify one value from a previous phase. Only objects
					// with no writer in the *current* phase are race-free:
					// a concurrent writer may have already flushed at its
					// barrier arrival, and LRC permits the reader to
					// observe that (there is no synchronization between
					// them).
					if ph > 0 {
						r := prng.New(uint64(ph*1000+th) + 7)
						obj := r.Intn(p.objects)
						word := r.Intn(p.words)
						if p.writer[ph][obj] < 0 { // nobody writes it this phase
							want := uint64(0)
							for q := 0; q < ph; q++ {
								if p.writer[q][obj] >= 0 {
									want = fuzzValue(q, obj, word)
								}
							}
							if got := tt.Read(objs[obj], word); got != want {
								errs <- fmt.Sprintf("phase %d thread %d: obj %d word %d = %x, want %x",
									ph, th, obj, word, got, want)
							}
						}
					}
					for o, w := range p.writer[ph] {
						if w != th {
							continue
						}
						for k := 0; k < p.words; k++ {
							tt.Write(objs[o], k, fuzzValue(ph, o, k))
						}
					}
					tt.Barrier(bar)
				}
			}})
	}
	if _, err := c.Run(workers); err != nil {
		t.Fatalf("%s/%s: %v", pol.Name(), loc, err)
	}
	close(errs)
	for e := range errs {
		t.Errorf("%s/%s: %s", pol.Name(), loc, e)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("%s/%s: %v", pol.Name(), loc, err)
	}
	var out [][]uint64
	for _, id := range objs {
		data := c.ObjectData(id)
		out = append(out, append([]uint64(nil), data...))
	}
	return out
}

// TestCoherenceFuzz runs randomized programs under every policy × locator
// combination and demands that all of them produce exactly the reference
// final memory state — migration must never change program semantics.
func TestCoherenceFuzz(t *testing.T) {
	policies := []migration.Policy{
		migration.NoHM{},
		migration.Fixed{T: 1},
		migration.Fixed{T: 2},
		DefaultConfig(4).Policy,
		migration.JUMP{},
		migration.Jackal{Max: 5},
		migration.Jiajia{},
	}
	locators := []locator.Kind{locator.ForwardingPointer, locator.Manager, locator.Broadcast}
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 1; seed <= seeds; seed++ {
		p := genProgram(uint64(seed))
		want := p.reference()
		for _, pol := range policies {
			for _, loc := range locators {
				got := p.run(t, pol, loc)
				for o := range want {
					for k := range want[o] {
						if got[o][k] != want[o][k] {
							t.Fatalf("seed %d %s/%s: obj %d word %d = %x, want %x",
								seed, pol.Name(), loc, o, k, got[o][k], want[o][k])
						}
					}
				}
			}
		}
	}
}

// FuzzCoherence is the go-fuzz entry over the barrier-structured random
// programs: any seed must produce the reference final memory under a
// policy cross-section on the forwarding-pointer locator (the full
// policy × locator matrix runs in TestCoherenceFuzz; the fuzzer trades
// breadth per input for input volume).
func FuzzCoherence(f *testing.F) {
	for _, s := range []uint64{1, 5, 13, 1 << 33} {
		f.Add(s)
	}
	policies := []migration.Policy{
		migration.NoHM{}, DefaultConfig(4).Policy, migration.JUMP{}, migration.Jiajia{},
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := genProgram(seed)
		want := p.reference()
		for _, pol := range policies {
			got := p.run(t, pol, locator.ForwardingPointer)
			for o := range want {
				for k := range want[o] {
					if got[o][k] != want[o][k] {
						t.Fatalf("seed %d %s: obj %d word %d = %x, want %x",
							seed, pol.Name(), o, k, got[o][k], want[o][k])
					}
				}
			}
		}
	})
}

// TestLockFuzz exercises lock-protected commutative updates (counter
// increments) under every policy: the final sums are order-independent
// and must match exactly.
func TestLockFuzz(t *testing.T) {
	policies := []migration.Policy{
		migration.NoHM{}, migration.Fixed{T: 1}, DefaultConfig(4).Policy, migration.JUMP{},
	}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 1; seed <= seeds; seed++ {
		r := prng.New(uint64(seed) * 31)
		nodes := 2 + r.Intn(3)
		objects := 1 + r.Intn(3)
		incsPer := 5 + r.Intn(15)
		// Precompute each thread's target sequence.
		targets := make([][]int, nodes)
		expected := make([]uint64, objects)
		for th := range targets {
			for i := 0; i < incsPer; i++ {
				obj := r.Intn(objects)
				targets[th] = append(targets[th], obj)
				expected[obj]++
			}
		}
		for _, pol := range policies {
			c := New(testConfig(nodes, pol, locator.ForwardingPointer))
			var objs []memory.ObjectID
			for o := 0; o < objects; o++ {
				objs = append(objs, c.AddObject(1, memory.NodeID(o%nodes)))
			}
			lock := c.AddLock(0)
			var workers []proto.Worker
			for th := 0; th < nodes; th++ {
				seq := targets[th]
				workers = append(workers, proto.Worker{Node: memory.NodeID(th), Name: fmt.Sprintf("l%d", th),
					Fn: func(tt proto.Thread) {
						for _, obj := range seq {
							tt.Acquire(lock)
							tt.Write(objs[obj], 0, tt.Read(objs[obj], 0)+1)
							tt.Release(lock)
						}
					}})
			}
			if _, err := c.Run(workers); err != nil {
				t.Fatalf("seed %d %s: %v", seed, pol.Name(), err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, pol.Name(), err)
			}
			for o, id := range objs {
				if got := c.ObjectData(id)[0]; got != expected[o] {
					t.Fatalf("seed %d %s: obj %d = %d, want %d", seed, pol.Name(), o, got, expected[o])
				}
			}
		}
	}
}
