package dsm_test

import (
	"runtime"
	"testing"

	dsm "repro"

	"repro/internal/flight"
	"repro/internal/oracle"
)

// TestInitialWordReplaysInit: the oracle's initial values are the
// program's Init calls, whatever the run did to the memory since and
// whatever observers were listed. Row 0 is seeded by InitRow and then one
// element by InitInt64, which must win; node 1 then overwrites every word
// of it until its home migrates there. Row 1 is seeded and never written,
// and object x is never seeded.
func TestInitialWordReplaysInit(t *testing.T) {
	const cols, iters = 4, 6
	for _, engine := range []string{"sim", "live"} {
		t.Run(engine, func(t *testing.T) {
			c := dsm.New(dsm.Config{Nodes: 2, Engine: engine, DebugWire: engine == "sim"})
			a := c.NewArray("m", 2, cols, dsm.RoundRobin)
			unseeded := c.NewObject("x", cols, 1)
			a.InitRow(0, func(row []uint64) {
				for j := range row {
					row[j] = uint64(10 + j)
				}
			})
			a.InitInt64(0, 2, -7)
			a.InitRow(1, func(row []uint64) { row[3] = 99 })
			bar := c.NewBarrier(0, 2)
			_, err := c.Run(2, func(th dsm.Thread) {
				for it := range iters {
					if th.ID() == 1 {
						for j := range cols {
							a.SetInt64(th, 0, j, int64(1000*it+j))
						}
					}
					th.Barrier(bar)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := c.HomeOf(a.Object(0)); got != 1 {
				t.Fatalf("row 0 homed at %d after the run, want its writer 1", got)
			}
			if got := a.DataInt64(0)[2]; got != 1000*(iters-1)+2 {
				t.Fatalf("row 0 word 2 = %d after the run, want the last write", got)
			}
			for j, want := range []uint64{10, 11, uint64(1<<64 - 7), 13} {
				if got := c.InitialWord(a.Object(0), j); got != want {
					t.Errorf("initial row 0 word %d = %d, want %d", j, got, want)
				}
			}
			for j, want := range []uint64{0, 0, 0, 99} {
				if got := c.InitialWord(a.Object(1), j); got != want {
					t.Errorf("initial row 1 word %d = %d, want %d", j, got, want)
				}
				if got := c.InitialWord(unseeded, j); got != 0 {
					t.Errorf("initial word %d of a never-seeded object = %d, want 0", j, got)
				}
			}
		})
	}
}

// TestCheckedRunCopiesNoHeap: listing the oracle's log makes the run keep
// no copy of the memory. One seeded object of 2²² words — SOR 2048's
// 32 MB grid — and a run that reads one word at its home allocate well
// under the object's size; the word's initial value is replayed after.
func TestCheckedRunCopiesNoHeap(t *testing.T) {
	const words = 1 << 22
	log := flight.NewLog(oracle.Kinds, nil)
	c := dsm.New(dsm.Config{Nodes: 2, Observers: []dsm.Observer{log}})
	grid := c.NewObject("grid", words, 0)
	c.Init(grid, func(w []uint64) {
		for i := range w {
			w[i] = uint64(i)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Run(2, func(th dsm.Thread) {
		if th.ID() == 0 {
			th.Read(grid, 5)
		}
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > words {
		t.Errorf("the run allocated %d B, want under an eighth of the object's %d B", got, 8*words)
	}
	if viols := oracle.Check(c.Threads(), log.Events, c.InitialWord); len(viols) > 0 {
		t.Errorf("oracle: %v", viols)
	}
	if got := c.InitialWord(grid, words-1); got != words-1 {
		t.Errorf("initial last word = %d, want %d", got, words-1)
	}
}
