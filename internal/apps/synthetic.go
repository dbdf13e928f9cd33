package apps

import (
	"fmt"

	dsm "repro"
)

// Synthetic is the §5.2 micro-benchmark (Fig. 4): worker threads—started
// on the nodes *other* than the application's start node—update a shared
// counter object r consecutive times per turn, each update enclosed in a
// synchronized block so it reaches the home at the enclosing release.
// r is "the repetition of the single-writer pattern": large r is the
// lasting pattern home migration should exploit; small r is the
// transient pattern it should leave alone.
//
// All synchronization objects (lock0, lock1) and the counter are created
// at node 0, so every synchronization operation is remote for all
// workers, exactly as in the paper's setup.

// SyntheticOpts parameterizes the micro-benchmark.
type SyntheticOpts struct {
	// Repetition is r: consecutive updates per lock0 turn.
	Repetition int
	// TotalUpdates is n: the loop terminates once the counter reaches it.
	TotalUpdates int
	// Workers is the number of worker threads (paper: 8). Workers run on
	// nodes 1..Workers; node 0 only hosts the homes and lock managers, so
	// Options.Nodes must be at least Workers+1.
	Workers int
	// ComputePerTurn is the "simple arithmetic computation" between
	// turns; defaults to 200µs.
	ComputePerTurn dsm.Time
}

// RunSynthetic executes the micro-benchmark and returns its metrics. The
// final counter value is validated: it must be at least TotalUpdates and
// overshoot by less than one full turn per worker.
func RunSynthetic(so SyntheticOpts, o Options) (Result, error) {
	if so.Repetition < 1 {
		return Result{}, fmt.Errorf("synthetic: repetition must be >= 1, got %d", so.Repetition)
	}
	if so.Workers < 1 {
		return Result{}, fmt.Errorf("synthetic: need at least one worker")
	}
	if o.Nodes < so.Workers+1 {
		return Result{}, fmt.Errorf("synthetic: need %d nodes for %d workers (+ start node), have %d",
			so.Workers+1, so.Workers, o.Nodes)
	}
	if so.TotalUpdates < 1 {
		return Result{}, fmt.Errorf("synthetic: TotalUpdates must be >= 1")
	}
	compute := so.ComputePerTurn
	if compute == 0 {
		compute = 200 * dsm.Microsecond
	}
	c, rec, err := o.cluster()
	if err != nil {
		return Result{}, err
	}
	counter := c.NewObject("counter", 1, 0) // created at the start node
	lock0 := c.NewLock(0)
	lock1 := c.NewLock(0)

	var workers []dsm.Worker
	for i := 1; i <= so.Workers; i++ {
		workers = append(workers, dsm.Worker{
			Node: dsm.NodeID(i),
			Name: fmt.Sprintf("worker%d", i),
			Fn: func(t dsm.Thread) {
				for {
					t.Acquire(lock0)
					if int(t.Read(counter, 0)) >= so.TotalUpdates {
						t.Release(lock0)
						return
					}
					// r consecutive updates, each its own synchronization
					// interval (Fig. 4's inner synchronized blocks).
					for j := 0; j < so.Repetition; j++ {
						t.Acquire(lock1)
						t.Write(counter, 0, t.Read(counter, 0)+1)
						t.Release(lock1)
					}
					t.Release(lock0)
					t.Compute(compute)
				}
			},
		})
	}
	m, err := c.RunWorkers(workers)
	if err != nil {
		return Result{}, fmt.Errorf("synthetic: %w", err)
	}
	name := fmt.Sprintf("Synthetic(r=%d,n=%d,w=%d,%s)", so.Repetition, so.TotalUpdates, so.Workers, c.PolicyName())
	return finish(c, o, rec, Result{App: name, Metrics: m}, func() error {
		got := int(c.Data(counter)[0])
		if got < so.TotalUpdates || got >= so.TotalUpdates+so.Repetition*so.Workers+so.Repetition {
			return fmt.Errorf("synthetic: counter = %d, want in [%d, %d)",
				got, so.TotalUpdates, so.TotalUpdates+so.Repetition*so.Workers+so.Repetition)
		}
		return nil
	})
}
