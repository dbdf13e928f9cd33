//dsm:wallclock experiments time real (non-simulated) runs and log wall-clock progress

// Package experiment is the parallel sweep substrate of every grid the
// repository runs — the figure and ablation sweeps and the scenario,
// cross-engine and chaos gates, all in internal/bench: a sweep is a flat
// list of Specs, executed across a pool of worker goroutines, each
// claiming the next unstarted spec as it falls idle, and reassembled in
// spec order — so every table, artifact and verdict printed from a
// parallel sweep is byte-identical to the sequential output. The pool is generic over what a run produces (Spec[T]): a run
// returns its whole result — metrics, digest, verdicts — and gets it back
// by index, so no client writes results into captured slots of its own.
//
// Each run owns an isolated sim.Env (the simulator has no package-level
// mutable state), so runs are embarrassingly parallel; the only shared
// state here is the claim cursor and the result slots, which are disjoint
// per spec.
package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/prng"
)

// Spec is one unit of work in a sweep: a label for progress/error context
// and a closure that performs the run. Run must be self-contained — it is
// invoked on an arbitrary worker goroutine, concurrently with other specs.
type Spec[T any] struct {
	// Label identifies the run in progress lines and error messages,
	// e.g. "fig2 ASP p=8 AT".
	Label string
	// Run executes the run and returns what it produced.
	Run func() (T, error)
}

// Outcome is the result slot for one Spec, in spec order.
type Outcome[T any] struct {
	Label  string
	Result T
	// Err is the run's error; a panicking run is converted to an error
	// carrying the label and the stack instead of taking the pool down.
	Err error
	// Wall is the host wall-clock time the run took (diagnostic only —
	// it never influences results or output tables).
	Wall time.Duration
}

// Event is one progress notification, emitted when a run completes.
// Events are delivered serially (never concurrently) but — under a
// parallel pool — not necessarily in spec order.
type Event struct {
	Done, Total int
	Label       string
	Err         error
	Wall        time.Duration // this run's wall-clock time
	Elapsed     time.Duration // pool wall-clock so far
	ETA         time.Duration // throughput-based estimate of time left
}

// String renders the event as a one-line progress message.
func (e Event) String() string {
	s := fmt.Sprintf("[%d/%d] %s (%s)", e.Done, e.Total, e.Label, round(e.Wall))
	if e.Err != nil {
		s += " FAILED"
	}
	if e.Done < e.Total && e.ETA > 0 {
		s += fmt.Sprintf(" eta %s", round(e.ETA))
	}
	return s
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(100 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(100 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}

// Pool executes specs across worker goroutines.
type Pool struct {
	// Workers is the goroutine count, resolved by Width. A pool of 1 runs
	// the specs strictly sequentially in spec order.
	Workers int
	// Progress, when non-nil, receives one Event per completed run.
	Progress func(Event)
}

// NewPool returns a pool of workers (see Width) that reports each
// completed run to progress as Event.String's one line — the form all of
// the pool's clients print; nil reports nothing.
func NewPool(workers int, progress func(string)) *Pool {
	p := &Pool{Workers: workers}
	if progress != nil {
		p.Progress = func(ev Event) { progress(ev.String()) }
	}
	return p
}

// Width resolves a requested worker count (Pool.Workers, a -par flag)
// to the number of goroutines that will run: <= 0 means GOMAXPROCS.
func Width(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Run executes every spec on p and returns one Outcome per spec, in spec
// order regardless of completion order. It never fails as a whole: a
// spec that errors or panics fails only its own slot (see Outcome.Err),
// and the remaining specs still run.
func Run[T any](p *Pool, specs []Spec[T]) []Outcome[T] {
	n := len(specs)
	outcomes := make([]Outcome[T], n)
	workers := Width(p.Workers)

	// Specs are independent and results land by index, so claiming is one
	// shared cursor: a worker takes the next unstarted spec, in spec order,
	// no worker idles while one is pending, and one with nothing left to
	// claim just returns.
	var (
		cursor atomic.Int64
		done   atomic.Int64
		progMu sync.Mutex
		start  = time.Now()
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(cursor.Add(1) - 1)
				if idx >= n {
					return
				}
				t0 := time.Now()
				res, err := runOne(specs[idx])
				wall := time.Since(t0)
				outcomes[idx] = Outcome[T]{Label: specs[idx].Label, Result: res, Err: err, Wall: wall}
				d := int(done.Add(1))
				if p.Progress != nil {
					progMu.Lock()
					elapsed := time.Since(start)
					var eta time.Duration
					if d < n {
						eta = elapsed / time.Duration(d) * time.Duration(n-d)
					}
					p.Progress(Event{
						Done: d, Total: n, Label: specs[idx].Label, Err: err,
						Wall: wall, Elapsed: elapsed, ETA: eta,
					})
					progMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return outcomes
}

// runOne invokes a spec with panic containment: a panic fails the spec
// with its label and stack instead of crashing the pool (or, worse,
// leaking the worker and deadlocking the WaitGroup).
func runOne[T any](s Spec[T]) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment: run %q panicked: %v\n%s", s.Label, r, debug.Stack())
		}
	}()
	return s.Run()
}

// FirstErr returns the first failure among outs in spec order (not
// completion order), prefixed with the spec's label; nil if every run
// succeeded.
func FirstErr[T any](outs []Outcome[T]) error {
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.Label, o.Err)
		}
	}
	return nil
}

// TrialSeed derives the input seed for a trial index. Trial 0 is the
// canonical paper input (seed 0, which every app maps to its fixed
// default input); later trials get splitmix64-mixed seeds (the shared
// prng.Mix finalizer) so the seed stream has no visible structure.
func TrialSeed(trial int) uint64 {
	if trial <= 0 {
		return 0
	}
	z := prng.Mix(uint64(trial) + prng.DefaultSeed)
	if z == 0 {
		z = 1
	}
	return z
}
