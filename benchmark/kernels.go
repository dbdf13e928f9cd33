//dsm:wallclock the kernels time their own DSM calls and epochs

package main

import (
	"fmt"
	"math"
	"time"

	dsm "repro"

	"repro/internal/prng"
)

// The two kernels, written against the public dsm API only. Both run one
// application thread per node in a closed loop over fixed work:
//
//	warm-up | start line | 10 timed epochs | end line
//
// Every thread runs the same Warm untimed units and then the same Units
// timed units, a tenth per epoch; the start and end lines are barriers.

var clockBase = time.Now()

// now is the monotonic clock of this process, in nanoseconds.
func now() int64 { return int64(time.Since(clockBase)) }

// runParams sizes one run.
type runParams struct {
	Warm  int // untimed warm-up units (turns per worker, or iterations)
	Units int // timed units, a multiple of epochs
	Seed  uint64
	// Skew shifts what validation expects; a non-zero value must fail
	// the run (the harness's self-test).
	Skew int
}

// hooks let the harness observe a kernel without the kernel knowing how.
type hooks struct {
	wrap  func(dsm.Thread) dsm.Thread // traced runs decorate the thread
	start func()                      // a thread crossed the start line
	end   func()                      // a thread crossed the end line
}

// recorder holds what one application thread measured. Latencies are
// recorded in the timed region only.
type recorder struct {
	on       bool
	op       hist  // one op, start to end
	fault    hist  // app-visible remote fault-in
	sync     hist  // Acquire(lock1) or Barrier, call to return
	turnWait hist  // Acquire(lock0): waiting for the turn (lock kernel)
	firstOp  int64 // Unix nanoseconds
	start    int64 // start line, on this process's monotonic clock
	end      int64
	epochEnd [epochs]int64
	timedOps int64
	warmOps  int64
}

type kernel interface {
	declare(c *dsm.Cluster)
	workers() []dsm.Worker
	// validate checks the final shared memory against the work the
	// threads ran (warm-up plus timed units).
	validate(c *dsm.Cluster) error
	recorders() []*recorder
}

func newKernel(name string, p runParams, h hooks) (kernel, error) {
	if h.wrap == nil {
		h.wrap = func(t dsm.Thread) dsm.Thread { return t }
	}
	if p.Units < epochs || p.Units%epochs != 0 {
		return nil, fmt.Errorf("%d timed units do not make %d equal epochs", p.Units, epochs)
	}
	base := kernelBase{p: p, h: h, recs: make([]*recorder, clusterNodes)}
	switch name {
	case "lock":
		return &lockKernel{kernelBase: base}, nil
	case "sor":
		return &sorKernel{kernelBase: base, n: sorSize}, nil
	}
	return nil, fmt.Errorf("unknown kernel %q", name)
}

type kernelBase struct {
	p runParams
	h hooks
	// recs holds a recorder per thread that ran in this process; a
	// thread makes its own on entry (peer processes' threads never run).
	recs []*recorder
	bar  dsm.Barrier
}

func (k *kernelBase) recorders() []*recorder { return k.recs }

// threads places one thread running fn on every node.
func (k *kernelBase) threads(name string, fn func(dsm.Thread)) []dsm.Worker {
	ws := make([]dsm.Worker, clusterNodes)
	for i := range ws {
		ws[i] = dsm.Worker{Node: dsm.NodeID(i), Name: fmt.Sprintf("%s%d", name, i), Fn: fn}
	}
	return ws
}

func (k *kernelBase) recorder(t dsm.Thread) *recorder {
	rec := &recorder{}
	k.recs[t.ID()] = rec
	return rec
}

// run is one working thread's whole course: the warm-up, the start line,
// the timed units in equal epochs. The caller crosses the end line.
func (k *kernelBase) run(t dsm.Thread, rec *recorder, unit func()) {
	rec.firstOp = time.Now().UnixNano()
	for i := 0; i < k.p.Warm; i++ {
		unit()
	}
	t.Barrier(k.bar) // start line
	rec.on = true
	k.h.start()
	rec.start = now()
	for e := 0; e < epochs; e++ {
		for i := 0; i < k.p.Units/epochs; i++ {
			unit()
		}
		rec.epochEnd[e] = now()
	}
}

// lockKernel is the paper's §5.2 single-writer benchmark with a fixed
// number of turns: workers on nodes 1..3 take lock0 and update a counter
// created at node 0 r times, each update inside its own lock1 interval.
// Node 0 hosts the homes and both lock managers; its thread takes no
// turns and only stands at the barriers, like the paper's main thread.
// One op is one counter update.
type lockKernel struct {
	kernelBase
	counter      dsm.ObjectID
	lock0, lock1 dsm.Lock
}

func (k *lockKernel) declare(c *dsm.Cluster) {
	k.counter = c.NewObject("counter", 1, 0)
	k.lock0 = c.NewLock(0)
	k.lock1 = c.NewLock(0)
	k.bar = c.NewBarrier(0, clusterNodes)
}

func (k *lockKernel) workers() []dsm.Worker { return k.threads("lock", k.thread) }

func (k *lockKernel) thread(t dsm.Thread) {
	rec := k.recorder(t)
	if t.ID() == 0 {
		// Unwrapped: the host's wait at the end line spans the whole
		// timed region and is not an op's cost.
		t.Barrier(k.bar)
		k.h.start()
		t.Barrier(k.bar)
		k.h.end()
		return
	}
	t = k.h.wrap(t)
	turn := func() {
		a := now()
		t.Acquire(k.lock0)
		b := now()
		if rec.on {
			rec.turnWait.record(b - a)
		}
		for j := 0; j < lockReps; j++ {
			t.Acquire(k.lock1)
			c := now()
			v := t.Read(k.counter, 0)
			if j == 0 && rec.on {
				// After an acquire no cached copy survives and the home
				// is wherever the previous turn left it: a remote fault.
				rec.fault.record(now() - c)
			}
			t.Write(k.counter, 0, v+1)
			t.Release(k.lock1)
			d := now()
			if rec.on {
				rec.sync.record(c - b)
				rec.op.record(d - b)
			}
			b = d
		}
		t.Release(k.lock0)
		t.Compute(200 * dsm.Microsecond) // the paper's "simple arithmetic"; virtual time only
	}
	rec.warmOps = int64(k.p.Warm) * lockReps
	rec.timedOps = int64(k.p.Units) * lockReps
	k.run(t, rec, turn)
	t.Barrier(k.bar) // end line
	rec.end = now()
	k.h.end()
}

func (k *lockKernel) validate(c *dsm.Cluster) error {
	want := uint64(lockWorkers*(k.p.Warm+k.p.Units)*lockReps + k.p.Skew)
	if got := c.Data(k.counter)[0]; got != want {
		return fmt.Errorf("lock kernel: counter = %d, want %d (workers x turns x r)", got, want)
	}
	return nil
}

// sorKernel is red-black successive over-relaxation on an n x n grid,
// one object per 2 KB row, homes round-robin, each thread owning a
// contiguous band. One op is one thread-phase: a thread's half-sweep of
// its band plus the barrier that ends it.
type sorKernel struct {
	kernelBase
	n    int
	grid *dsm.Array
	init [][]float64
}

const sorOmega = 1.25

// sorInput is the seeded initial grid: a random interior between a hot
// top and a cool bottom boundary, so every interior cell changes on
// every sweep and diffs are never empty.
func sorInput(n int, seed uint64) [][]float64 {
	r := prng.New(prng.Mix(seed) ^ uint64(n)*97 + 13)
	g := make([][]float64, n)
	for i := range g {
		g[i] = make([]float64, n)
		for j := range g[i] {
			g[i][j] = r.Float64()
		}
	}
	for j := 0; j < n; j++ {
		g[0][j] = 1.0
		g[n-1][j] = -0.5
	}
	return g
}

// sorReference runs iters sequential red-black sweeps over a copy of g.
func sorReference(g [][]float64, iters int) [][]float64 {
	n := len(g)
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64(nil), g[i]...)
	}
	for it := 0; it < iters; it++ {
		for color := 0; color < 2; color++ {
			for i := 1; i < n-1; i++ {
				for j := 1 + (i+color)%2; j < n-1; j += 2 {
					d[i][j] += sorOmega * ((d[i-1][j]+d[i+1][j]+d[i][j-1]+d[i][j+1])/4 - d[i][j])
				}
			}
		}
	}
	return d
}

func (k *sorKernel) declare(c *dsm.Cluster) {
	k.grid = c.NewArray("grid", k.n, k.n, dsm.RoundRobin)
	k.init = sorInput(k.n, k.p.Seed)
	for i, row := range k.init {
		k.grid.InitRow(i, func(w []uint64) {
			for j, v := range row {
				w[j] = math.Float64bits(v)
			}
		})
	}
	k.bar = c.NewBarrier(0, clusterNodes)
}

func (k *sorKernel) workers() []dsm.Worker { return k.threads("sor", k.thread) }

func (k *sorKernel) thread(t dsm.Thread) {
	rec := k.recorder(t)
	t = k.h.wrap(t)
	n, p, me := k.n, clusterNodes, t.ID()
	lo, hi := max(me*n/p, 1), min((me+1)*n/p, n-1) // interior rows of this band
	grid := k.grid
	// Rows lo-1 and hi belong to the neighbouring threads, which rewrote
	// them last phase: reading them is the app-visible remote fault-in.
	view := func(i int, remote bool) []uint64 {
		if !remote || !rec.on {
			return grid.RowView(t, i)
		}
		f := now()
		v := grid.RowView(t, i)
		rec.fault.record(now() - f)
		return v
	}
	phase := func(color int) {
		a := now()
		for i := lo; i < hi; i++ {
			up := view(i-1, i == lo && me > 0)
			down := view(i+1, i == hi-1 && me < p-1)
			row := grid.RowWriteView(t, i)
			for j := 1 + (i+color)%2; j < n-1; j += 2 {
				v := math.Float64frombits(row[j])
				nb := (math.Float64frombits(up[j]) + math.Float64frombits(down[j]) +
					math.Float64frombits(row[j-1]) + math.Float64frombits(row[j+1])) / 4
				row[j] = math.Float64bits(v + sorOmega*(nb-v))
			}
			t.Compute(dsm.Time(n/2) * 500 * dsm.Nanosecond) // virtual time only
		}
		b := now()
		t.Barrier(k.bar)
		c := now()
		if rec.on {
			rec.sync.record(c - b)
			rec.op.record(c - a)
		}
	}
	iterate := func() { phase(0); phase(1) }

	rec.warmOps = int64(k.p.Warm) * 2
	rec.timedOps = int64(k.p.Units) * 2
	k.run(t, rec, iterate)
	rec.end = now() // the last phase ended at a barrier already: the end line
	k.h.end()
}

func (k *sorKernel) validate(c *dsm.Cluster) error {
	want := sorReference(k.init, k.p.Warm+k.p.Units+k.p.Skew)
	for i := 0; i < k.n; i++ {
		got := k.grid.DataFloat64(i)
		for j := range got {
			if got[j] != want[i][j] {
				return fmt.Errorf("sor kernel: grid[%d][%d] = %g, want %g (sequential reference)", i, j, got[j], want[i][j])
			}
		}
	}
	return nil
}
