package apps

import (
	"fmt"
	"math"

	dsm "repro"
)

// sorInit builds the deterministic initial grid: a pseudo-random interior
// field between a hot top boundary and a cool bottom boundary, so every
// interior cell changes on every sweep (a zero interior would take O(n)
// iterations to receive any signal from the boundary, leaving most diffs
// empty and the access pattern degenerate).
func sorInit(n int, seed uint64) [][]float64 {
	r := newRng(mixSeed(uint64(n)*97+13, seed))
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

// sorSequential runs iters red-black sweeps over a copy of g.
func sorSequential(g [][]float64, iters int) [][]float64 {
	n := len(g)
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64(nil), g[i]...)
	}
	const omega = 1.25
	for it := 0; it < iters; it++ {
		for color := 0; color < 2; color++ {
			for i := 1; i < n-1; i++ {
				for j := 1 + (i+color)%2; j < n-1; j += 2 {
					d[i][j] += omega * ((d[i-1][j]+d[i+1][j]+d[i][j-1]+d[i][j+1])/4 - d[i][j])
				}
			}
		}
	}
	return d
}

// RunSOR performs red-black successive over-relaxation on an n×n matrix
// (§5.1 application 2; the paper uses 2048×2048). Rows are objects with
// round-robin homes; each thread owns a contiguous band and only reads
// the two boundary rows of its neighbors, so interior rows are perfect
// lasting single writers and boundary rows are single-writer with remote
// readers — both migrate profitably.
func RunSOR(n, iters int, o Options) (Result, error) {
	if n < 4 {
		return Result{}, fmt.Errorf("sor: need n >= 4, got %d", n)
	}
	if iters < 1 {
		return Result{}, fmt.Errorf("sor: need iters >= 1, got %d", iters)
	}
	p := o.threads()
	c, chk, err := o.cluster()
	if err != nil {
		return Result{}, err
	}
	grid := c.NewArray("grid", n, n, dsm.RoundRobin)
	init := sorInit(n, o.Seed)
	for i := 0; i < n; i++ {
		row := init[i]
		grid.InitRow(i, func(w []uint64) {
			for j, v := range row {
				w[j] = math.Float64bits(v)
			}
		})
	}
	bar := c.NewBarrier(0, p)
	const omega = 1.25

	m, err := c.Run(p, func(t dsm.Thread) {
		me := t.ID()
		lo, hi := blockRange(n, p, me)
		// Interior rows only; boundary rows of the grid are fixed.
		if lo == 0 {
			lo = 1
		}
		if hi == n {
			hi = n - 1
		}
		for it := 0; it < iters; it++ {
			for color := 0; color < 2; color++ {
				for i := lo; i < hi; i++ {
					up := grid.RowView(t, i-1)
					down := grid.RowView(t, i+1)
					row := grid.RowWriteView(t, i)
					for j := 1 + (i+color)%2; j < n-1; j += 2 {
						v := math.Float64frombits(row[j])
						nb := (math.Float64frombits(up[j]) +
							math.Float64frombits(down[j]) +
							math.Float64frombits(row[j-1]) +
							math.Float64frombits(row[j+1])) / 4
						row[j] = math.Float64bits(v + omega*(nb-v))
					}
					t.Compute(dsm.Time(n/2) * sorCellCost)
				}
				t.Barrier(bar)
			}
		}
	})
	if err != nil {
		return Result{}, fmt.Errorf("sor: %w", err)
	}

	res := Result{App: fmt.Sprintf("SOR(n=%d,iters=%d,p=%d,%s)", n, iters, p, c.PolicyName()), Metrics: m}
	return finish(c, o, chk, res, func() error {
		want := sorSequential(init, iters)
		for i := 0; i < n; i++ {
			got := grid.DataFloat64(i)
			for j := 0; j < n; j++ {
				if got[j] != want[i][j] {
					return fmt.Errorf("sor: grid[%d][%d] = %g, want %g", i, j, got[j], want[i][j])
				}
			}
		}
		return nil
	})
}
