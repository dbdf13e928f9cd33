package apps

import (
	"fmt"

	dsm "repro"
)

// aspInf is the "no edge" distance. Kept well below overflow when added.
const aspInf = int64(1) << 40

// aspGraph builds the deterministic random digraph used by both the DSM
// run and the sequential reference: ~25% density, weights 1..100. seed 0
// is the canonical paper input; other seeds give per-trial variants.
func aspGraph(n int, seed uint64) [][]int64 {
	r := newRng(mixSeed(uint64(n)*2654435761+12345, seed))
	g := make([][]int64, n)
	for i := range g {
		g[i] = make([]int64, n)
		for j := range g[i] {
			switch {
			case i == j:
				g[i][j] = 0
			case r.Intn(4) == 0:
				g[i][j] = int64(1 + r.Intn(100))
			default:
				g[i][j] = aspInf
			}
		}
	}
	return g
}

// aspSequential is the reference Floyd–Warshall.
func aspSequential(g [][]int64) [][]int64 {
	n := len(g)
	d := make([][]int64, n)
	for i := range d {
		d[i] = append([]int64(nil), g[i]...)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if dik >= aspInf {
				continue
			}
			row, rowK := d[i], d[k]
			for j := 0; j < n; j++ {
				if v := dik + rowK[j]; v < row[j] {
					row[j] = v
				}
			}
		}
	}
	return d
}

// RunASP computes all-pairs shortest paths on an n-node graph with a
// parallel Floyd algorithm (§5.1 application 1). The distance matrix is
// one row object per graph node, homes placed round-robin; each thread
// owns a contiguous block of rows, so "their original homes are not the
// writing nodes" and the rows exhibit a lasting single-writer pattern
// after initialization — the situation home migration exploits.
func RunASP(n int, o Options) (Result, error) {
	if n < 2 {
		return Result{}, fmt.Errorf("asp: need n >= 2, got %d", n)
	}
	p := o.threads()
	c, chk, err := o.cluster()
	if err != nil {
		return Result{}, err
	}
	dist := c.NewArray("dist", n, n, dsm.RoundRobin)
	g := aspGraph(n, o.Seed)
	for i := 0; i < n; i++ {
		row := g[i]
		dist.InitRow(i, func(w []uint64) {
			for j, v := range row {
				w[j] = uint64(v)
			}
		})
	}
	bar := c.NewBarrier(0, p)

	m, err := c.Run(p, func(t dsm.Thread) {
		me := t.ID()
		lo, hi := blockRange(n, p, me)
		for k := 0; k < n; k++ {
			rowK := dist.RowView(t, k)
			for i := lo; i < hi; i++ {
				row := dist.RowView(t, i)
				dik := int64(row[k])
				if dik < aspInf {
					w := dist.RowWriteView(t, i)
					for j := 0; j < n; j++ {
						if v := dik + int64(rowK[j]); v < int64(w[j]) {
							w[j] = uint64(v)
						}
					}
				}
				t.Compute(dsm.Time(n) * aspRelaxCost)
			}
			t.Barrier(bar)
		}
	})
	if err != nil {
		return Result{}, fmt.Errorf("asp: %w", err)
	}

	res := Result{App: fmt.Sprintf("ASP(n=%d,p=%d,%s)", n, p, c.PolicyName()), Metrics: m}
	return finish(c, o, chk, res, func() error {
		want := aspSequential(g)
		for i := 0; i < n; i++ {
			got := dist.DataInt64(i)
			for j := 0; j < n; j++ {
				if got[j] != want[i][j] {
					return fmt.Errorf("asp: dist[%d][%d] = %d, want %d", i, j, got[j], want[i][j])
				}
			}
		}
		return nil
	})
}

// blockRange splits n items into p contiguous blocks and returns block
// me's half-open range.
func blockRange(n, p, me int) (lo, hi int) {
	per := n / p
	rem := n % p
	lo = me*per + min(me, rem)
	hi = lo + per
	if me < rem {
		hi++
	}
	return lo, hi
}
