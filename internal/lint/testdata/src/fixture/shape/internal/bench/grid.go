// Package bench stands in for the sweeps.
package bench

import (
	"runtime"
	"sync"
)

type cell struct{ label string }

// RunOpts stands in for the sweeps' options; runAll is the pool.
type RunOpts struct{}

func (o RunOpts) runAll(runs []func()) {
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0) && i < len(runs); i++ {
		wg.Add(1)
		go func() { defer wg.Done(); runs[i]() }()
	}
	wg.Wait()
}

// grid is the one place a cell is built and runs reach the pool.
func (o RunOpts) grid(runs []func()) {
	_ = cell{label: "fig2"}
	o.runAll(runs)
}
