// Package scenario stands in for the generator.
package scenario

import (
	"runtime"
	"sync"

	_ "repro/internal/live/transport" // want `a scenario runs nothing: import of repro/internal/live/...`
)

// RunOpts would make the generator a runner.
type RunOpts struct{} // want `a scenario is an application: type RunOpts declared`

// fanOut schedules its own goroutines at its own width.
func fanOut(jobs []func()) {
	var wg sync.WaitGroup                        // want `the pool schedules the runs: use of sync.WaitGroup outside internal/bench/grid.go`
	for i := 0; i < runtime.GOMAXPROCS(0); i++ { // want `the pool alone reads the width: use of runtime.GOMAXPROCS outside internal/bench/grid.go`
		wg.Add(1)
		go func() { defer wg.Done(); jobs[i]() }()
	}
	wg.Wait()
}
