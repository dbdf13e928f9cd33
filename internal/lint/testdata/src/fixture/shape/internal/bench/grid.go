// Package bench stands in for the sweeps.
package bench

import "repro/internal/experiment"

type cell struct{ label string }

// grid is the one place a cell is built and runs reach the pool.
func grid(specs []experiment.Spec[int]) []experiment.Outcome[int] {
	_ = cell{label: "fig2"}
	return experiment.Run(experiment.NewPool(1, nil), specs)
}
