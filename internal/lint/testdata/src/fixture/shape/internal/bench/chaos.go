package bench

var fig2Policies = []string{"AT", "NoHM"} // want `every sweep is one grid: fig2Policies declared`

// CrossSweep is a second verdict sweep.
func CrossSweep() {} // want `one verdict sweep: func CrossSweep declared`

func runApp() {} // want `one sweep substrate: func runApp declared`

// chaos builds its own cells and is a second pool caller, through a
// method value.
func chaos(o RunOpts) {
	_ = cell{label: "chaos"} // want `only the grid builds cells: bench.cell literal outside internal/bench/grid.go`
	run := o.runAll          // want `only the grid hands runs to the pool: use of bench.RunOpts.runAll outside internal/bench/grid.go`
	run(nil)
}
