// Package dsm stands in for the facade. The rows that count on dsm.go
// find it gone here.
package dsm // want `the selection is declared once per level: dsm.go is gone` `only the facade builds an engine: dsm.go is gone`

// Config grew its old observer fields back beside the benchmark's shim.
type Config struct {
	Trace     *int // want `the facade has one way in: field Trace declared in repro`
	Observer  any  // want `the facade has one way in: field Observer declared in repro`
	Telemetry *int
}

// attach sets the shim outside the facade's own file.
func attach(c *Config) {
	c.Telemetry = nil // want `dsm.Config.Telemetry is the benchmark's shim: use of repro.Config.Telemetry outside dsm.go`
}
