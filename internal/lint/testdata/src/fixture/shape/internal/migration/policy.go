// Package migration stands in for the policies.
package migration

// Adaptive is the paper's policy.
type Adaptive struct{}

// ShouldMigrate is the benchmark probe's wrapper.
func (Adaptive) ShouldMigrate() bool { return true }
