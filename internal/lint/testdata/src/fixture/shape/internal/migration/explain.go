package migration

// Fixed restates the probe's wrapper.
type Fixed struct{}

func (Fixed) ShouldMigrate() bool { return false } // want `ShouldMigrate is Adaptive's wrapper for the benchmark probe: method ShouldMigrate declared outside`

// Explain is a second method of deciding.
func Explain() string { return "" } // want `a policy decides and explains in one method: func Explain declared`
