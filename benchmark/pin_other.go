// "!ignore" is always true; naming it keeps internal/lint's loader, which
// reads every file but those constrained by "ignore", from seeing this
// declaration beside pin_linux.go's.
//go:build !linux && !ignore

package main

// pinToOneCPU pins nothing where the benchmark cannot set a CPU affinity.
func pinToOneCPU() (unpin func()) { return func() {} }
