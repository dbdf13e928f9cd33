package bench

import "repro/internal/oracle"

// replay judges a run's log beside the checked run instead of in it.
func replay() int {
	return len(oracle.Check(0, nil, nil)) // want `-check has one meaning: use of oracle.Check outside internal/live/cluster/finish.go`
}

// watch folds a run's events through a checker of its own.
func watch() *oracle.Checker {
	return oracle.NewChecker() // want `-check has one meaning: use of oracle.NewChecker outside internal/apps/apps.go, internal/oracle/oracle.go`
}
