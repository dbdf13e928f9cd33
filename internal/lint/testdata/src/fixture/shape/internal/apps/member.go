// Package apps stands in for the applications' checked run.
package apps

import "repro/internal/live/cluster"

// Options grew a member mode back, and an oracle knob beside Check.
type Options struct {
	Multi  Member // want `apps has no member mode: Options.Multi declared outside internal/live/cluster/`
	Oracle bool   // want `-check has one meaning: Options.Oracle declared in repro/internal/apps`
}

// Member is the handle the mode ran through.
type Member interface{} // want `apps has no member mode: Member declared outside internal/live/cluster/`

// finish completes a member's run here instead of in the member's Run.
func finish(m *cluster.Member) error {
	return m.FinishApp(nil, nil, false, false) // want `apps has no member mode: use of cluster.Member.FinishApp outside internal/live/cluster/`
}
