package proto

import "repro/internal/migration"

// reassigns decides by the policy's type what the policy should answer.
func reassigns(p migration.Policy) bool {
	if _, ok := p.(migration.Jackal); ok { // want `proto knows no policy's rule: use of migration.Jackal in repro/internal/proto`
		return false
	}
	_, ok := p.(migration.Jiajia) // want `proto knows no policy's rule: use of migration.Jiajia in repro/internal/proto`
	return ok
}

// asks leaves the rule to the policy: no finding.
func asks(p migration.Policy) bool {
	bp, ok := p.(migration.BarrierPolicy)
	return ok && bp.Reassign(0, 1)
}
