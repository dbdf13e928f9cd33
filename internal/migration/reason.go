package migration

import "fmt"

// Reason classifies why a migration decision came out the way it did —
// the explainability surface for the paper's core heuristic. Every
// verdict a policy's Decide returns carries exactly one Reason, so a
// flight-recorded Decision event can say not just *whether* the home
// moved but *which clause* of the policy fired, with the counter and
// threshold values it compared.
type Reason uint8

const (
	// ReasonNone: the policy gave no reason (one defined outside this
	// package may leave it unset).
	ReasonNone Reason = iota
	// ReasonThresholdReached: the requester's consecutive-remote-write
	// run C reached the (fixed or adaptive) threshold — migrate.
	ReasonThresholdReached
	// ReasonBelowThreshold: the requester is the current consecutive
	// writer but C is still below the threshold — stay.
	ReasonBelowThreshold
	// ReasonNotLastWriter: the requester is not the source of the
	// current consecutive-write run — stay.
	ReasonNotLastWriter
	// ReasonNeverMigrates: the policy never migrates at fault-in time
	// (NoHM; Jiajia decides at barriers instead).
	ReasonNeverMigrates
	// ReasonAlwaysMigrates: the policy migrates on every fault-in (JUMP).
	ReasonAlwaysMigrates
	// ReasonExclusiveOwner: no other node shares the object and the
	// ownership-transition cap has room (Jackal) — migrate.
	ReasonExclusiveOwner
	// ReasonSharersExist: other nodes still hold cached copies (Jackal)
	// — stay.
	ReasonSharersExist
	// ReasonEpochCap: the ownership-transition cap is exhausted (Jackal)
	// — stay.
	ReasonEpochCap
	// ReasonBarrierReassign: the barrier manager reassigned the home in
	// its release broadcast (Jiajia's single-writer detection).
	ReasonBarrierReassign
	// ReasonPinned: the policy wanted to migrate but a bulk-view pin on
	// the home copy vetoed it.
	ReasonPinned
	NumReasons
)

var reasonNames = [NumReasons]string{
	"none", "threshold-reached", "below-threshold", "not-last-writer",
	"never-migrates", "always-migrates", "exclusive-owner",
	"sharers-exist", "epoch-cap", "barrier-reassign", "pinned",
}

func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Explanation is one migration decision with its justification, as a
// policy's Decide returns it: the verdict, the clause that produced it,
// and the two values the clause compared (Count against Limit; both zero
// when the clause compares nothing, as for NoHM/JUMP).
type Explanation struct {
	Migrate bool
	Reason  Reason
	// Count/Limit are the compared pair: C vs the threshold for FT/AT,
	// sharers or epoch vs the cap for Jackal.
	Count float64
	Limit float64
}
