package migration

import (
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
)

// TestDecideReasons: every reason each builtin can give at a fault-in,
// with the pair its clause compared.
func TestDecideReasons(t *testing.T) {
	p := params()
	capped := core.NewState(p, 512)
	for e := 0; e < 5; e++ {
		capped = core.FromRecord(p, 512, *capped.Migrate(p))
	}
	raised := stateWithRun(p, 3, 1)
	raised.Redirected(3) // T rises above 1: C=1 no longer suffices

	cases := []struct {
		name    string
		pol     Policy
		st      *core.State
		req     memory.NodeID
		copyset []memory.NodeID
		want    Explanation
	}{
		{"nohm", NoHM{}, stateWithRun(p, 3, 100), 3, nil,
			Explanation{Reason: ReasonNeverMigrates}},
		{"jiajia", Jiajia{}, stateWithRun(p, 3, 100), 3, nil,
			Explanation{Reason: ReasonNeverMigrates}},
		{"jump", JUMP{}, core.NewState(p, 512), 9, []memory.NodeID{1, 2, 3, 4, 5},
			Explanation{Migrate: true, Reason: ReasonAlwaysMigrates}},
		{"ft-reached", Fixed{T: 2}, stateWithRun(p, 3, 2), 3, nil,
			Explanation{Migrate: true, Reason: ReasonThresholdReached, Count: 2, Limit: 2}},
		{"ft-below", Fixed{T: 2}, stateWithRun(p, 3, 1), 3, nil,
			Explanation{Reason: ReasonBelowThreshold, Count: 1, Limit: 2}},
		{"ft-not-writer", Fixed{T: 1}, stateWithRun(p, 3, 5), 4, nil,
			Explanation{Reason: ReasonNotLastWriter, Count: 5, Limit: 1}},
		{"at-reached", Adaptive{P: p}, stateWithRun(p, 3, 1), 3, nil,
			Explanation{Migrate: true, Reason: ReasonThresholdReached, Count: 1, Limit: 1}},
		{"at-below", Adaptive{P: p}, raised, 3, nil,
			Explanation{Reason: ReasonBelowThreshold, Count: 1, Limit: raised.Threshold(p)}},
		{"at-not-writer", Adaptive{P: p}, stateWithRun(p, 3, 4), 2, nil,
			Explanation{Reason: ReasonNotLastWriter, Count: 4, Limit: 1}},
		{"jackal-exclusive", Jackal{Max: 5}, core.NewState(p, 512), 3, []memory.NodeID{3},
			Explanation{Migrate: true, Reason: ReasonExclusiveOwner, Count: 0, Limit: 5}},
		// The requester's own copy is no sharer: {3, 5, 6} asked by 3 is two.
		{"jackal-shared", Jackal{Max: 5}, core.NewState(p, 512), 3, []memory.NodeID{3, 5, 6},
			Explanation{Reason: ReasonSharersExist, Count: 2, Limit: 5}},
		{"jackal-capped", Jackal{Max: 5}, capped, 3, nil,
			Explanation{Reason: ReasonEpochCap, Count: 5, Limit: 5}},
	}
	given := map[Reason]bool{}
	for _, c := range cases {
		got := c.pol.Decide(Fault{Obj: 4, Requester: c.req, Copyset: c.copyset, St: c.st})
		if got != c.want {
			t.Errorf("%s: Decide = %+v, want %+v", c.name, got, c.want)
		}
		given[got.Reason] = true
	}
	// Every reason but none (no builtin leaves it unset) and the two the
	// protocol sets itself (barrier-reassign, pinned) comes from a policy.
	for r := ReasonThresholdReached; r < ReasonBarrierReassign; r++ {
		if !given[r] {
			t.Errorf("no case gives reason %v", r)
		}
	}
}

func TestReasonStrings(t *testing.T) {
	for r := Reason(0); r < NumReasons; r++ {
		if s := r.String(); s == "" || s == "reason(0)" && r != 0 {
			t.Errorf("Reason(%d) has no name", r)
		}
	}
	if ReasonThresholdReached.String() != "threshold-reached" {
		t.Errorf("unexpected name %q", ReasonThresholdReached)
	}
	if Reason(200).String() != "reason(200)" {
		t.Errorf("out-of-range reason rendered %q", Reason(200))
	}
}
