// Package migration defines the home-migration policy interface and every
// policy evaluated or discussed by the paper: the adaptive-threshold
// protocol (AT, §4), fixed thresholds (FT-k, §3.3 / prior work [7]), no
// migration (NoHM), and the related-work baselines JUMP's migrating-home
// [6], Jackal's lazy flushing [15] and Jiajia's barrier-time migration
// [9] (§2).
//
// A policy owns its rule; the protocol core asks and never decides. At a
// fault-in the home asks Decide about a Fault: the object, the node that
// faulted, the nodes holding copies and the object's migration state. A
// BarrierPolicy is also asked, at each barrier release, about every
// object the episode's write reports name exactly once.
//
// All policies share the per-object core.State bookkeeping; a policy is a
// pure decision strategy, so runs under any policy still report the full
// feedback counters (C, R, E) for analysis.
package migration

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/memory"
)

// Policy decides, at an object's home node, whether a fault-in request
// should carry home ownership to the requester.
type Policy interface {
	// Name is a short identifier ("AT", "FT2", "NoHM", ...).
	Name() string
	// Decide is consulted when f.Requester (≠ home) faults in f.Obj, and
	// returns the verdict with the clause that produced it and the pair
	// that clause compared. Decide only reads f.
	Decide(f Fault) Explanation
}

// Fault is what the home knows when it decides a fault-in. It is passed
// by value: a pointer handed through the interface call would escape,
// one allocation per fault-in.
type Fault struct {
	Obj       memory.ObjectID
	Requester memory.NodeID
	// Copyset is the home's list of nodes holding a copy, never the home
	// itself; it may already hold the requester. Read only, and only
	// during Decide: the home reuses it.
	Copyset []memory.NodeID
	// St is the object's migration state. Decide runs before a migration
	// resets it, so the explanation carries the pair the rule compared.
	St *core.State
}

// BarrierPolicy is a Policy that also moves homes at barriers. Under one,
// each node reports the objects it wrote in the interval with its barrier
// arrival, and at release the barrier's manager asks Reassign once per
// candidate, in object order: an object exactly one report named, with
// the node that reported it. A barrier transfer moves no data, so only
// the episode's sole writer, whose copy is the object's current value, can
// take the home; the protocol keeps that condition and finds the
// candidates, the policy says which of them move. A policy that is not a
// BarrierPolicy collects no reports.
type BarrierPolicy interface {
	Policy
	Reassign(obj memory.ObjectID, writer memory.NodeID) bool
}

// NoHM never migrates: the baseline of Fig. 2 ("NoHM") and Fig. 5 ("NM").
type NoHM struct{}

func (NoHM) Name() string { return "NoHM" }
func (NoHM) Decide(Fault) Explanation {
	return Explanation{Reason: ReasonNeverMigrates}
}

// Fixed is the fixed-threshold protocol of the authors' previous work [7]
// (§3.3): migrate to the writer once its consecutive remote writes reach
// T ≥ 1. FT1 and FT2 in Fig. 5 are Fixed{1} and Fixed{2}.
type Fixed struct{ T int }

func (f Fixed) Name() string { return fmt.Sprintf("FT%d", f.T) }
func (ft Fixed) Decide(f Fault) Explanation {
	return runAgainst(f.St, f.Requester, float64(ft.T))
}

// Adaptive is the paper's contribution (§4): the per-object threshold of
// Eq. (2)–(3), continuously tuned by runtime feedback.
type Adaptive struct{ P core.Params }

func (Adaptive) Name() string { return "AT" }
func (a Adaptive) Decide(f Fault) Explanation {
	return runAgainst(f.St, f.Requester, f.St.Threshold(a.P))
}

// ShouldMigrate is Decide's verdict alone: the call the benchmark's
// decision probe (migration.decide_ns) times. AT reads no sharers, so
// the count is not passed on.
func (a Adaptive) ShouldMigrate(st *core.State, req memory.NodeID, sharers int) bool {
	return a.Decide(Fault{Requester: req, St: st}).Migrate
}

// runAgainst is the rule FT and AT share: migrate to the requester when
// it is the source of the object's current run of consecutive remote
// writes and that run C has reached limit (and is not empty).
func runAgainst(st *core.State, req memory.NodeID, limit float64) Explanation {
	ex := Explanation{Count: float64(st.C), Limit: limit}
	switch {
	case req != st.LastWriter:
		ex.Reason = ReasonNotLastWriter
	case st.C > 0 && ex.Count >= limit:
		ex.Migrate, ex.Reason = true, ReasonThresholdReached
	default:
		ex.Reason = ReasonBelowThreshold
	}
	return ex
}

// JUMP is the migrating-home protocol of [6] (§2): the requesting process
// always becomes the new home, ignoring the access pattern.
type JUMP struct{}

func (JUMP) Name() string { return "JUMP" }
func (JUMP) Decide(Fault) Explanation {
	return Explanation{Migrate: true, Reason: ReasonAlwaysMigrates}
}

// Jackal models the lazy-flushing optimization of [15] (§2): a requester
// becomes the exclusive owner when no other node shares the object, and
// the number of ownership transitions is capped (five in Jackal).
type Jackal struct{ Max int }

func (j Jackal) Name() string { return fmt.Sprintf("Jackal%d", j.Max) }
func (j Jackal) Decide(f Fault) Explanation {
	sharers := 0
	for _, nd := range f.Copyset {
		if nd != f.Requester {
			sharers++
		}
	}
	if sharers > 0 {
		return Explanation{Reason: ReasonSharersExist, Count: float64(sharers), Limit: float64(j.Max)}
	}
	if f.St.Epoch >= j.Max {
		return Explanation{Reason: ReasonEpochCap, Count: float64(f.St.Epoch), Limit: float64(j.Max)}
	}
	return Explanation{Migrate: true, Reason: ReasonExclusiveOwner, Count: float64(f.St.Epoch), Limit: float64(j.Max)}
}

// Jiajia models the barrier-time home migration of [9] (§2): the barrier
// manager detects objects written by exactly one process between two
// barriers and reassigns every one of their homes to that writer in the
// barrier-release broadcast. Fault-in requests never migrate.
type Jiajia struct{}

func (Jiajia) Name() string { return "Jiajia" }
func (Jiajia) Decide(Fault) Explanation {
	return Explanation{Reason: ReasonNeverMigrates}
}
func (Jiajia) Reassign(memory.ObjectID, memory.NodeID) bool { return true }

// Parse returns the policy named by s: "NoHM"/"NM", "FT<k>", "AT",
// "JUMP", "Jackal[<k>]", "Jiajia". The AT params must be supplied because
// α depends on the network model.
func Parse(s string, atParams core.Params) (Policy, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	switch {
	case u == "NOHM" || u == "NM" || u == "NONE":
		return NoHM{}, nil
	case u == "AT" || u == "ADAPTIVE":
		return Adaptive{P: atParams}, nil
	case u == "JUMP":
		return JUMP{}, nil
	case u == "JIAJIA":
		return Jiajia{}, nil
	case strings.HasPrefix(u, "JACKAL"):
		k := 5
		if rest := u[len("JACKAL"):]; rest != "" {
			v, ok := parseCount(rest)
			if !ok {
				return nil, fmt.Errorf("migration: bad Jackal cap %q", s)
			}
			k = v
		}
		return Jackal{Max: k}, nil
	case strings.HasPrefix(u, "FT"):
		v, ok := parseCount(u[2:])
		if !ok {
			return nil, fmt.Errorf("migration: bad fixed threshold %q", s)
		}
		return Fixed{T: v}, nil
	default:
		return nil, fmt.Errorf("migration: unknown policy %q", s)
	}
}

// parseCount parses the numeric suffix of FT<k>/Jackal<k>: plain decimal
// digits, value >= 1 — exactly the range the Name() formatters emit, so
// Parse(p.Name()) round-trips for every valid policy while FT0, FT+1 or
// Jackal-2 are rejected rather than silently accepted.
func parseCount(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		return 0, false
	}
	return v, true
}

// Builtins returns one instance of every policy family the paper
// evaluates, at its default parameters — the set sweep tooling iterates
// and the Parse round-trip contract covers.
func Builtins(atParams core.Params) []Policy {
	return []Policy{
		NoHM{}, Fixed{T: 1}, Fixed{T: 2}, Adaptive{P: atParams},
		JUMP{}, Jackal{Max: 5}, Jiajia{},
	}
}
