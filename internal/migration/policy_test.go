package migration

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/memory"
)

func params() core.Params {
	return core.Params{Lambda: 1, TInit: 1, Alpha: func(o, d int) float64 { return 2 }}
}

// fault is a fault-in of an object in state st by req, no copies held.
func fault(st *core.State, req memory.NodeID) Fault { return Fault{Requester: req, St: st} }

func stateWithRun(p core.Params, writer memory.NodeID, n int) *core.State {
	s := core.NewState(p, 512)
	for i := 0; i < n; i++ {
		s.RemoteWrite(writer, 64)
	}
	return s
}

func TestNoHMNeverMigrates(t *testing.T) {
	p := params()
	s := stateWithRun(p, 3, 100)
	if (NoHM{}).Decide(fault(s, 3)).Migrate {
		t.Fatal("NoHM migrated")
	}
	if _, ok := Policy(NoHM{}).(BarrierPolicy); ok {
		t.Fatal("NoHM reassigns at barriers")
	}
}

func TestFixedThresholdTriggersAtT(t *testing.T) {
	p := params()
	ft2 := Fixed{T: 2}
	if ft2.Decide(fault(stateWithRun(p, 3, 1), 3)).Migrate {
		t.Fatal("FT2 migrated at C=1")
	}
	if !ft2.Decide(fault(stateWithRun(p, 3, 2), 3)).Migrate {
		t.Fatal("FT2 did not migrate at C=2")
	}
}

func TestFixedRequiresRequesterIsWriter(t *testing.T) {
	p := params()
	s := stateWithRun(p, 3, 5)
	if (Fixed{T: 1}).Decide(fault(s, 4)).Migrate {
		t.Fatal("FT migrated to a non-writer requester")
	}
}

func TestFixedName(t *testing.T) {
	if (Fixed{T: 1}).Name() != "FT1" || (Fixed{T: 2}).Name() != "FT2" {
		t.Fatal("bad FT names")
	}
}

func TestAdaptiveMigratesAtInitialThresholdOne(t *testing.T) {
	// §4.2: T_init = 1 speeds up initial data relocation — one remote
	// write suffices initially.
	p := params()
	at := Adaptive{P: p}
	if !at.Decide(fault(stateWithRun(p, 3, 1), 3)).Migrate {
		t.Fatal("AT did not migrate at C=1 with T=1")
	}
}

func TestAdaptiveRespectsRaisedThreshold(t *testing.T) {
	p := params()
	at := Adaptive{P: p}
	s := stateWithRun(p, 3, 1)
	s.Redirected(3) // negative feedback raises T to 4
	if at.Decide(fault(s, 3)).Migrate {
		t.Fatal("AT migrated below raised threshold")
	}
	for i := 0; i < 3; i++ {
		s.RemoteWrite(3, 64)
	}
	if !at.Decide(fault(s, 3)).Migrate {
		t.Fatal("AT did not migrate once C reached raised threshold")
	}
}

func TestAdaptiveNeverMigratesWithoutWrites(t *testing.T) {
	p := params()
	at := Adaptive{P: p}
	s := core.NewState(p, 512)
	if at.Decide(fault(s, 3)).Migrate {
		t.Fatal("AT migrated with C=0")
	}
}

func TestJUMPAlwaysMigrates(t *testing.T) {
	p := params()
	s := core.NewState(p, 512)
	if !(JUMP{}).Decide(Fault{Requester: 9, Copyset: []memory.NodeID{1, 2, 3, 4, 5}, St: s}).Migrate {
		t.Fatal("JUMP refused to migrate")
	}
}

func TestJackalExclusiveOwnerRule(t *testing.T) {
	p := params()
	j := Jackal{Max: 5}
	s := core.NewState(p, 512)
	if j.Decide(Fault{Requester: 3, Copyset: []memory.NodeID{1, 2}, St: s}).Migrate {
		t.Fatal("Jackal migrated while shared")
	}
	if !j.Decide(Fault{Requester: 3, Copyset: []memory.NodeID{3}, St: s}).Migrate {
		t.Fatal("Jackal counted the requester's own copy as a sharer")
	}
	if !j.Decide(fault(s, 3)).Migrate {
		t.Fatal("Jackal refused unshared migration")
	}
}

func TestJackalTransitionCap(t *testing.T) {
	// §2: "the number of transitions are set to a maximum of five times
	// in Jackal".
	p := params()
	j := Jackal{Max: 5}
	s := core.NewState(p, 512)
	for e := 0; e < 5; e++ {
		if !j.Decide(fault(s, 3)).Migrate {
			t.Fatalf("Jackal refused at epoch %d", e)
		}
		s.Init(p, 512, s.Migrate(p))
	}
	if j.Decide(fault(s, 3)).Migrate {
		t.Fatal("Jackal migrated beyond its cap")
	}
}

func TestJiajiaIsBarrierDriven(t *testing.T) {
	p := params()
	s := stateWithRun(p, 3, 100)
	if (Jiajia{}).Decide(fault(s, 3)).Migrate {
		t.Fatal("Jiajia migrated at fault time")
	}
	bp, ok := Policy(Jiajia{}).(BarrierPolicy)
	if !ok {
		t.Fatal("Jiajia must be a barrier policy")
	}
	if !bp.Reassign(7, 2) {
		t.Fatal("Jiajia declined a sole writer's object")
	}
}

func TestParse(t *testing.T) {
	p := params()
	cases := map[string]string{
		"NoHM": "NoHM", "nm": "NoHM", "none": "NoHM",
		"AT": "AT", "adaptive": "AT",
		"FT1": "FT1", "ft2": "FT2", "FT10": "FT10",
		"JUMP": "JUMP", "jiajia": "Jiajia",
		"Jackal": "Jackal5", "jackal3": "Jackal3",
	}
	for in, want := range cases {
		pol, err := Parse(in, p)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if pol.Name() != want {
			t.Fatalf("Parse(%q).Name() = %q, want %q", in, pol.Name(), want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	p := params()
	for _, bad := range []string{
		"", "FT", "FT0", "FTx", "FT-1", "FT+1", "FT 2", "Jackal0",
		"Jackal-1", "Jackal+2", "Jackalx", "wat", "ATX",
	} {
		if _, err := Parse(bad, p); err == nil {
			t.Fatalf("Parse(%q) succeeded", bad)
		}
	}
}

// TestParseRoundTrip is the contract sweep tooling relies on: for every
// built-in policy (and for the FT/Jackal families across their numeric
// range), Parse(p.Name()) must return a policy with the same name —
// including under case folding and surrounding whitespace.
func TestParseRoundTrip(t *testing.T) {
	p := params()
	pols := Builtins(p)
	for _, k := range []int{3, 7, 10, 128} {
		pols = append(pols, Fixed{T: k}, Jackal{Max: k})
	}
	for _, pol := range pols {
		name := pol.Name()
		for _, in := range []string{
			name,
			strings.ToLower(name),
			strings.ToUpper(name),
			"  " + name + "\t\n",
		} {
			got, err := Parse(in, p)
			if err != nil {
				t.Errorf("Parse(%q): %v", in, err)
				continue
			}
			if got.Name() != name {
				t.Errorf("Parse(%q).Name() = %q, want %q", in, got.Name(), name)
			}
			_, gotBarrier := got.(BarrierPolicy)
			if _, barrier := pol.(BarrierPolicy); gotBarrier != barrier {
				t.Errorf("Parse(%q) is a barrier policy: %v, want %v", in, gotBarrier, barrier)
			}
		}
	}
}

// Property: FT1 is at least as eager as FT2 which is at least as eager as
// FT3 — eagerness is monotone in the threshold (§5.2: "FT1 always
// performs home migration more eagerly than FT2").
func TestFixedEagernessMonotoneProperty(t *testing.T) {
	p := params()
	f := func(run uint8, req uint8) bool {
		s := stateWithRun(p, memory.NodeID(req%4), int(run%10))
		r := memory.NodeID(req % 4)
		m1 := Fixed{T: 1}.Decide(fault(s, r)).Migrate
		m2 := Fixed{T: 2}.Decide(fault(s, r)).Migrate
		m3 := Fixed{T: 3}.Decide(fault(s, r)).Migrate
		// m3 ⇒ m2 ⇒ m1
		return (!m3 || m2) && (!m2 || m1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AT with no feedback behaves exactly like FT1 (both use
// threshold 1), making FT1 the eagerness ceiling AT can reach.
func TestAdaptiveEqualsFT1WithoutFeedbackProperty(t *testing.T) {
	p := params()
	f := func(run uint8, req uint8) bool {
		s := stateWithRun(p, memory.NodeID(req%4), int(run%10))
		r := memory.NodeID(req % 4)
		return Adaptive{P: p}.ShouldMigrate(s, r, 0) == Fixed{T: 1}.Decide(fault(s, r)).Migrate
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
