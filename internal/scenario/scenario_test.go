package scenario

import (
	"reflect"
	"testing"
)

// TestGenerateDeterministic: the same seed must yield byte-identical
// programs (scripts, init, expected memory) — scenario failures have to
// be replayable from their seed alone.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: non-deterministic generation", seed)
		}
	}
}

// TestFamiliesCovered: a modest seed range must exercise every family —
// a generator regression that collapses the family mix would silently
// narrow coverage.
func TestFamiliesCovered(t *testing.T) {
	seen := map[Family]bool{}
	for seed := uint64(1); seed <= 64; seed++ {
		seen[Generate(seed).Family] = true
	}
	for f := Family(0); f < numFamilies; f++ {
		if !seen[f] {
			t.Errorf("family %s never generated in seeds 1..64", f)
		}
	}
}
