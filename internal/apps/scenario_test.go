package apps

import (
	"strings"
	"testing"

	dsm "repro"

	"repro/internal/flight"
	"repro/internal/scenario"
)

// familySeeds is one seed per generated family: 4-node programs (seed 5
// with two threads on one node) and producer-consumer on 3.
var familySeeds = []struct {
	seed   uint64
	family scenario.Family
	nodes  int
}{
	{1, scenario.Migratory, 4},
	{5, scenario.HotObject, 4},
	{8, scenario.FalseSharing, 4},
	{13, scenario.ProducerConsumer, 3},
	{14, scenario.Stencil, 4},
}

// TestScenarioIsAnApplication: a generated program runs through the same
// checked run as SOR — model, oracle, invariants, digest — on either
// engine, sizes its own cluster, and leaves one digest whatever the
// policy and the engine.
func TestScenarioIsAnApplication(t *testing.T) {
	for _, fs := range familySeeds {
		p := scenario.Generate(fs.seed)
		if p.Family != fs.family || p.Nodes != fs.nodes {
			t.Fatalf("seed %d generates %s on %d nodes, not %s on %d: pick another seed",
				fs.seed, p.Family, p.Nodes, fs.family, fs.nodes)
		}
		var digest uint64
		for _, engine := range []string{"sim", "live"} {
			for _, pol := range []string{"NoHM", "AT"} {
				res, err := RunScenario(p, Options{
					// Nodes is the program's to set, whatever the caller holds.
					Config: dsm.Config{Nodes: 9, Policy: pol, Engine: engine, DebugWire: true},
					Check:  true, Oracle: true,
				})
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", fs.seed, pol, engine, err)
				}
				if res.OracleOps == 0 || res.Digest == 0 {
					t.Errorf("seed %d %s/%s: gate did no work: %d oracle ops, digest %#x",
						fs.seed, pol, engine, res.OracleOps, res.Digest)
				}
				if digest == 0 {
					digest = res.Digest
				} else if res.Digest != digest {
					t.Errorf("seed %d %s/%s: digest %#x, the first run left %#x", fs.seed, pol, engine, res.Digest, digest)
				}
			}
		}
		// apps.Run reaches the same run from the application name.
		res, err := Run(Spec{App: "scenario"}, Options{Seed: fs.seed, Check: true})
		if err != nil || res.Digest != digest {
			t.Errorf("seed %d by name: digest %#x, err %v; RunScenario left %#x", fs.seed, res.Digest, err, digest)
		}
	}
}

// TestScenarioModelCheck: the validator holds the final memory to the
// model word by word, and a checked read that disagrees fails the run
// that saw it.
func TestScenarioModelCheck(t *testing.T) {
	p := scenario.Generate(8)
	p.Expected()[1][2]++
	_, err := RunScenario(p, Options{})
	if err == nil || !strings.Contains(err.Error(), "final obj 1 word 2") {
		t.Errorf("corrupted expected word not named: %v", err)
	}
	// The initial memory feeds the first phase's checked reads.
	p = scenario.Generate(8)
	for _, obj := range p.Initial() {
		for w := range obj {
			obj[w]++
		}
	}
	_, err = RunScenario(p, Options{})
	if err == nil || !strings.Contains(err.Error(), "a checked read disagrees with the model") ||
		!strings.Contains(err.Error(), "want 0x") {
		t.Errorf("misread not reported with the value the model wants: %v", err)
	}
}

// unbuilt is a cluster member nothing may touch: the size check must
// refuse the run before a cluster is built around it.
type unbuilt struct{ dsm.Transport }

func (unbuilt) LocalNode() dsm.NodeID                             { return 1 }
func (unbuilt) Observer(int) dsm.Observer                         { panic("observer asked of a refused run") }
func (unbuilt) FinishApp(*dsm.Cluster, *Result, bool, bool) error { panic("refused run finished") }
func (unbuilt) FlightRecorder() *flight.Recorder                  { panic("ring asked of a refused run") }
func (unbuilt) FlightTimeline() []flight.Event                    { panic("timeline asked of a refused run") }

// TestScenarioRefusesWrongClusterSize: a member cannot resize its
// cluster the way a single process does, so a seed that needs another
// size is an error naming that size — on every member alike, before
// anything is built (internal/live/cluster runs it over real members).
func TestScenarioRefusesWrongClusterSize(t *testing.T) {
	p := scenario.Generate(5) // 4 nodes
	_, err := RunScenario(p, Options{Config: dsm.Config{Nodes: 3, Engine: "live"}, Multi: unbuilt{}})
	if err == nil || !strings.Contains(err.Error(), "4-node program") || !strings.Contains(err.Error(), "3 members") {
		t.Fatalf("3-member cluster given a 4-node seed: %v", err)
	}
}
