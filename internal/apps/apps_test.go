package apps

import (
	"strconv"
	"strings"
	"testing"

	dsm "repro"

	"repro/internal/scenario"
)

// opts builds debug-checked options.
func opts(nodes int, policy string) Options {
	return Options{Config: dsm.Config{Nodes: nodes, Policy: policy, DebugWire: true}}
}

func TestASPMatchesSequential(t *testing.T) {
	for _, pol := range []string{"NoHM", "FT1", "FT2", "AT", "JUMP"} {
		for _, nodes := range []int{1, 2, 4} {
			r, err := RunASP(24, opts(nodes, pol))
			if err != nil {
				t.Fatalf("ASP %s/%d nodes: %v", pol, nodes, err)
			}
			if r.Metrics.ExecTime <= 0 {
				t.Fatalf("ASP %s/%d: no time", pol, nodes)
			}
		}
	}
}

func TestASPRejectsTinyGraph(t *testing.T) {
	if _, err := RunASP(1, opts(1, "AT")); err == nil {
		t.Fatal("ASP accepted n=1")
	}
}

func TestASPMigrationMovesRowsToWriters(t *testing.T) {
	// After the run, AT must have moved nearly every row to its writer.
	n, nodes := 32, 4
	c := dsm.New(dsm.Config{Nodes: nodes, Policy: "AT", DebugWire: true})
	dist := c.NewArray("dist", n, n, dsm.RoundRobin)
	g := aspGraph(n, 0)
	for i := 0; i < n; i++ {
		row := g[i]
		dist.InitRow(i, func(w []uint64) {
			for j, v := range row {
				w[j] = uint64(v)
			}
		})
	}
	bar := c.NewBarrier(0, nodes)
	_, err := c.Run(nodes, func(t2 dsm.Thread) {
		lo, hi := blockRange(n, nodes, t2.ID())
		for k := 0; k < n; k++ {
			rowK := dist.RowView(t2, k)
			for i := lo; i < hi; i++ {
				row := dist.RowView(t2, i)
				dik := int64(row[k])
				if dik < aspInf {
					w := dist.RowWriteView(t2, i)
					for j := 0; j < n; j++ {
						if v := dik + int64(rowK[j]); v < int64(w[j]) {
							w[j] = uint64(v)
						}
					}
				}
			}
			t2.Barrier(bar)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	misplaced := 0
	for i := 0; i < n; i++ {
		owner := 0
		for p := 0; p < nodes; p++ {
			if lo, hi := blockRange(n, nodes, p); i >= lo && i < hi {
				owner = p
			}
		}
		if c.HomeOf(dist.Object(i)) != dsm.NodeID(owner) {
			misplaced++
		}
	}
	// Rows that never relax (no finite d[i][k]) may stay put; the bulk
	// must migrate.
	if misplaced > n/4 {
		t.Fatalf("%d/%d rows did not migrate to their writers", misplaced, n)
	}
}

func TestSORMatchesSequential(t *testing.T) {
	for _, pol := range []string{"NoHM", "AT", "Jiajia"} {
		for _, nodes := range []int{1, 2, 4} {
			if _, err := RunSOR(16, 3, opts(nodes, pol)); err != nil {
				t.Fatalf("SOR %s/%d nodes: %v", pol, nodes, err)
			}
		}
	}
}

func TestSORRejectsBadShape(t *testing.T) {
	if _, err := RunSOR(2, 1, opts(1, "AT")); err == nil {
		t.Fatal("SOR accepted n=2")
	}
	if _, err := RunSOR(16, 0, opts(1, "AT")); err == nil {
		t.Fatal("SOR accepted iters=0")
	}
}

func TestSORMigrationHelps(t *testing.T) {
	// Enough iterations for the one-off migration cost to amortize.
	no, err := RunSOR(32, 16, opts(4, "NoHM"))
	if err != nil {
		t.Fatal(err)
	}
	at, err := RunSOR(32, 16, opts(4, "AT"))
	if err != nil {
		t.Fatal(err)
	}
	if at.Metrics.ExecTime >= no.Metrics.ExecTime {
		t.Fatalf("AT (%v) not faster than NoHM (%v) on SOR", at.Metrics.ExecTime, no.Metrics.ExecTime)
	}
	if at.Metrics.TotalMsgs(false) >= no.Metrics.TotalMsgs(false) {
		t.Fatalf("AT (%d msgs) not fewer than NoHM (%d msgs) on SOR",
			at.Metrics.TotalMsgs(false), no.Metrics.TotalMsgs(false))
	}
}

func TestNBodyMatchesSequential(t *testing.T) {
	for _, pol := range []string{"NoHM", "AT"} {
		for _, nodes := range []int{1, 2, 4} {
			if _, err := RunNBody(64, 3, opts(nodes, pol)); err != nil {
				t.Fatalf("Nbody %s/%d nodes: %v", pol, nodes, err)
			}
		}
	}
}

func TestNBodyRejectsBadCount(t *testing.T) {
	if _, err := RunNBody(10, 1, opts(1, "AT")); err == nil {
		t.Fatal("Nbody accepted n=10")
	}
}

func TestNBodyMigrationNeutral(t *testing.T) {
	// The paper: "home migration has little impact on ... Nbody" — the
	// rotating writer assignment is transient, so AT must not blow up
	// message counts relative to NoHM.
	no, err := RunNBody(64, 6, opts(4, "NoHM"))
	if err != nil {
		t.Fatal(err)
	}
	at, err := RunNBody(64, 6, opts(4, "AT"))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(at.Metrics.TotalMsgs(false)) / float64(no.Metrics.TotalMsgs(false))
	if ratio > 1.15 {
		t.Fatalf("AT message count %.2fx NoHM on Nbody — not neutral", ratio)
	}
}

func TestTSPMatchesSequential(t *testing.T) {
	for _, pol := range []string{"NoHM", "AT"} {
		for _, nodes := range []int{1, 2, 4} {
			if _, err := RunTSP(8, opts(nodes, pol)); err != nil {
				t.Fatalf("TSP %s/%d nodes: %v", pol, nodes, err)
			}
		}
	}
}

func TestTSPRejectsBadSize(t *testing.T) {
	if _, err := RunTSP(2, opts(1, "AT")); err == nil {
		t.Fatal("TSP accepted 2 cities")
	}
	if _, err := RunTSP(20, opts(1, "AT")); err == nil {
		t.Fatal("TSP accepted 20 cities")
	}
}

func TestSyntheticBasic(t *testing.T) {
	for _, pol := range []string{"NM", "FT1", "FT2", "AT"} {
		r, err := RunSynthetic(SyntheticOpts{
			Repetition: 4, TotalUpdates: 64, Workers: 4,
		}, opts(5, pol))
		if err != nil {
			t.Fatalf("synthetic %s: %v", pol, err)
		}
		if r.Metrics.ExecTime <= 0 {
			t.Fatalf("synthetic %s: no time", pol)
		}
	}
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := RunSynthetic(SyntheticOpts{Repetition: 0, TotalUpdates: 1, Workers: 1}, opts(2, "AT")); err == nil {
		t.Fatal("accepted r=0")
	}
	if _, err := RunSynthetic(SyntheticOpts{Repetition: 1, TotalUpdates: 1, Workers: 4}, opts(2, "AT")); err == nil {
		t.Fatal("accepted too few nodes")
	}
}

func TestSyntheticLastingPatternFavorsMigration(t *testing.T) {
	// r=16: FT1 and AT eliminate most fault-ins vs NM (§5.2's 87.2%).
	run := func(pol string) dsm.Metrics {
		r, err := RunSynthetic(SyntheticOpts{Repetition: 16, TotalUpdates: 512, Workers: 4},
			opts(5, pol))
		if err != nil {
			t.Fatal(err)
		}
		return r.Metrics
	}
	nm, ft1, at := run("NM"), run("FT1"), run("AT")
	if ft1.TotalMsgs(false) >= nm.TotalMsgs(false)/2 {
		t.Fatalf("FT1 msgs %d vs NM %d: expected big elimination at r=16",
			ft1.TotalMsgs(false), nm.TotalMsgs(false))
	}
	if at.TotalMsgs(false) >= nm.TotalMsgs(false)/2 {
		t.Fatalf("AT msgs %d vs NM %d: expected AT to match FT1 sensitivity",
			at.TotalMsgs(false), nm.TotalMsgs(false))
	}
}

func TestSyntheticTransientPatternFavorsAT(t *testing.T) {
	// r=2: fixed-threshold FT1 pays redirections; AT suppresses them.
	run := func(pol string) dsm.Metrics {
		r, err := RunSynthetic(SyntheticOpts{Repetition: 2, TotalUpdates: 256, Workers: 4},
			opts(5, pol))
		if err != nil {
			t.Fatal(err)
		}
		return r.Metrics
	}
	ft1, at := run("FT1"), run("AT")
	if atR, ftR := at.Breakdown().Redir, ft1.Breakdown().Redir; atR >= ftR {
		t.Fatalf("AT redirections %d not below FT1's %d at r=2", atR, ftR)
	}
	if at.Migrations >= ft1.Migrations {
		t.Fatalf("AT migrations %d not below FT1's %d at r=2", at.Migrations, ft1.Migrations)
	}
}

// TestRunAppUnknown: Run is the one dispatch over application names, so
// it is where a name outside the set must fail — before a cluster is
// built, and naming what was asked for. The figure layer's display names
// ("ASP") are not Run's ("asp"); bench.Sizes.Spec lower-cases them.
func TestRunAppUnknown(t *testing.T) {
	for _, app := range []string{"nope", "", "ASP"} {
		_, err := Run(Spec{App: app, N: 16}, opts(2, "AT"))
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(app)) {
			t.Errorf("Run(%q) = %v, want an unknown-app error naming it", app, err)
		}
	}
}

func TestRngDeterminism(t *testing.T) {
	a, b := newRng(42), newRng(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("rng nondeterministic")
		}
	}
	if newRng(0).Next() == 0 {
		t.Fatal("zero seed not remapped")
	}
}

func TestBlockRangeCoversAll(t *testing.T) {
	for n := 1; n <= 20; n++ {
		for p := 1; p <= 6; p++ {
			covered := 0
			prevHi := 0
			for me := 0; me < p; me++ {
				lo, hi := blockRange(n, p, me)
				if lo != prevHi {
					t.Fatalf("gap at n=%d p=%d me=%d", n, p, me)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("blockRange covers %d of %d (p=%d)", covered, n, p)
			}
		}
	}
}

func TestGraphAndDistanceDeterminism(t *testing.T) {
	g1, g2 := aspGraph(16, 0), aspGraph(16, 0)
	seeded := aspGraph(16, 7)
	same := true
	for i := range g1 {
		for j := range g1[i] {
			if g1[i][j] != seeded[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("trial seed did not perturb aspGraph")
	}
	for i := range g1 {
		for j := range g1[i] {
			if g1[i][j] != g2[i][j] {
				t.Fatal("aspGraph nondeterministic")
			}
		}
	}
	d1, d2 := tspDist(8, 0), tspDist(8, 0)
	for i := range d1 {
		for j := range d1[i] {
			if d1[i][j] != d2[i][j] {
				t.Fatal("tspDist nondeterministic")
			}
			if d1[i][j] != d1[j][i] {
				t.Fatal("tspDist asymmetric")
			}
		}
	}
}

// TestAppDeterminism runs every application twice under identical
// configurations and demands byte-identical metrics — the property that
// makes every figure and ablation number exactly reproducible (README
// "Determinism").
func TestAppDeterminism(t *testing.T) {
	type runner func() dsm.Metrics
	cases := map[string]runner{
		"asp": func() dsm.Metrics {
			r, err := RunASP(32, opts(4, "AT"))
			if err != nil {
				t.Fatal(err)
			}
			return r.Metrics
		},
		"sor": func() dsm.Metrics {
			r, err := RunSOR(32, 4, opts(4, "AT"))
			if err != nil {
				t.Fatal(err)
			}
			return r.Metrics
		},
		"nbody": func() dsm.Metrics {
			r, err := RunNBody(64, 3, opts(4, "AT"))
			if err != nil {
				t.Fatal(err)
			}
			return r.Metrics
		},
		"tsp": func() dsm.Metrics {
			r, err := RunTSP(8, opts(4, "AT"))
			if err != nil {
				t.Fatal(err)
			}
			return r.Metrics
		},
		"synthetic": func() dsm.Metrics {
			r, err := RunSynthetic(SyntheticOpts{Repetition: 4, TotalUpdates: 128, Workers: 4}, opts(5, "AT"))
			if err != nil {
				t.Fatal(err)
			}
			return r.Metrics
		},
	}
	for name, run := range cases {
		a, b := run(), run()
		if a != b {
			t.Errorf("%s: nondeterministic metrics:\n%+v\n%+v", name, a, b)
		}
	}
}

// TestLiveViewAppsRaceFree runs SOR and ASP, whose threads write their
// home rows through views while other nodes fault those rows in, on the
// live engine over the in-process transport, a few times each with the
// full check. Under the race detector it is the guard of the rule that a
// fault-in reads a viewed home copy only while every holder is inside
// the DSM.
func TestLiveViewAppsRaceFree(t *testing.T) {
	o := Options{Config: dsm.Config{Nodes: 4, Engine: "live"}, Check: true}
	for rep := 0; rep < 4; rep++ {
		if _, err := RunSOR(64, 4, o); err != nil {
			t.Fatalf("SOR rep %d: %v", rep, err)
		}
		if _, err := RunASP(48, o); err != nil {
			t.Fatalf("ASP rep %d: %v", rep, err)
		}
	}
}

// TestLiveCheckedRuns runs the synthetic benchmark and a generated
// program checked on the live engine over the in-process transport. The
// synthetic workers take turns under one lock, so their events reach the
// oracle's checker one after another; the program's threads synchronize
// through several locks and a barrier, so nodes deliver events to the
// checker at once, and it folds them under its own lock — the race
// detector's guard of that lock.
func TestLiveCheckedRuns(t *testing.T) {
	o := opts(5, "AT")
	o.Engine, o.Check = "live", true
	r, err := RunSynthetic(SyntheticOpts{Repetition: 4, TotalUpdates: 512, Workers: 4}, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.OracleOps == 0 {
		t.Fatal("synthetic: the checker received no event")
	}
	for seed := uint64(1); seed <= 4; seed++ {
		r, err := RunScenario(scenario.Generate(seed), o)
		if err != nil {
			t.Fatalf("scenario %d: %v", seed, err)
		}
		if r.OracleOps == 0 {
			t.Fatalf("scenario %d: the checker received no event", seed)
		}
	}
}

// TestLiveFramesAreTheCounters: a live run counts each frame it sends once,
// in its nodes' protocol counters, and reports the transport's frames and
// bytes from them — so they equal the category totals, on every policy and
// workload.
func TestLiveFramesAreTheCounters(t *testing.T) {
	runs := map[string]func(Options) (Result, error){
		"asp":      func(o Options) (Result, error) { return RunASP(24, o) },
		"sor":      func(o Options) (Result, error) { return RunSOR(32, 4, o) },
		"scenario": func(o Options) (Result, error) { return RunScenario(scenario.Generate(5), o) },
	}
	for name, run := range runs {
		for _, pol := range []string{"AT", "NoHM", "Jiajia", "JUMP"} {
			o := opts(4, pol)
			o.Engine = "live"
			r, err := run(o)
			if err != nil {
				t.Fatalf("%s %s: %v", name, pol, err)
			}
			m := r.Metrics
			if m.LiveMsgs == 0 || m.LiveMsgs != m.TotalMsgs(true) || m.LiveBytes != m.TotalBytes(true) {
				t.Errorf("%s %s: live frames %d (%d bytes), counters %d (%d bytes)",
					name, pol, m.LiveMsgs, m.LiveBytes, m.TotalMsgs(true), m.TotalBytes(true))
			}
		}
	}
}
