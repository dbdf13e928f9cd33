package telemetry

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/flight"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/stats"
)

func TestRegistrySnapshotReadsScalarsAndHists(t *testing.T) {
	r := NewRegistry(3, `policy="AT"`)
	var frames, depth atomic.Int64
	r.CounterFunc("dsm_frames_total", "frames", "", frames.Load)
	r.GaugeFunc("dsm_depth", "depth", "", depth.Load)
	r.CounterFunc("dsm_fn_total", "fn", `peer="1"`, func() int64 { return 42 })
	r.HistFunc("dsm_rtt_ns", "rtt", "", func(dst *stats.Hist) {
		dst.Observe(100)
		dst.Observe(100)
	})
	frames.Add(8)
	depth.Store(3)

	snap := r.Snapshot()
	if snap.Node != 3 || snap.Common != `policy="AT"` {
		t.Fatalf("snapshot identity wrong: %+v", snap)
	}
	vals := map[string]int64{}
	kinds := map[string]Kind{}
	for _, s := range snap.Samples {
		vals[s.Name] = s.Value
		kinds[s.Name] = s.Kind
	}
	if vals["dsm_frames_total"] != 8 || vals["dsm_depth"] != 3 || vals["dsm_fn_total"] != 42 {
		t.Fatalf("scalar values wrong: %v", vals)
	}
	if kinds["dsm_frames_total"] != KindCounter || kinds["dsm_depth"] != KindGauge {
		t.Fatalf("scalar kinds wrong: %v", kinds)
	}
	if len(snap.Hists) != 1 || snap.Hists[0].Name != "dsm_rtt_ns" {
		t.Fatalf("hists wrong: %+v", snap.Hists)
	}
	var n int64
	for _, c := range snap.Hists[0].Buckets {
		n += c
	}
	if n != 2 {
		t.Fatalf("hist fill lost samples: %+v", snap.Hists[0].Buckets)
	}
}

// access and decide feed a sink the event a protocol site would emit.
func access(s *Sink, obj memory.ObjectID, k flight.Kind) {
	s.Record(flight.Event{Kind: k, Obj: obj})
}

func decide(s *Sink, obj memory.ObjectID, reason migration.Reason, migrated bool) {
	s.Record(flight.Event{Kind: flight.Decision, Obj: obj, Reason: reason, Migrated: migrated})
}

func TestSinkSpaceSavingEviction(t *testing.T) {
	s := NewSink(2)
	for i := 0; i < 3; i++ {
		access(s, 1, flight.HomeWrite)
	}
	access(s, 2, flight.Request)
	access(s, 2, flight.Request)
	// Sketch full; object 3 must evict the minimum (object 2, count 2)
	// and inherit its count as the error bound.
	access(s, 3, flight.RemoteWrite)

	top := s.Top(0)
	if len(top) != 2 {
		t.Fatalf("Top returned %d entries, want 2", len(top))
	}
	if top[0].Obj != 1 || top[0].Count != 3 || top[0].Err != 0 {
		t.Fatalf("hottest entry wrong: %+v", top[0])
	}
	if top[1].Obj != 3 || top[1].Count != 3 || top[1].Err != 2 {
		t.Fatalf("evicting entry wrong (want count=min+1=3, err=min=2): %+v", top[1])
	}
	if top[1].Kinds[RemoteFault] != 0 || top[1].Kinds[RemoteWrite] != 1 {
		t.Fatalf("evicted kinds not reset: %+v", top[1].Kinds)
	}
	if s.Total() != 6 {
		t.Fatalf("Total = %d, want 6", s.Total())
	}
}

func TestSinkMigrationExcludedFromCount(t *testing.T) {
	s := NewSink(4)
	access(s, 9, flight.HomeRead)
	decide(s, 9, migration.ReasonThresholdReached, true)
	decide(s, 9, migration.ReasonThresholdReached, true)
	top := s.Top(1)
	if top[0].Count != 1 {
		t.Fatalf("migrations leaked into the access count: %+v", top[0])
	}
	if top[0].Kinds[ObjMigration] != 2 {
		t.Fatalf("migration kind not tracked: %+v", top[0])
	}
	if s.Total() != 1 {
		t.Fatalf("Total counts migrations: %d", s.Total())
	}
}

func TestSinkTopOrderingDeterministic(t *testing.T) {
	s := NewSink(8)
	// Equal counts must order by object id ascending.
	access(s, 5, flight.HomeRead)
	access(s, 2, flight.HomeRead)
	access(s, 7, flight.HomeRead)
	top := s.Top(0)
	if top[0].Obj != 2 || top[1].Obj != 5 || top[2].Obj != 7 {
		t.Fatalf("tie-break not by object id: %+v", top)
	}
	if got := s.Top(2); len(got) != 2 {
		t.Fatalf("Top(2) returned %d entries", len(got))
	}
}

func TestSinkDecisionsAndRemoteShare(t *testing.T) {
	s := NewSink(4)
	decide(s, 7, migration.ReasonThresholdReached, true)
	decide(s, 7, migration.ReasonThresholdReached, true)
	decide(s, 7, migration.ReasonBelowThreshold, false)
	mig, stay := s.Decisions()
	if mig[migration.ReasonThresholdReached] != 2 || stay[migration.ReasonBelowThreshold] != 1 {
		t.Fatalf("decision counts wrong: mig=%v stay=%v", mig, stay)
	}

	e := TopEntry{}
	e.Kinds[HomeRead] = 1
	e.Kinds[RemoteFault] = 2
	e.Kinds[RemoteWrite] = 1
	if got := e.Remote(); got != 0.75 {
		t.Fatalf("Remote() = %v, want 0.75", got)
	}
	if (TopEntry{}).Remote() != 0 {
		t.Fatal("empty entry Remote() should be 0")
	}
}

func TestSamplerRingWrapAndFrozenSet(t *testing.T) {
	r := NewRegistry(0, "")
	var c atomic.Int64
	r.CounterFunc("dsm_a_total", "a", "", c.Load)
	s := NewSampler(r, 3)
	// Registered after NewSampler: must not be sampled.
	r.CounterFunc("dsm_late_total", "late", "", c.Load)

	for i := 1; i <= 5; i++ {
		c.Add(10)
		s.Tick(int64(i * 100))
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (ring capacity)", s.Len())
	}
	ts := s.Series()
	if len(ts.Series) != 1 || ts.Series[0].Name != "dsm_a_total" {
		t.Fatalf("frozen set violated: %+v", ts.Series)
	}
	wantT := []int64{300, 400, 500}
	wantV := []int64{30, 40, 50}
	for i := range wantT {
		if ts.Times[i] != wantT[i] || ts.Series[0].Values[i] != wantV[i] {
			t.Fatalf("ring unroll wrong: times=%v values=%v", ts.Times, ts.Series[0].Values)
		}
	}

	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for _, want := range []string{`"times"`, `"dsm_a_total"`, "300"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("WriteJSON missing %q:\n%s", want, sb.String())
		}
	}
}

func TestSnapshotGobRoundTrip(t *testing.T) {
	r := NewRegistry(2, `policy="FT2"`)
	r.CounterFunc("dsm_x_total", "x", "", func() int64 { return 11 })
	r.HistFunc("dsm_h_ns", "h", "", func(dst *stats.Hist) { dst.Observe(9) })
	sink := NewSink(4)
	access(sink, 1, flight.Request)
	decide(sink, 1, migration.ReasonAlwaysMigrates, true)
	r.AttachSink(sink)

	buf, err := EncodeSnapshot(r.Snapshot())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Node != 2 || got.Common != `policy="FT2"` {
		t.Fatalf("identity lost: %+v", got)
	}
	if len(got.Samples) != 1 || got.Samples[0].Value != 11 {
		t.Fatalf("samples lost: %+v", got.Samples)
	}
	if len(got.TopK) != 1 || got.TopK[0].Obj != 1 || got.TopK[0].Kinds[RemoteFault] != 1 {
		t.Fatalf("topk lost: %+v", got.TopK)
	}
	if got.Migrated[migration.ReasonAlwaysMigrates] != 1 {
		t.Fatalf("decisions lost: %+v", got.Migrated)
	}
	if _, err := DecodeSnapshot([]byte("junk")); err == nil {
		t.Fatal("DecodeSnapshot accepted junk")
	}
}

func TestWritePromExposition(t *testing.T) {
	mk := func(node int) Snapshot {
		r := NewRegistry(node, `policy="AT"`)
		r.CounterFunc("dsm_frames_total", "Frames.", "", func() int64 { return int64(10 * (node + 1)) })
		r.GaugeFunc("dsm_depth", "Depth.", "", func() int64 { return int64(node) })
		r.HistFunc("dsm_rtt_ns", "RTT.", "", func(dst *stats.Hist) {
			dst.Observe(3) // bucket 2, bound 4
			dst.Observe(100)
		})
		s := NewSink(4)
		access(s, 7, flight.Request)
		access(s, 7, flight.HomeWrite)
		decide(s, 7, migration.ReasonThresholdReached, true)
		r.AttachSink(s)
		return r.Snapshot()
	}
	var sb strings.Builder
	// Deliberately unsorted input: output must still be node-ordered.
	if err := WriteProm(&sb, []Snapshot{mk(1), mk(0)}); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP dsm_frames_total Frames.",
		"# TYPE dsm_frames_total counter",
		"# TYPE dsm_depth gauge",
		`dsm_frames_total{node="0",policy="AT"} 10`,
		`dsm_frames_total{node="1",policy="AT"} 20`,
		"# TYPE dsm_rtt_ns histogram",
		`dsm_rtt_ns_bucket{node="0",policy="AT",le="4"} 1`,
		`dsm_rtt_ns_bucket{node="0",policy="AT",le="+Inf"} 2`,
		`dsm_rtt_ns_count{node="0",policy="AT"} 2`,
		`dsm_rtt_ns_count{node="cluster"} 4`,
		`dsm_hot_object_accesses{node="0",policy="AT",obj="7",kind="remote_fault"} 1`,
		`dsm_migration_decisions_total{node="1",policy="AT",reason="threshold-reached",migrated="true"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One HELP header per family, not per node.
	if strings.Count(out, "# HELP dsm_frames_total") != 1 {
		t.Fatalf("duplicate HELP headers:\n%s", out)
	}
	// node="0" series must precede node="1" despite the input order.
	if strings.Index(out, `dsm_frames_total{node="0"`) > strings.Index(out, `dsm_frames_total{node="1"`) {
		t.Fatalf("snapshots not node-sorted:\n%s", out)
	}
}

func TestWritePromDecisionReasonNames(t *testing.T) {
	// Every reason ordinal must render a stable label, never a panic or
	// an empty string.
	s := NewSink(1)
	for reason := migration.Reason(0); reason < migration.NumReasons; reason++ {
		decide(s, 7, reason, reason%2 == 0)
	}
	r := NewRegistry(0, "")
	r.AttachSink(s)
	var sb strings.Builder
	if err := WriteProm(&sb, []Snapshot{r.Snapshot()}); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	if strings.Contains(sb.String(), `reason=""`) {
		t.Fatalf("empty reason label:\n%s", sb.String())
	}
	if got := strings.Count(sb.String(), "dsm_migration_decisions_total{"); got != int(migration.NumReasons) {
		t.Fatalf("%d decision series, want %d:\n%s", got, migration.NumReasons, sb.String())
	}
}

func TestHotPathsAllocationFree(t *testing.T) {
	var v atomic.Int64
	r := NewRegistry(0, "")
	r.CounterFunc("dsm_a_total", "a", "", v.Load)
	r.GaugeFunc("dsm_b", "b", "", func() int64 { return 7 })
	s := NewSampler(r, 64)
	var now int64
	if n := testing.AllocsPerRun(1000, func() { now++; s.Tick(now) }); n != 0 {
		t.Fatalf("Sampler.Tick allocates %v/op", n)
	}

	sink := NewSink(8)
	access(sink, 1, flight.HomeWrite) // admit the object first
	if n := testing.AllocsPerRun(1000, func() { access(sink, 1, flight.HomeWrite) }); n != 0 {
		t.Fatalf("Sink.Record (steady state) allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { decide(sink, 7, migration.ReasonBelowThreshold, false) }); n != 0 {
		t.Fatalf("Sink.Record of a decision allocates %v/op", n)
	}
}
