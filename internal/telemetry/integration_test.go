package telemetry_test

import (
	"strings"
	"testing"

	dsm "repro"

	"repro/internal/apps"
	"repro/internal/flight"
	"repro/internal/memory"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// traced is a checked sim run under the policy that never migrates, with
// rings wide enough not to wrap and, when non-nil, sink attached.
func traced(sink *telemetry.Sink) apps.Options {
	return apps.Options{Config: dsm.Config{Policy: "NoHM", FlightCap: 1 << 16, Telemetry: sink}, Check: true}
}

// seedFor scans for the first seed generating a program of the wanted
// family — Generate derives everything from the seed, so families are
// found, not constructed.
func seedFor(t *testing.T, fam scenario.Family) (uint64, *scenario.Program) {
	t.Helper()
	for seed := uint64(0); seed < 500; seed++ {
		if p := scenario.Generate(seed); p.Family == fam {
			return seed, p
		}
	}
	t.Fatalf("no seed under 500 generates family %v", fam)
	return 0, nil
}

// TestSimDigestUnchangedByTelemetry pins the no-feedback contract: a
// deterministic sim run must produce a byte-identical memory digest
// with and without a sink attached — and, the flight ring being just
// another subscriber of the same events, a byte-identical timeline.
func TestSimDigestUnchangedByTelemetry(t *testing.T) {
	timeline := func(res apps.Result) string {
		var sb strings.Builder
		if err := flight.WriteText(&sb, res.Flight); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for _, fam := range []scenario.Family{scenario.HotObject, scenario.Migratory, scenario.FalseSharing} {
		seed, p := seedFor(t, fam)
		bare, err := apps.RunScenario(p, traced(nil))
		if err != nil {
			t.Fatalf("seed %d bare run: %v", seed, err)
		}
		sink := telemetry.NewSink(0)
		wired, err := apps.RunScenario(p, traced(sink))
		if err != nil {
			t.Fatalf("seed %d telemetry run: %v", seed, err)
		}
		if bare.Digest != wired.Digest {
			t.Fatalf("seed %d (%v): telemetry perturbed the digest: %#x vs %#x",
				seed, fam, bare.Digest, wired.Digest)
		}
		if a, b := timeline(bare), timeline(wired); a == "" || a != b {
			t.Fatalf("seed %d (%v): telemetry perturbed the flight timeline (%d vs %d bytes)",
				seed, fam, len(a), len(b))
		}
		if sink.Total() == 0 {
			t.Fatalf("seed %d (%v): sink saw no accesses — hooks not wired", seed, fam)
		}
	}
}

// TestTopKAgreesWithTraceClassifier runs the hot-object and migratory
// families with both the flight recorder and the sink attached, then
// checks the sketch against the offline classifier event-for-event: the
// sink's write and request counts per object must equal the profile the
// classifier builds from the flight timeline (the sketch is wide enough
// here to hold every object exactly, so Err must stay zero).
func TestTopKAgreesWithTraceClassifier(t *testing.T) {
	for _, fam := range []scenario.Family{scenario.HotObject, scenario.Migratory} {
		seed, p := seedFor(t, fam)
		sink := telemetry.NewSink(256) // >> object count: exact counting, no eviction
		res, err := apps.RunScenario(p, traced(sink))
		if err != nil {
			t.Fatalf("seed %d run: %v", seed, err)
		}
		profiles := trace.Analyze(res.Flight)
		if len(profiles) == 0 {
			t.Fatalf("seed %d (%v): classifier saw no objects", seed, fam)
		}
		byObj := map[memory.ObjectID]telemetry.TopEntry{}
		for _, e := range sink.Top(0) {
			if e.Err != 0 {
				t.Fatalf("seed %d (%v): sketch evicted with k=256: %+v", seed, fam, e)
			}
			byObj[e.Obj] = e
		}
		for _, prof := range profiles {
			e, ok := byObj[prof.Obj]
			if !ok {
				t.Fatalf("seed %d (%v): classifier object %d missing from the sink", seed, fam, prof.Obj)
			}
			writes := int(e.Kinds[telemetry.HomeWrite] + e.Kinds[telemetry.RemoteWrite])
			if writes != prof.Writes {
				t.Errorf("seed %d (%v) obj %d: sink writes %d, classifier %d",
					seed, fam, prof.Obj, writes, prof.Writes)
			}
			if int(e.Kinds[telemetry.RemoteFault]) != prof.Requests {
				t.Errorf("seed %d (%v) obj %d: sink requests %d, classifier %d",
					seed, fam, prof.Obj, e.Kinds[telemetry.RemoteFault], prof.Requests)
			}
		}
		// The classifier's hottest object (by writes+requests) must top
		// the sketch's ranking of the same measure.
		hot := profiles[0]
		for _, prof := range profiles[1:] {
			if prof.Writes+prof.Requests > hot.Writes+hot.Requests {
				hot = prof
			}
		}
		var sinkHot memory.ObjectID
		var sinkMax uint64
		for obj, e := range byObj {
			score := e.Kinds[telemetry.HomeWrite] + e.Kinds[telemetry.RemoteWrite] + e.Kinds[telemetry.RemoteFault]
			if score > sinkMax || (score == sinkMax && obj < sinkHot) {
				sinkMax, sinkHot = score, obj
			}
		}
		if hotScore := uint64(hot.Writes + hot.Requests); sinkMax != hotScore || sinkHot != hot.Obj {
			t.Errorf("seed %d (%v): hottest disagree: sink obj %d (%d), classifier obj %d (%d)",
				seed, fam, sinkHot, sinkMax, hot.Obj, hotScore)
		}
	}
}
