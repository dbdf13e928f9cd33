package trace

import (
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/memory"
)

func writeBurst(t *Trace, obj memory.ObjectID, writer memory.NodeID, n int) {
	for i := 0; i < n; i++ {
		t.Record(flight.Event{Obj: obj, Kind: flight.Request, Peer: writer})
		t.Record(flight.Event{Obj: obj, Kind: flight.RemoteWrite, Peer: writer, Bytes: 64})
	}
}

func TestAnalyzeReadMostly(t *testing.T) {
	var tr Trace
	tr.Record(flight.Event{Obj: 1, Kind: flight.Request, Peer: 2})
	tr.Record(flight.Event{Obj: 1, Kind: flight.HomeRead, Node: 0})
	ps := Analyze(tr.Events)
	if len(ps) != 1 || ps[0].Pattern != ReadMostly {
		t.Fatalf("profiles = %+v", ps)
	}
	if ps[0].Requests != 1 {
		t.Fatalf("requests = %d", ps[0].Requests)
	}
}

func TestAnalyzeSingleWriterLasting(t *testing.T) {
	var tr Trace
	writeBurst(&tr, 5, 3, 20)
	ps := Analyze(tr.Events)
	if ps[0].Pattern != SingleWriterLasting {
		t.Fatalf("pattern = %v", ps[0].Pattern)
	}
	if ps[0].MaxRun != 20 || ps[0].Writers != 1 {
		t.Fatalf("profile = %+v", ps[0])
	}
}

func TestAnalyzeTransientSingleWriter(t *testing.T) {
	var tr Trace
	for turn := 0; turn < 10; turn++ {
		writeBurst(&tr, 5, memory.NodeID(1+turn%3), 3)
	}
	ps := Analyze(tr.Events)
	if ps[0].Pattern != SingleWriterTransient {
		t.Fatalf("pattern = %v (profile %+v)", ps[0].Pattern, ps[0])
	}
	if ps[0].Writers != 3 {
		t.Fatalf("writers = %d", ps[0].Writers)
	}
}

func TestAnalyzeMultipleWriter(t *testing.T) {
	var tr Trace
	for i := 0; i < 20; i++ {
		tr.Record(flight.Event{Obj: 9, Kind: flight.RemoteWrite, Peer: memory.NodeID(1 + i%2), Bytes: 8})
	}
	ps := Analyze(tr.Events)
	if ps[0].Pattern != MultipleWriter {
		t.Fatalf("pattern = %v", ps[0].Pattern)
	}
	if ps[0].MeanRun != 1 {
		t.Fatalf("mean run = %v", ps[0].MeanRun)
	}
}

func TestAnalyzeMultipleObjectsSorted(t *testing.T) {
	var tr Trace
	writeBurst(&tr, 7, 1, 2)
	writeBurst(&tr, 3, 1, 2)
	ps := Analyze(tr.Events)
	if len(ps) != 2 || ps[0].Obj != 3 || ps[1].Obj != 7 {
		t.Fatalf("profiles = %+v", ps)
	}
}

func TestReportRenders(t *testing.T) {
	var tr Trace
	writeBurst(&tr, 1, 2, 10)
	out := Report(Analyze(tr.Events))
	if !strings.Contains(out, "single-writer-lasting") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestPatternStrings(t *testing.T) {
	if ReadMostly.String() == "" || Pattern(99).String() == "" {
		t.Fatal("pattern strings")
	}
}

// TestAnalyzeReadsFlightTimeline feeds the classifier a merged flight
// timeline as is: the writer of a RemoteWrite and the requester of a
// Request are the event's Peer, the writer of a trapped HomeWrite is the
// emitting Node, and every other kind — frames, decisions, sync — is
// skipped without leaving a profile behind.
func TestAnalyzeReadsFlightTimeline(t *testing.T) {
	evs := []flight.Event{
		{Node: 0, Kind: flight.Request, Obj: 1, Peer: 2, Hops: 1},
		{Node: 0, Kind: flight.RemoteWrite, Obj: 1, Peer: 2, Bytes: 24},
		{Node: 2, Kind: flight.HomeWrite, Obj: 1},
		{Node: 2, Kind: flight.HomeRead, Obj: 1},
		{Node: 0, Kind: flight.FrameSend, Peer: 1},
		{Node: 0, Kind: flight.Decision, Obj: 5, Peer: 1},
		{Node: 0, Kind: flight.Acquire, Thread: 3, Sync: 1},
	}
	ps := Analyze(evs)
	if len(ps) != 1 {
		t.Fatalf("profiles = %+v, want object 1 only", ps)
	}
	want := Profile{Obj: 1, Pattern: SingleWriterLasting, Writes: 2, Writers: 1,
		MaxRun: 2, MeanRun: 2, Requests: 1, RedirHops: 1}
	if ps[0] != want {
		t.Errorf("profile = %+v, want %+v", ps[0], want)
	}
	var tr Trace
	for _, e := range evs {
		if tr.Kinds().Has(e.Kind) {
			tr.Record(e)
		}
	}
	if tr.Len() != 4 {
		t.Errorf("a Trace subscribed with Kinds() kept %d of the events, want 4", tr.Len())
	}
}
