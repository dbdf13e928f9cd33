package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/hlc"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/wire"
)

// seqStamp is a deterministic stamp source: Wall advances by step per
// call, Logical counts calls.
func seqStamp(start, step int64) func() hlc.Stamp {
	var n uint32
	wall := start
	return func() hlc.Stamp {
		n++
		wall += step
		return hlc.Stamp{Wall: wall, Logical: n}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRecorder(3, 4, seqStamp(0, 10))
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: Request, Sync: uint32(i)})
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	evs := r.Snapshot()
	for i, e := range evs {
		if want := uint32(6 + i); e.Sync != want {
			t.Errorf("snapshot[%d].Sync = %d, want %d (oldest-first)", i, e.Sync, want)
		}
		if e.Node != 3 {
			t.Errorf("snapshot[%d].Node = %d, want 3", i, e.Node)
		}
	}
	last := r.LastN(2)
	if len(last) != 2 || last[0].Sync != 8 || last[1].Sync != 9 {
		t.Errorf("LastN(2) = %+v, want events 8,9", last)
	}
	if more := r.LastN(100); len(more) != 4 {
		t.Errorf("LastN(100) returned %d events, want all 4", len(more))
	}
}

func TestRecordStampsAreMonotonic(t *testing.T) {
	r := NewRecorder(0, 16, seqStamp(100, 1))
	for i := 0; i < 8; i++ {
		r.Record(Event{Kind: HomeRead})
	}
	evs := r.Snapshot()
	for i := 1; i < len(evs); i++ {
		if !evs[i-1].Stamp().Less(evs[i].Stamp()) {
			t.Fatalf("stamps not increasing at %d: %+v then %+v", i, evs[i-1], evs[i])
		}
	}
}

func TestMergeHLCOrder(t *testing.T) {
	// Node 1's wall clock reads ahead of node 0's, but the stamps are
	// what they are: Merge must order strictly by (Wall, Logical, Node).
	a := []Event{
		{Wall: 10, Logical: 1, Node: 0, Kind: FrameSend},
		{Wall: 30, Logical: 2, Node: 0, Kind: FrameRecv},
	}
	b := []Event{
		{Wall: 10, Logical: 2, Node: 1, Kind: FrameSend},
		{Wall: 20, Logical: 1, Node: 1, Kind: FrameRecv},
	}
	merged := Merge(a, b)
	if len(merged) != 4 {
		t.Fatalf("merged %d events, want 4", len(merged))
	}
	wantWall := []int64{10, 10, 20, 30}
	wantNode := []memory.NodeID{0, 1, 1, 0}
	for i := range merged {
		if merged[i].Wall != wantWall[i] || merged[i].Node != wantNode[i] {
			t.Errorf("merged[%d] = (wall %d, node %d), want (wall %d, node %d)",
				i, merged[i].Wall, merged[i].Node, wantWall[i], wantNode[i])
		}
	}
	// Equal stamps tie-break by node: deterministic, repeatable.
	again := Merge(a, b)
	for i := range merged {
		if merged[i] != again[i] {
			t.Fatalf("merge not deterministic at %d", i)
		}
	}
}

func TestWriteTextRendersEveryKind(t *testing.T) {
	evs := []Event{
		{Kind: FrameSend, Peer: 1, Tag: uint8(wire.LockReq), Bytes: 64},
		{Kind: FrameRecv, Peer: 3, Tag: uint8(wire.LockGrant), Bytes: 53},
		{Kind: Decision, Obj: 7, Peer: 2, Migrated: true,
			Reason: migration.ReasonThresholdReached, Count: 3, Limit: 2.5},
		{Kind: LockGrant, Sync: 1, Peer: 3},
		{Kind: BarrierRelease, Sync: 9},
		{Kind: FaultInjected, Peer: 2},
		{Kind: Abort},
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, evs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"frame-send", "to=1 kind=LockReq bytes=64",
		"frame-recv", "from=3 kind=LockGrant bytes=53",
		"decision", "obj=7 requester=2 migrate reason=threshold-reached count=3 limit=2.5",
		"lock-grant", "lock=1 grantee=3",
		"barrier-release", "barrier=9",
		"fault-injected", "victim=2",
		"abort",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestChromeTraceParsesAndIsDeterministic(t *testing.T) {
	r := NewRecorder(1, 8, seqStamp(1_000_000, 2000))
	r.Record(Event{Kind: Request, Obj: 4, Peer: 0, Hops: 1})
	r.Record(Event{Kind: Decision, Obj: 4, Peer: 0, Migrated: false,
		Reason: migration.ReasonBelowThreshold, Count: 1, Limit: 2})
	r.Record(Event{Kind: FrameRecv, Peer: 0, Tag: uint8(wire.ObjReply), Bytes: 80})
	evs := r.Snapshot()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    int64          `json:"ts"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("trace has %d events, want 3", len(doc.TraceEvents))
	}
	dec := doc.TraceEvents[1]
	if dec.Name != "decision" || dec.Phase != "i" || dec.PID != 1 {
		t.Errorf("decision event rendered as %+v", dec)
	}
	if got := dec.Args["reason"]; got != "below-threshold" {
		t.Errorf("decision reason arg = %v, want below-threshold", got)
	}
	if got := doc.TraceEvents[2].Args["kind"]; got != "ObjReply" {
		t.Errorf("frame kind arg = %v, want ObjReply", got)
	}
	var again bytes.Buffer
	WriteChromeTrace(&again, evs)
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("Chrome export not byte-identical across repeated writes")
	}
}

func TestDumpLastNSkipsNilAndAttributes(t *testing.T) {
	r0 := NewRecorder(0, 4, seqStamp(0, 1))
	r2 := NewRecorder(2, 4, seqStamp(0, 1))
	r0.Record(Event{Kind: FrameSend, Peer: 2})
	r2.Record(Event{Kind: FrameRecv, Peer: 0})
	r2.Record(Event{Kind: Abort})
	var buf bytes.Buffer
	DumpLastN(&buf, []*Recorder{r0, nil, r2}, 8)
	out := buf.String()
	if !strings.Contains(out, "flight: node 0, last 1 of 1 event(s):") {
		t.Errorf("missing node 0 attribution:\n%s", out)
	}
	if !strings.Contains(out, "flight: node 2, last 2 of 2 event(s):") {
		t.Errorf("missing node 2 attribution:\n%s", out)
	}
	if strings.Contains(out, "node 1,") {
		t.Errorf("nil recorder rendered:\n%s", out)
	}
}

// TestNilRecorderRecordsNothing: a holder of an optional recorder — the
// transports' heartbeat and fault sites, the member's abort — calls
// Record with no test of its own; on a nil recorder it must return
// having done nothing, not panic.
func TestNilRecorderRecordsNothing(t *testing.T) {
	var off *Recorder
	off.Record(Event{Kind: Abort})
	off.Record(Event{Kind: HeartbeatSend, Peer: 2})
}

// TestRecordAllocatesNothing pins the overhead contract in tier-1: the
// disabled path of a transport's cold site — Record on a nil recorder —
// does no work at all, and an enabled ring record is a stamp plus a slot
// write — neither may allocate.
func TestRecordAllocatesNothing(t *testing.T) {
	var off *Recorder
	ev := Event{Kind: HomeWrite, Obj: 3}
	if n := testing.AllocsPerRun(1000, func() {
		off.Record(ev)
	}); n != 0 {
		t.Errorf("disabled path allocates %v/op, want 0", n)
	}
	on := NewRecorder(0, 1024, seqStamp(0, 1))
	if n := testing.AllocsPerRun(1000, func() {
		on.Record(ev)
	}); n != 0 {
		t.Errorf("enabled ring record allocates %v/op, want 0", n)
	}
}
