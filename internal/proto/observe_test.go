package proto

import (
	"testing"

	"repro/internal/flight"
	"repro/internal/hlc"
	"repro/internal/memory"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// logSub keeps what it is delivered.
type logSub struct {
	kinds flight.Mask
	got   []flight.Event
}

func (l *logSub) Kinds() flight.Mask     { return l.kinds }
func (l *logSub) Record(ev flight.Event) { l.got = append(l.got, ev) }

// TestEmitFanOut: each subscriber receives exactly the kinds it
// declared, attributed to the emitting node, and a site asks On before
// it builds anything — false for every kind on a node nobody subscribed
// to, the zero value included.
func TestEmitFanOut(t *testing.T) {
	var zero Node
	for k := flight.Kind(0); k < flight.NumKinds; k++ {
		if zero.On(k) {
			t.Fatalf("zero-value node listens to %v", k)
		}
	}
	zero.Emit(flight.Event{Kind: flight.HomeRead}) // no subscriber: a no-op, not a crash

	n := &Node{ID: 3}
	writes := &logSub{kinds: flight.MaskOf(flight.HomeWrite, flight.RemoteWrite)}
	sync := &logSub{kinds: flight.MaskOf(flight.LockGrant, flight.HomeWrite)}
	n.Subscribe(writes)
	n.Subscribe(sync)
	for _, k := range []flight.Kind{flight.HomeWrite, flight.RemoteWrite, flight.LockGrant} {
		if !n.On(k) {
			t.Errorf("node does not listen to %v", k)
		}
	}
	if n.On(flight.HomeRead) || n.On(flight.Read) {
		t.Error("node listens to a kind nobody declared")
	}
	for _, ev := range []flight.Event{
		{Kind: flight.HomeWrite, Obj: 1},
		{Kind: flight.LockGrant, Sync: 2, Peer: 1},
		{Kind: flight.RemoteWrite, Obj: 1, Peer: 2},
		{Kind: flight.HomeRead, Obj: 9},
	} {
		n.Emit(ev)
	}
	kindsOf := func(evs []flight.Event) (ks []flight.Kind) {
		for _, e := range evs {
			if e.Node != 3 {
				t.Errorf("event %+v not attributed to node 3", e)
			}
			ks = append(ks, e.Kind)
		}
		return ks
	}
	if got := kindsOf(writes.got); len(got) != 2 || got[0] != flight.HomeWrite || got[1] != flight.RemoteWrite {
		t.Errorf("write subscriber got %v", got)
	}
	if got := kindsOf(sync.got); len(got) != 2 || got[0] != flight.HomeWrite || got[1] != flight.LockGrant {
		t.Errorf("sync subscriber got %v", got)
	}
}

// site is the production call-site form: one mask test, the event built
// only behind it. (The benchmarks below spell it out in their loops: a
// real site is inline in its handler, not a call away.)
func site(n *Node, obj memory.ObjectID) {
	if n.On(flight.HomeWrite) {
		n.Emit(flight.Event{Kind: flight.HomeWrite, Obj: obj})
	}
}

// listened returns a node with the production subscriber set: the
// flight ring, the telemetry sketch and a Trace.
func listened() *Node {
	n := &Node{}
	n.Subscribe(flight.NewRecorder(0, 1024, hlc.New(nil).Tick))
	n.Subscribe(telemetry.NewSink(8))
	n.Subscribe(&trace.Trace{Events: make([]flight.Event, 0, 1<<16)})
	return n
}

// TestEmitAllocatesNothing pins the overhead contract in tier-1: a site
// nobody listens to does no work at all, and fanning one event out to
// the ring, the sketch and a Trace allocates nothing in steady state.
func TestEmitAllocatesNothing(t *testing.T) {
	off := &Node{}
	if n := testing.AllocsPerRun(1000, func() { site(off, 3) }); n != 0 {
		t.Errorf("site without subscribers allocates %v/op, want 0", n)
	}
	on := listened()
	site(on, 3) // admit the object to the sketch
	if n := testing.AllocsPerRun(1000, func() { site(on, 3) }); n != 0 {
		t.Errorf("emit to ring+sink+trace allocates %v/op, want 0", n)
	}
}

// BenchmarkEmitDisabled is what every protocol site costs a run that
// attaches nothing: sub-nanosecond, 0 allocs.
func BenchmarkEmitDisabled(b *testing.B) {
	b.ReportAllocs()
	n := &Node{}
	for i := 0; i < b.N; i++ {
		if n.On(flight.HomeWrite) {
			n.Emit(flight.Event{Kind: flight.HomeWrite, Obj: memory.ObjectID(i & 7)})
		}
	}
}

// BenchmarkEmitRingSink is the same site with the ring and the sketch
// subscribed (a traced benchmark child).
func BenchmarkEmitRingSink(b *testing.B) {
	b.ReportAllocs()
	n := &Node{}
	n.Subscribe(flight.NewRecorder(0, 1024, hlc.New(nil).Tick))
	n.Subscribe(telemetry.NewSink(8))
	for i := 0; i < b.N; i++ {
		if n.On(flight.HomeWrite) {
			n.Emit(flight.Event{Kind: flight.HomeWrite, Obj: memory.ObjectID(i & 7)})
		}
	}
}
