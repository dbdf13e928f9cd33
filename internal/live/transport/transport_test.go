package transport

import (
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestQueueDepth: InboxLen tracks a ChanLoop inbox's current depth and
// PeakDepth the deepest any inbox got.
func TestQueueDepth(t *testing.T) {
	tr := NewChanLoop(2)
	for i := 0; i < 5; i++ {
		tr.Send(1, []byte{byte(i)})
	}
	if n := tr.InboxLen(1); n != 5 {
		t.Fatalf("InboxLen = %d, want 5", n)
	}
	for i := 0; i < 3; i++ {
		tr.Recv(1)
	}
	if n := tr.InboxLen(1); n != 2 {
		t.Fatalf("InboxLen after drain = %d, want 2", n)
	}
	if p := tr.PeakDepth(); p != 5 {
		t.Fatalf("PeakDepth = %d, want 5", p)
	}
}

// TestDeliverRelaysFramesSentDuringItsDrain: a frame sent to an inbox
// while its drain runs — here by the drained sink itself — is not the
// draining caller's: its Deliver returns after its batch, and the drain's
// re-check hands the rest to a relay goroutine, which delivers each of
// them once, in send order.
func TestDeliverRelaysFramesSentDuringItsDrain(t *testing.T) {
	tr := NewChanLoop(2)
	defer tr.Close()
	release := make(chan struct{})
	var mu sync.Mutex
	var got []byte
	tr.SetSink(1, func(frame []byte) error {
		if frame[0] == 0 {
			tr.Send(1, []byte{1})
			tr.Send(1, []byte{2})
		} else {
			<-release // a caller that drained these itself would never return
		}
		mu.Lock()
		got = append(got, frame[0])
		mu.Unlock()
		PutFrame(frame)
		return nil
	})
	delivered := func() []byte {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(got)
	}
	tr.Send(1, []byte{0})
	returned := make(chan struct{})
	go func() {
		tr.Deliver(1)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Deliver kept draining the frames its own batch sent")
	}
	if d := delivered(); !slices.Equal(d, []byte{0}) {
		t.Fatalf("Deliver's caller handed over %v, want [0]", d)
	}
	close(release)
	for deadline := time.Now().Add(5 * time.Second); len(delivered()) < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %v after the caller returned; the frames sent during its drain were stranded", delivered())
		}
	}
	tr.Deliver(1) // nothing is left to deliver twice
	if d := delivered(); !slices.Equal(d, []byte{0, 1, 2}) || tr.InboxLen(1) != 0 {
		t.Fatalf("delivered %v with %d queued, want [0 1 2] once each", d, tr.InboxLen(1))
	}
}

// TestQueueWrapAndGrow: elements come out in Put order across ring
// wrap-around and across a growth that happens while the ring is
// wrapped, and Peak is the deepest the queue got.
func TestQueueWrapAndGrow(t *testing.T) {
	q := NewQueue[int]()
	next, want := 0, 0
	put := func(n int) {
		for i := 0; i < n; i++ {
			q.Put(next)
			next++
		}
	}
	get := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if v, ok := q.Get(); !ok || v != want {
				t.Fatalf("Get = %d, %v; want %d", v, ok, want)
			}
			want++
		}
	}
	put(6)
	get(5) // head at 5 of 8
	put(6) // wraps: 7 queued in a ring of 8
	if got := cap(q.buf); got != 8 {
		t.Fatalf("ring grew to %d before it was full", got)
	}
	put(20) // grows twice while wrapped
	get(20)
	all, ok := q.TryGetAll(nil)
	if !ok || len(all) != 7 {
		t.Fatalf("TryGetAll = %d elements, %v; want 7", len(all), ok)
	}
	for _, v := range all {
		if v != want {
			t.Fatalf("TryGetAll element %d, want %d", v, want)
		}
		want++
	}
	if q.Len() != 0 || q.Peak() != 27 {
		t.Fatalf("Len = %d, Peak = %d; want 0, 27", q.Len(), q.Peak())
	}
}

// TestQueueTryGetAllWrapped: TryGetAll returns the queued elements in
// order across the ring's wrap point, after what dst already held.
func TestQueueTryGetAllWrapped(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 8; i++ {
		q.Put(i)
	}
	for i := 0; i < 6; i++ {
		q.Get()
	}
	for i := 8; i < 12; i++ {
		q.Put(i) // 6..11 queued, head at 6 of 8
	}
	all, ok := q.TryGetAll([]int{-1})
	if want := []int{-1, 6, 7, 8, 9, 10, 11}; !ok || !slices.Equal(all, want) {
		t.Fatalf("TryGetAll = %v, %v; want %v", all, ok, want)
	}
}

// TestQueueTryGetAllAfterClose: a closed queue still hands over what was
// queued, then reports false and leaves dst alone.
func TestQueueTryGetAllAfterClose(t *testing.T) {
	q := NewQueue[int]()
	q.Put(1)
	q.Put(2)
	q.Close()
	if q.Put(3) {
		t.Fatal("Put on a closed queue reported true")
	}
	if all, ok := q.TryGetAll(nil); !ok || !slices.Equal(all, []int{1, 2}) {
		t.Fatalf("TryGetAll = %v, %v; want [1 2] true", all, ok)
	}
	dst := []int{9}
	if all, ok := q.TryGetAll(dst); ok || !slices.Equal(all, dst) {
		t.Fatalf("drained TryGetAll = %v, %v; want [9] false", all, ok)
	}
}

// TestQueueTryGetAllEmpty: an open, empty queue is not an error and not
// a wait — dst comes back as given, ok true — before the first Put (no
// ring yet) and after a drain.
func TestQueueTryGetAllEmpty(t *testing.T) {
	q := NewQueue[int]()
	dst := []int{9}
	for round := 0; round < 2; round++ {
		if all, ok := q.TryGetAll(dst); !ok || !slices.Equal(all, dst) {
			t.Fatalf("round %d: TryGetAll on an empty queue = %v, %v; want [9] true", round, all, ok)
		}
		q.Put(7)
		if all, ok := q.TryGetAll(nil); !ok || !slices.Equal(all, []int{7}) {
			t.Fatalf("round %d: TryGetAll = %v, %v; want [7] true", round, all, ok)
		}
	}
}

// TestQueueReleasesSlots: the ring keeps no delivered element
// reachable — a frame handed to its consumer must be the consumer's
// alone — whether it left through Get or TryGetAll.
func TestQueueReleasesSlots(t *testing.T) {
	q := NewQueue[[]byte]()
	for i := 0; i < 13; i++ {
		q.Put([]byte{byte(i)})
	}
	for i := 0; i < 5; i++ {
		q.Get()
	}
	for i := 0; i < 6; i++ {
		q.Put([]byte{byte(i)}) // wraps
	}
	q.TryGetAll(nil)
	for i, slot := range q.buf {
		if slot != nil {
			t.Fatalf("slot %d still holds a delivered frame", i)
		}
	}
}

// TestQueueSteadyStateAllocatesNothing: once the ring has its size, a
// Put→Get cycle and a Put→TryGetAll cycle allocate nothing.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	q := NewQueue[[]byte]()
	frame := []byte{1}
	batch := make([][]byte, 0, 4)
	if n := testing.AllocsPerRun(100, func() {
		q.Put(frame)
		q.Put(frame)
		q.Get()
		q.Get()
		q.Put(frame)
		batch, _ = q.TryGetAll(batch[:0])
	}); n != 0 {
		t.Fatalf("steady-state cycle allocates %v times", n)
	}
}

// TestFramePoolRecyclesBoxes: a GetFrame/PutFrame round trip allocates
// nothing — neither the buffer nor the box the pool keeps it in.
func TestFramePoolRecyclesBoxes(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops Puts at random under the race detector")
			}
		}
	}
	PutFrame(GetFrame())
	if n := testing.AllocsPerRun(100, func() {
		PutFrame(append(GetFrame(), 1, 2, 3))
	}); n != 0 {
		t.Fatalf("frame round trip allocates %v times", n)
	}
}

// BenchmarkQueuePutGet is the inbox hand-off without a wake-up: one Put
// and one Get on a warm ring.
func BenchmarkQueuePutGet(b *testing.B) {
	q := NewQueue[[]byte]()
	frame := []byte{1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Put(frame)
		q.Get()
	}
}
