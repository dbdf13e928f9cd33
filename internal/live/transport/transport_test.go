package transport

import (
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

// TestQueueKeepsOrder: elements come out in Put order whichever way
// they leave — one at a time through Get, which moves the rest forward,
// or in a batch through TryGetAll, which swaps in the caller's spare —
// across any interleaving of the three, and Peak is the deepest the queue
// got.
func TestQueueKeepsOrder(t *testing.T) {
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
	var spare []int
	getAll := func(n int) {
		t.Helper()
		all, ok := q.TryGetAll(spare)
		if !ok || len(all) != n {
			t.Fatalf("TryGetAll = %v, %v; want %d elements", all, ok, n)
		}
		for _, v := range all {
			if v != want {
				t.Fatalf("TryGetAll = %v; want it to start at %d", all, want)
			}
			want++
		}
		clear(all)
		spare = all
	}
	put(6)
	get(5)
	put(6)
	getAll(7)
	put(20)
	get(3)
	put(4)
	getAll(21)
	put(1)
	get(1)
	put(3)
	getAll(3)
	if q.Len() != 0 || q.Peak() != 21 {
		t.Fatalf("Len = %d, Peak = %d; want 0, 21", q.Len(), q.Peak())
	}
}

// TestQueueTryGetAllSwapsStorage: TryGetAll hands over the queue's own
// slice and keeps the spare's storage, so the elements put next land in
// the spare's array and the next batch comes back in it — whatever the
// spare held is not part of it.
func TestQueueTryGetAllSwapsStorage(t *testing.T) {
	q := NewQueue[int]()
	q.Put(1)
	q.Put(2)
	spare := make([]int, 3, 8)
	all, ok := q.TryGetAll(spare)
	if !ok || !slices.Equal(all, []int{1, 2}) {
		t.Fatalf("TryGetAll = %v, %v; want [1 2] true", all, ok)
	}
	q.Put(3)
	q.Put(4)
	if spare[0] != 3 || spare[1] != 4 {
		t.Fatalf("Puts after the swap did not land in the spare's storage: %v", spare)
	}
	all, ok = q.TryGetAll(all)
	if !ok || !slices.Equal(all, []int{3, 4}) || &all[0] != &spare[0] {
		t.Fatalf("TryGetAll = %v, %v; want [3 4] in the spare's storage", all, ok)
	}
}

// TestQueueTryGetAllAfterClose: a closed queue still hands over what was
// queued, then reports false with nothing.
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
	if all, ok := q.TryGetAll(make([]int, 0, 4)); ok || len(all) != 0 {
		t.Fatalf("drained TryGetAll = %v, %v; want [] false", all, ok)
	}
	if v, ok := q.Get(); ok {
		t.Fatalf("Get on a closed, drained queue = %d, true", v)
	}
}

// TestQueueTryGetAllEmpty: an open, empty queue is not an error and not
// a wait — nothing comes back, ok true — before the first Put and after a
// drain.
func TestQueueTryGetAllEmpty(t *testing.T) {
	q := NewQueue[int]()
	var spare []int
	for round := 0; round < 2; round++ {
		all, ok := q.TryGetAll(spare)
		if !ok || len(all) != 0 {
			t.Fatalf("round %d: TryGetAll on an empty queue = %v, %v; want [] true", round, all, ok)
		}
		q.Put(7)
		if all, ok = q.TryGetAll(all); !ok || !slices.Equal(all, []int{7}) {
			t.Fatalf("round %d: TryGetAll = %v, %v; want [7] true", round, all, ok)
		}
		spare = all[:0]
	}
}

// TestQueueReleasesSlots: the queue keeps no delivered element
// reachable — a frame handed to its consumer must be the consumer's
// alone. Get zeroes the slot its move to the front vacates, and
// TryGetAll leaves the queue holding only the spare it was given.
func TestQueueReleasesSlots(t *testing.T) {
	q := NewQueue[[]byte]()
	for i := 0; i < 13; i++ {
		q.Put([]byte{byte(i)})
	}
	for i := 0; i < 5; i++ {
		q.Get()
	}
	for i := 0; i < 6; i++ {
		q.Put([]byte{byte(i)})
	}
	for i := 0; i < 4; i++ {
		q.Get()
	}
	held := q.items[:cap(q.items)]
	for i, slot := range held[len(q.items):] {
		if slot != nil {
			t.Fatalf("slot %d past the queued %d still holds a delivered frame", len(q.items)+i, len(q.items))
		}
	}
	if batch, _ := q.TryGetAll(nil); len(batch) != 10 || q.items != nil {
		t.Fatalf("TryGetAll(nil) handed over %d frames and left the queue %d slots of its own; want 10 and none",
			len(batch), cap(q.items))
	}
}

// TestQueueSteadyStateAllocatesNothing: once the storage has its size, a
// Put→Get cycle and a Put→TryGetAll cycle that hands the batch back
// allocate nothing.
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
		clear(batch)
	}); n != 0 {
		t.Fatalf("steady-state cycle allocates %v times", n)
	}
}

// emptyFreeList drops every frame the free list holds, so a test starts
// from a known list whatever ran before it.
func emptyFreeList() {
	frames.mu.Lock()
	clear(frames.free)
	frames.free = frames.free[:0]
	frames.mu.Unlock()
}

func freeLen() int {
	frames.mu.Lock()
	defer frames.mu.Unlock()
	return len(frames.free)
}

// TestFreeListReusesTheArray: a GetFrame after a PutFrame hands back the
// same array, emptied — told by its capacity, which no new frame has —
// and the round trip allocates nothing.
func TestFreeListReusesTheArray(t *testing.T) {
	emptyFreeList()
	frame := append(GetFrame(), make([]byte, 3*newFrame)...)
	size := cap(frame)
	PutFrame(frame)
	again := GetFrame()
	n, c := len(again), cap(again)
	PutFrame(again)
	if n != 0 || c != size || size == newFrame {
		t.Fatalf("GetFrame after PutFrame of a %d-byte frame: len %d cap %d", size, n, c)
	}
	if n := testing.AllocsPerRun(100, func() {
		PutFrame(append(GetFrame(), 1, 2, 3))
	}); n != 0 {
		t.Fatalf("frame round trip allocates %v times", n)
	}
}

// TestFreeListBounds: the list keeps at most maxFreeFrames frames, and no
// frame larger than maxFreeFrame; a frame past either bound goes to the
// GC, and GetFrame then makes a new one.
func TestFreeListBounds(t *testing.T) {
	emptyFreeList()
	kept := make(map[*byte]bool)
	for range maxFreeFrames + 8 {
		frame := make([]byte, 1, newFrame)
		kept[&frame[0]] = len(kept) < maxFreeFrames
		PutFrame(frame)
	}
	if n := freeLen(); n != maxFreeFrames {
		t.Fatalf("the list holds %d frames, want the bound %d", n, maxFreeFrames)
	}
	held := make([][]byte, 0, maxFreeFrames+1)
	for range maxFreeFrames + 1 {
		held = append(held, GetFrame())
	}
	for i, frame := range held[:maxFreeFrames] {
		if !kept[&frame[:1][0]] {
			t.Fatalf("GetFrame %d returned a frame the list should not have kept", i)
		}
	}
	if last := held[maxFreeFrames]; kept[&last[:1][0]] || cap(last) != newFrame {
		t.Fatalf("GetFrame on an empty list: cap %d, want a new frame of %d", cap(last), newFrame)
	}

	PutFrame(make([]byte, 0, maxFreeFrame))
	PutFrame(make([]byte, 0, maxFreeFrame+1))
	PutFrame(nil)
	if n := freeLen(); n != 1 {
		t.Fatalf("after a frame at the capacity bound, one past it and a nil one, the list holds %d, want 1", n)
	}
	frame := GetFrame()
	size := cap(frame)
	PutFrame(frame)
	if size != maxFreeFrame {
		t.Fatalf("kept frame has cap %d, want %d", size, maxFreeFrame)
	}
}

// TestFreeListConcurrent: goroutines drawing, filling and returning
// frames at once each get a frame no other holds (run it under -race,
// where PutFrame also poisons what it takes back).
func TestFreeListConcurrent(t *testing.T) {
	emptyFreeList()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				if !drawAndCheck(byte(g), byte(i)) {
					t.Errorf("goroutine %d: a frame it holds was written by another", g)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := freeLen(); n > maxFreeFrames {
		t.Fatalf("the list holds %d frames, past its bound %d", n, maxFreeFrames)
	}
}

// drawAndCheck fills a frame from the free list with a and b, reads them
// back, and returns it.
func drawAndCheck(a, b byte) bool {
	frame := append(GetFrame(), a, b)
	mine := true
	if frame[0] != a || frame[1] != b {
		mine = false
	}
	PutFrame(frame)
	return mine
}

// BenchmarkQueuePutGet is the inbox hand-off without a wake-up: one Put
// and one Get on a warm queue.
func BenchmarkQueuePutGet(b *testing.B) {
	q := NewQueue[[]byte]()
	frame := []byte{1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Put(frame)
		q.Get()
	}
}
