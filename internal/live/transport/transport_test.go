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

	// A hand-off allocates nothing: the relay goroutine's body is bound
	// once per inbox. Here a sink that sends into its own inbox while
	// drained forces one every round.
	loop := NewChanLoop(1)
	defer loop.Close()
	relayed := make(chan struct{})
	loop.SetSink(0, func(frame []byte) error {
		if frame[0] == 0 {
			loop.Send(0, append(GetFrame(), 1))
		} else {
			relayed <- struct{}{}
		}
		PutFrame(frame)
		return nil
	})
	if n := testing.AllocsPerRun(100, func() {
		loop.Send(0, append(GetFrame(), 0))
		loop.Deliver(0)
		<-relayed
	}); n != 0 {
		t.Fatalf("a drain that hands off to a relay allocates %v times", n)
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

// TestOwnFramesTierOverTheSharedList: a Frames list draws from the
// process-wide list only when empty, hands back what it kept last, keeps
// at most maxOwnFrames frames and spills the rest to the process-wide
// list, takes no process-wide lock otherwise, and drops a frame past
// maxFreeFrame as PutFrame does.
func TestOwnFramesTierOverTheSharedList(t *testing.T) {
	emptyFreeList()
	var own Frames
	gets0, puts0 := frameListOps()
	shared := func() (gets, puts int64) {
		g, p := frameListOps()
		return g - gets0, p - puts0
	}
	first := own.Get() // empty: drawn from the shared list, a new frame
	if g, p := shared(); g != 1 || p != 0 || cap(first) != newFrame {
		t.Fatalf("Get on an empty list: %d shared gets, %d puts, cap %d; want 1, 0, %d", g, p, cap(first), newFrame)
	}
	order := map[*byte]int{} // frame → its Put's index
	order[&first[:1][0]] = 0
	own.Put(first)
	for i := 1; i < maxOwnFrames+3; i++ {
		frame := make([]byte, 1, newFrame)
		order[&frame[0]] = i
		own.Put(frame)
	}
	if g, p := shared(); g != 1 || p != 3 || freeLen() != 3 {
		t.Fatalf("%d Puts: %d shared gets, %d puts, %d frames on the shared list; want 1, 3, 3", maxOwnFrames+3, g, p, freeLen())
	}
	var held [maxOwnFrames][]byte
	for i := range held {
		frame := own.Get()
		if got, want := order[&frame[:1][0]], maxOwnFrames-1-i; len(frame) != 0 || got != want {
			t.Fatalf("Get %d: len %d, the frame of Put %d; want 0 and Put %d", i, len(frame), got, want)
		}
		held[i] = frame
	}
	if g, _ := shared(); g != 1 {
		t.Fatalf("Gets of kept frames reached the shared list %d times", g-1)
	}
	own.Put(make([]byte, 0, maxFreeFrame+1))
	own.Put(nil)
	if _, p := shared(); p != 3 || own.n != 0 {
		t.Fatalf("a giant and a nil frame: %d shared puts, %d kept; want both dropped", p-3, own.n)
	}
	if n := testing.AllocsPerRun(100, func() {
		own.Put(append(own.Get(), 1, 2, 3))
	}); n != 0 {
		t.Fatalf("own frame round trip allocates %v times", n)
	}
}

// TestFramesDrawnWithRoom: GetFrameFor and Frames.GetFor hand out the
// topmost kept frame with room for the size asked, leaving the frames
// above it in order, and make a frame of that size when none has room; a
// frame that fits at the top is taken as Get takes it. A large frame so
// drawn and put back is found again under a smaller one, and the round
// trip allocates nothing.
func TestFramesDrawnWithRoom(t *testing.T) {
	const big = 4 * newFrame
	id := func(frame []byte) *byte { return &frame[:1][0] }
	emptyFreeList()
	large := make([]byte, 0, big)
	small := [2][]byte{make([]byte, 0, newFrame), make([]byte, 0, newFrame)}
	PutFrame(large)
	PutFrame(small[0])
	PutFrame(small[1])
	fit := GetFrameFor(big)
	if cap(fit) != big || id(fit) != id(large) || freeLen() != 2 {
		t.Errorf("GetFrameFor(%d) under two small frames: cap %d, the large frame %v, %d left; want it and 2 left",
			big, cap(fit), id(fit) == id(large), freeLen())
	}
	top := GetFrameFor(1)
	if id(top) != id(small[1]) {
		t.Error("GetFrameFor(1) did not take the top frame")
	}
	fresh := GetFrameFor(2 * big)
	if cap(fresh) != 2*big || id(fresh) == id(small[0]) || freeLen() != 1 {
		t.Errorf("GetFrameFor(%d) with no frame that fits: cap %d, %d left; want a new frame and 1 left", 2*big, cap(fresh), freeLen())
	}
	PutFrame(fit)
	PutFrame(top)
	PutFrame(fresh)

	emptyFreeList()
	var own Frames
	own.Put(large)
	own.Put(small[0])
	gets0, _ := frameListOps()
	fit = own.GetFor(big)
	if id(fit) != id(large) || own.n != 1 {
		t.Errorf("GetFor(%d) under a small frame: the large frame %v, %d kept; want it and 1 kept", big, id(fit) == id(large), own.n)
	}
	fresh = own.GetFor(big)
	if cap(fresh) != big || own.n != 1 {
		t.Errorf("GetFor(%d) with no own frame that fits: cap %d, %d kept; want a new frame and 1 kept", big, cap(fresh), own.n)
	}
	if gets, _ := frameListOps(); gets-gets0 != 1 {
		t.Errorf("%d shared gets, want 1: only the draw no own frame fits reaches the shared list", gets-gets0)
	}
	sm := own.Get()
	own.Put(fresh)
	own.Put(fit)
	own.Put(sm)
	if n := testing.AllocsPerRun(100, func() { // a large frame under a small one
		frame, sm := own.GetFor(big), own.Get()
		own.Put(frame[:big])
		own.Put(sm)
	}); n != 0 {
		t.Errorf("a large frame's round trip under a small one allocates %v times", n)
	}
}

// TestOwnFramesPoisonedUnderRace: under the race detector a frame Put to
// a Frames list is poisoned whole, as PutFrame's are, whether the list
// keeps it or spills it, so a reader that kept it decodes no kind.
func TestOwnFramesPoisonedUnderRace(t *testing.T) {
	if !poisonFrames {
		t.Skip("frames are poisoned under the race detector only")
	}
	emptyFreeList()
	var own Frames
	for k := range maxOwnFrames + 1 { // the last one spills
		frame := append(make([]byte, 0, 64), 1, 2, 3)
		own.Put(frame)
		for i, b := range frame[:cap(frame)] {
			if b != poison {
				t.Fatalf("Put %d: byte %d is %#x, want %#x", k, i, b, poison)
			}
		}
	}
	if freeLen() != 1 {
		t.Fatalf("the shared list holds %d frames, want the one spilled", freeLen())
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
