package live

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memory"
	"repro/internal/proto"
	"repro/internal/wire"
)

// TestMailboxFIFO: a thread's mailbox hands tokens out in the order they
// were put, whatever the interleaving — across the shift to the front
// each take makes, across the reset when it empties, and across growth.
// Between steps pending is the queued count and ready says whether one
// is queued; a vacated slot keeps no token, and peak is the deepest the
// mailbox got.
func TestMailboxFIFO(t *testing.T) {
	for _, tc := range []struct {
		name   string
		script string // p: put the next token, t: take one
		peak   int
	}{
		{"Alternating", "ptptptpt", 1},
		{"BurstThenDrain", "pppppttttt", 5},
		{"RefillAfterReset", "ppttpppttt", 3},
		{"GrowWhilePartlyTaken", "pppptttpppppptttttttppt", 7},
		{"NeverEmpty", "pptptptptptptptptptptt", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m mailbox
			put, want := 0, 0
			for i, op := range tc.script {
				if op == 'p' {
					m.put(proto.Token{Kind: proto.TokRetry, Obj: memory.ObjectID(put)})
					put++
				} else {
					tok := m.take()
					if int(tok.Obj) != want {
						t.Fatalf("step %d: took token %d, want %d", i, tok.Obj, want)
					}
					want++
				}
				queued := put - want
				if got := int(m.pending.Load()); got != queued || len(m.toks) != queued {
					t.Fatalf("step %d: pending %d, buffer holds %d; want %d", i, got, len(m.toks), queued)
				}
				if m.ready() != (queued > 0) {
					t.Fatalf("step %d: ready = %v with %d queued", i, m.ready(), queued)
				}
				for j, tok := range m.toks[len(m.toks):cap(m.toks)] {
					if !reflect.ValueOf(tok).IsZero() {
						t.Fatalf("step %d: slot %d past the queue still holds %+v", i, len(m.toks)+j, tok)
					}
				}
			}
			if m.peak != tc.peak {
				t.Fatalf("peak = %d, want %d", m.peak, tc.peak)
			}
		})
	}
}

// TestMailboxClosedDrainsFirst: Abort closes a mailbox through its atomic.
// A closed mailbox is ready even when empty and takes no more tokens, but
// Recv still takes the tokens queued before the close, in order, and only
// then unwinds with abortPanic. Recv enters holding the node lock and
// returns holding it.
func TestMailboxClosedDrainsFirst(t *testing.T) {
	c := New(DefaultConfig(1))
	th := &Thread{node: c.nodes[0]}
	th.node.mu.Lock()
	th.mbox.put(proto.Token{Kind: proto.TokRetry, Obj: 1})
	th.mbox.put(proto.Token{Kind: proto.TokRetry, Obj: 2})
	th.mbox.closed.Store(true)
	th.mbox.put(proto.Token{Kind: proto.TokRetry, Obj: 3})
	if n := th.mbox.pending.Load(); n != 2 {
		t.Fatalf("a put after the close was queued: %d pending, want 2", n)
	}
	var tok proto.Token
	for _, want := range []memory.ObjectID{1, 2} {
		th.Recv(&tok)
		if tok.Obj != want {
			t.Fatalf("Recv took token %d, want %d", tok.Obj, want)
		}
	}
	if !th.mbox.ready() {
		t.Fatal("an empty closed mailbox is not ready: its resumer would leave the thread parked")
	}
	unwound := func() (panicked any) {
		defer func() { panicked = recover() }()
		th.Recv(&tok)
		return nil
	}()
	if _, ok := unwound.(abortPanic); !ok {
		t.Fatalf("Recv on an empty closed mailbox ended with %v, want abortPanic", unwound)
	}
}

// TestMailboxPeakReachesMetrics: tokens from the node's handoff
// (ToThread, under the node lock the caller holds) and from a retry timer
// (which takes the node lock itself) reach the thread in order, and the
// deepest the mailbox got is the run's LivePeakMailbox.
func TestMailboxPeakReachesMetrics(t *testing.T) {
	c := New(DefaultConfig(1))
	var got []memory.ObjectID
	ws := []proto.Worker{{Node: 0, Name: "t", Fn: func(pt proto.Thread) {
		th := pt.(*Thread)
		var tok proto.Token
		th.Lock()
		for obj := range memory.ObjectID(3) {
			th.node.ToThread(0, wire.Msg{Kind: wire.LockGrant, Obj: obj})
		}
		for range 3 {
			th.Recv(&tok)
			got = append(got, tok.Msg.Obj)
		}
		th.RetryAfter(proto.TokRetry, 3)
		th.Recv(&tok)
		got = append(got, tok.Obj)
		th.Unlock()
	}}}
	m, err := c.Run(ws)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3]" {
		t.Fatalf("thread took %v, want [0 1 2 3]", got)
	}
	if m.LivePeakMailbox != 3 {
		t.Fatalf("LivePeakMailbox = %d, want 3", m.LivePeakMailbox)
	}
}

// lockPingPong runs two threads, on nodes 0 and 1 of a 2-node ChanLoop
// cluster, taking turns at a lock node 0 manages: node 1's thread runs
// measure once warm, node 0's keeps taking the lock until measure
// returns. Every acquire and release of node 1's thread crosses the
// in-process hop, and every grant that wakes one thread is delivered on
// the other thread's goroutine.
func lockPingPong(t *testing.T, warm int, measure func(turn func())) {
	c := New(DefaultConfig(2))
	l := c.AddLock(0)
	var done atomic.Bool
	turn := func(th proto.Thread) func() {
		return func() {
			th.Acquire(l)
			th.Release(l)
		}
	}
	ws := []proto.Worker{
		{Node: 0, Name: "home", Fn: func(th proto.Thread) {
			for do := turn(th); !done.Load(); {
				do()
			}
		}},
		{Node: 1, Name: "remote", Fn: func(th proto.Thread) {
			defer done.Store(true)
			do := turn(th)
			for range warm {
				do()
			}
			measure(do)
		}},
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Run(ws)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		c.Abort(errors.New("deadline"))
		<-errc
		t.Fatal("the ping-pong stalled: a thread stayed parked with a token in its mailbox")
	}
}

// TestLockPingPongAllocatesNothing: once warm, a lock turn across the
// in-process hop — frames through a ChanLoop inbox, tokens through a
// mailbox, both threads waking each other — allocates nothing, under the
// race detector too: the frame free list keeps every frame it takes back.
func TestLockPingPongAllocatesNothing(t *testing.T) {
	var allocs float64
	lockPingPong(t, 2000, func(turn func()) {
		allocs = testing.AllocsPerRun(2000, turn)
	})
	if allocs != 0 {
		t.Fatalf("a warm lock turn allocates %v times", allocs)
	}
}

// TestLockPingPongLosesNoWakeup: 20000 turns of the ping-pong, each
// parking both threads, with every wake-up landing from the other
// thread's goroutine, possibly while the woken thread is still being
// marked parked: the resumer marks it parked before it rechecks the
// mailbox, so one of the two sees the other and no turn is lost.
func TestLockPingPongLosesNoWakeup(t *testing.T) {
	turns := 0
	lockPingPong(t, 0, func(turn func()) {
		for range 20000 {
			turn()
			turns++
		}
	})
	if turns != 20000 {
		t.Fatalf("%d turns, want 20000", turns)
	}
}
