package faulty_test

import (
	"testing"
	"time"

	"repro/internal/live/transport"
	"repro/internal/live/transport/faulty"
	"repro/internal/live/transport/transporttest"
	"repro/internal/memory"
)

// mesh adapts a faulty-wrapped ChanLoop (one shared in-process
// transport) to the conformance suites. The fatal handler closes the
// transport, standing in for the live engine's abort hook — faulty
// itself only drops frames and raises the fault; ending the run is the
// handler's job.
type mesh struct{ tr *faulty.Transport }

func (m mesh) Node(i int) transport.Pusher { return m.tr }
func (m mesh) Close()                      { m.tr.Close() }
func (m mesh) Kill(node int)               { m.tr.Kill(node) }
func (m mesh) Fatals(node int) int         { return m.tr.Fatals() }

func factory(opt faulty.Options) transporttest.Factory {
	return func(t *testing.T, n int) transporttest.Mesh {
		return mesh{tr: faulty.Wrap(transport.NewChanLoop(n), n, opt)}
	}
}

// TestWrapperConformanceNoFaults: with the zero Options the wrapper is
// a pass-through and must preserve every transport contract.
func TestWrapperConformanceNoFaults(t *testing.T) {
	transporttest.Run(t, factory(faulty.Options{}))
}

// TestWrapperConformanceWithDelays: injected delay/jitter reorders
// nothing it is not allowed to reorder — the full conformance suite
// (FIFO per pair included) holds under delays.
func TestWrapperConformanceWithDelays(t *testing.T) {
	transporttest.Run(t, factory(faulty.Options{
		Seed:     0xD5,
		MinDelay: 50 * time.Microsecond,
		MaxDelay: 2 * time.Millisecond,
	}))
}

// TestWrapperFaults: the peer-death suite over the wrapper, with the
// engine-style fatal handler installed through the FatalSink hook.
func TestWrapperFaults(t *testing.T) {
	transporttest.RunFaults(t, func(t *testing.T, n int) transporttest.FaultMesh {
		tr := faulty.Wrap(transport.NewChanLoop(n), n, faulty.Options{Seed: 7})
		tr.SetFatal(func(error) { tr.Close() })
		return mesh{tr: tr}
	})
}

// TestScheduledKillDeterminism: KillAfter fires on exactly the
// configured frame count, the same frame every run, and Err records an
// error identifying the dead node.
func TestScheduledKillDeterminism(t *testing.T) {
	for run := 0; run < 3; run++ {
		fatal := make(chan error, 1)
		tr := faulty.Wrap(transport.NewChanLoop(2), 2, faulty.Options{
			Seed:      42,
			KillNode:  1,
			KillAfter: 10,
			OnFatal:   func(err error) { fatal <- err },
		})
		for i := 0; i < 9; i++ {
			tr.Send(0, append(transport.GetFrame(), byte(i)))
		}
		select {
		case err := <-fatal:
			t.Fatalf("kill fired before frame 10: %v", err)
		case <-time.After(time.Millisecond):
		}
		for i := 0; i < 9; i++ {
			if _, ok := tr.Recv(0); !ok {
				t.Fatal("pre-kill frame lost")
			}
		}
		tr.Send(0, append(transport.GetFrame(), 99)) // frame 10: the trigger
		select {
		case err := <-fatal:
			if err == nil || tr.Err() == nil {
				t.Fatal("kill raised a nil error")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("KillAfter never fired")
		}
		tr.Close()
	}
}

// TestCutDropsOnlyThePair: after a scheduled cut, frames between the
// severed pair drop while third-party traffic still flows.
func TestCutDropsOnlyThePair(t *testing.T) {
	fatal := make(chan error, 1)
	tr := faulty.Wrap(transport.NewChanLoop(3), 3, faulty.Options{
		CutA: 0, CutB: 1, CutAfter: 1,
		OnFatal: func(err error) { fatal <- err },
	})
	defer tr.Close()
	send := func(from, to int) {
		f := append(transport.GetFrame(), 0, byte(from), byte(from>>8)) // wire-style From field
		tr.Send(memory.NodeID(to), f)
	}
	send(0, 1) // frame 1 triggers the cut and is itself claimed by it
	select {
	case err := <-fatal:
		if err == nil {
			t.Fatal("cut raised a nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cut never raised the fault")
	}
	send(0, 1) // severed: drops
	send(1, 0) // severed: drops
	send(0, 2) // unaffected
	send(2, 1) // unaffected
	if f, ok := tr.Recv(2); !ok || f[1] != 0 {
		t.Fatalf("0->2 frame lost across an unrelated cut: %v ok=%v", f, ok)
	}
	if f, ok := tr.Recv(1); !ok || f[1] != 2 {
		t.Fatalf("2->1 frame lost across an unrelated cut: %v ok=%v", f, ok)
	}
	if n := tr.InboxLen(0); n != 0 {
		t.Fatalf("severed 1->0 frame delivered anyway (inbox depth %d)", n)
	}
	if got := tr.Fatals(); got != 1 {
		t.Fatalf("fatal handler fired %d times, want 1", got)
	}
}

// TestDuplicateDelivery: DupEvery re-delivers the k-th frame
// byte-for-byte; receivers see original then duplicate.
func TestDuplicateDelivery(t *testing.T) {
	tr := faulty.Wrap(transport.NewChanLoop(2), 2, faulty.Options{DupEvery: 3})
	defer tr.Close()
	for i := 0; i < 6; i++ {
		tr.Send(1, append(transport.GetFrame(), byte(i)))
	}
	want := []byte{0, 1, 2, 2, 3, 4, 5, 5}
	for i, w := range want {
		f, ok := tr.Recv(1)
		if !ok || f[0] != w {
			t.Fatalf("delivery %d: got %v ok=%v, want value %d", i, f, ok, w)
		}
	}
}

// TestErrAbsentWithoutFaults: a clean run records no error.
func TestErrAbsentWithoutFaults(t *testing.T) {
	tr := faulty.Wrap(transport.NewChanLoop(1), 1, faulty.Options{})
	tr.Send(0, append(transport.GetFrame(), 1))
	if _, ok := tr.Recv(0); !ok {
		t.Fatal("loopback lost")
	}
	tr.Close()
	if err := tr.Err(); err != nil {
		t.Fatalf("Err = %v on a fault-free run", err)
	}
	if tr.Fatals() != 0 {
		t.Fatal("fatal handler fired without a fault")
	}
}
