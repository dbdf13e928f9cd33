package sim

import (
	"runtime"
	"testing"
)

// Kernel microbenchmarks. The hot path must be allocation-free in steady
// state: ReportAllocs keeps that property visible in every run, and
// TestKernelHotPathsAllocateNothing pins it in tier-1.

// pingPong sets up the full proc-switch cycle: two procs exchanging n
// messages through queues, with a sleep on each side — the
// daemon/thread interaction pattern of the DSM protocol.
func pingPong(n int) *Env {
	e := NewEnv()
	a2b := e.NewQueue("a2b")
	b2a := e.NewQueue("b2a")
	token := struct{}{}
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(3)
			a2b.Send(token)
			b2a.Recv(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < n; i++ {
			a2b.Recv(p)
			p.Sleep(7)
			b2a.Send(token)
		}
	})
	return e
}

// backlog sets up a consumer draining a queue pre-filled with n items.
func backlog(n int) *Env {
	e := NewEnv()
	q := e.NewQueue("drain")
	for i := 0; i < n; i++ {
		q.Send(i)
	}
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < n; i++ {
			q.Recv(p)
		}
	})
	return e
}

// BenchmarkKernelPingPong measures the proc-switch cycle. Steady state
// must be allocation-free.
func BenchmarkKernelPingPong(b *testing.B) {
	b.ReportAllocs()
	e := pingPong(b.N)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueDrain measures receiving a deep backlog. The ring buffer
// makes this O(n); the previous shift-on-receive slice was O(n²).
func BenchmarkQueueDrain(b *testing.B) {
	b.ReportAllocs()
	e := backlog(b.N)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestKernelHotPathsAllocateNothing holds the two kernel hot paths to 0
// allocs/op the way a benchmark reports it (total mallocs of the run
// over n, rounded down: the start-up allocations of a run do not grow
// with n).
func TestKernelHotPathsAllocateNothing(t *testing.T) {
	const n = 20000
	for _, c := range []struct {
		name  string
		setup func(int) *Env
	}{{"ping-pong", pingPong}, {"queue drain", backlog}} {
		e := c.setup(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if per := (after.Mallocs - before.Mallocs) / n; per != 0 {
			t.Errorf("%s: %d allocs/op (%d mallocs over %d ops), want 0",
				c.name, per, after.Mallocs-before.Mallocs, n)
		}
	}
}

// BenchmarkEventSchedule measures raw schedule+fire throughput of the
// 4-ary event heap with a pending population of 1024 events.
func BenchmarkEventSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	var fired int
	fn := func() { fired++ }
	for i := 0; i < 1024; i++ {
		e.At(Time(i)<<20, fn)
	}
	b.ResetTimer()
	e.Spawn("scheduler", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.At(Time(i%1000), fn)
			if len(e.events) > 4096 {
				p.Sleep(1 << 10) // let some fire so the heap stays bounded
			}
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	_ = fired
}
