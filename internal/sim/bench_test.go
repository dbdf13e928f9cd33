package sim

import (
	"runtime"
	"testing"
)

// Kernel microbenchmarks. The hot path must be allocation-free in steady
// state: ReportAllocs keeps that property visible in every run, and
// TestKernelHotPathsAllocateNothing pins it in tier-1.

// pinger is the sending half of pingPong: n rounds of sleep, send, wait
// for the reply.
func pinger(e *Env, n int, a2b, b2a *Queue) {
	token := struct{}{}
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(3)
			a2b.Send(token)
			b2a.Recv(p)
		}
	})
}

// pingPong sets up the full proc-switch cycle: two procs exchanging n
// messages through queues, with a sleep on each side — the thread/thread
// interaction pattern of the DSM protocol.
func pingPong(n int) *Env {
	e := NewEnv()
	a2b := e.NewQueue("a2b")
	b2a := e.NewQueue("b2a")
	pinger(e, n, a2b, b2a)
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < n; i++ {
			v := a2b.Recv(p)
			p.Sleep(7)
			b2a.Send(v)
		}
	})
	return e
}

// server is the receiving half of pingPong as a queue consumer, the way
// a simulated node daemon is built: take the oldest item, spend service
// on it, act, then take the next or go idle. Both steps are bound once.
type server struct {
	in      *Queue
	service Time
	act     func(v any)
	took    func(v any) // test hook: the first step ran
	cur     any
	done    func()
}

func serve(in *Queue, name string, service Time, act func(v any)) *server {
	s := &server{in: in, service: service, act: act}
	s.done = s.finish
	in.Consume(func() string { return name }, s.begin)
	return s
}

func (s *server) begin() {
	s.cur, _ = s.in.TryRecv()
	if s.took != nil {
		s.took(s.cur)
	}
	s.in.After(s.service, s.done)
}

func (s *server) finish() {
	s.act(s.cur)
	if s.in.Len() > 0 {
		s.begin()
	} else {
		s.in.Arm()
	}
}

// consumerHop is pingPong's traffic with b as a consumer instead of a
// proc: the same sends, sleeps and events, and no coroutine for b.
func consumerHop(n int) *Env {
	e := NewEnv()
	a2b := e.NewQueue("a2b")
	b2a := e.NewQueue("b2a")
	pinger(e, n, a2b, b2a)
	serve(a2b, "b", 7, b2a.Send)
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

// BenchmarkConsumerHop is BenchmarkKernelPingPong with the receiving side
// run as event callbacks: what a message costs once its receiver needs no
// coroutine switch.
func BenchmarkConsumerHop(b *testing.B) {
	b.ReportAllocs()
	e := consumerHop(b.N)
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

// TestKernelHotPathsAllocateNothing holds the kernel hot paths — proc to
// proc, proc to consumer and back, a deep backlog — to 0
// allocs/op the way a benchmark reports it (total mallocs of the run
// over n, rounded down: the start-up allocations of a run do not grow
// with n).
func TestKernelHotPathsAllocateNothing(t *testing.T) {
	const n = 20000
	for _, c := range []struct {
		name  string
		setup func(int) *Env
	}{{"ping-pong", pingPong}, {"consumer hop", consumerHop}, {"queue drain", backlog}} {
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
// 4-ary key heap and its payload slab with a pending population of 1024
// events.
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
			if len(e.heap) > 4096 {
				p.Sleep(1 << 10) // let some fire so the heap stays bounded
			}
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	_ = fired
}
