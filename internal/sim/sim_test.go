package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesTime(t *testing.T) {
	e := NewEnv()
	var at Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*Microsecond {
		t.Fatalf("woke at %v, want 5µs", at)
	}
}

func TestNegativeSleepClampsToZero(t *testing.T) {
	e := NewEnv()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-3)
		if p.Now() != 0 {
			t.Errorf("time went backwards: %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrderingByTime(t *testing.T) {
	e := NewEnv()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("order = %v", order)
	}
}

func TestEventFIFOAtEqualTime(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestInterleavedSleepers(t *testing.T) {
	e := NewEnv()
	var trace []string
	mk := func(name string, period Time, n int) {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(period)
				trace = append(trace, fmt.Sprintf("%s@%d", name, p.Now()))
			}
		})
	}
	mk("a", 10, 3)
	mk("b", 15, 2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// At the t=30 tie, b's wakeup was scheduled at t=15, before a's at
	// t=20, so b fires first: ties resolve in schedule order.
	want := "a@10 b@15 a@20 b@30 a@30"
	if got := strings.Join(trace, " "); got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}

func TestQueueSendRecv(t *testing.T) {
	e := NewEnv()
	q := e.NewQueue("q")
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Recv(p).(int))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(Time(i))
			q.Send(i * 10)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[10 20 30]" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueBuffersWhenNoWaiter(t *testing.T) {
	e := NewEnv()
	q := e.NewQueue("q")
	q.Send("x")
	q.Send("y")
	var got []string
	e.Spawn("c", func(p *Proc) {
		got = append(got, q.Recv(p).(string), q.Recv(p).(string))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[x y]" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueTryRecv(t *testing.T) {
	e := NewEnv()
	q := e.NewQueue("q")
	if _, ok := q.TryRecv(); ok {
		t.Fatal("TryRecv on empty queue returned ok")
	}
	q.Send(1)
	v, ok := q.TryRecv()
	if !ok || v.(int) != 1 {
		t.Fatalf("TryRecv = %v, %v", v, ok)
	}
}

func TestQueueSecondReceiverPanics(t *testing.T) {
	// A queue has one receiver: a second proc parking in Recv beside the
	// first ends the run as a PanicError that names both and the queue.
	e := NewEnv()
	q := e.NewQueue("q")
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("c%d", i), func(p *Proc) { q.Recv(p) })
	}
	err := e.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if msg := fmt.Sprint(pe.Value); pe.Proc != "c1" || !strings.Contains(msg, `"q"`) || !strings.Contains(msg, "c0") {
		t.Fatalf("panic in %q: %s; want c1 blamed, naming queue \"q\" and c0", pe.Proc, msg)
	}
}

// TestRunEndsEveryProc: whatever way a run ends, Run leaves no proc's
// coroutine behind — a parked proc is stopped without running on, and one
// spawned but never activated never starts.
func TestRunEndsEveryProc(t *testing.T) {
	cases := []struct {
		name  string
		build func(e *Env)
		check func(error) bool
	}{
		{"clean", func(e *Env) {
			q := e.NewQueue("q")
			e.Spawn("recv", func(p *Proc) { q.Recv(p) })
			e.Spawn("send", func(p *Proc) { p.Sleep(1); q.Send(1) })
		}, func(err error) bool { return err == nil }},
		{"deadlock", func(e *Env) {
			for _, name := range []string{"a", "b"} {
				q := e.NewQueue(name)
				e.Spawn(name, func(p *Proc) { q.Recv(p) })
			}
		}, func(err error) bool {
			var dl *DeadlockError
			return errors.As(err, &dl) && len(dl.Parked) == 2
		}},
		{"panic", func(e *Env) {
			e.Spawn("bystander", func(p *Proc) {
				p.Sleep(10)
				t.Error("the bystander ran on after the run failed")
			})
			e.Spawn("boom", func(p *Proc) {
				p.Sleep(1)
				e.Spawn("late", func(p *Proc) { t.Error("a proc spawned at the failing instant ran") })
				panic("boom")
			})
		}, func(err error) bool {
			var pe *PanicError
			return errors.As(err, &pe) && pe.Proc == "boom"
		}},
	}
	for _, c := range cases {
		before := runtime.NumGoroutine()
		e := NewEnv()
		c.build(e)
		if err := e.Run(); !c.check(err) {
			t.Fatalf("%s: Run = %v", c.name, err)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%s: %d goroutines before the run, %d after", c.name, before, after)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv()
	q := e.NewQueue("never")
	e.Spawn("stuck", func(p *Proc) { q.Recv(p) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Parked) != 1 || !strings.Contains(dl.Parked[0], "stuck") {
		t.Fatalf("parked = %v", dl.Parked)
	}
}

func TestPanicPropagation(t *testing.T) {
	e := NewEnv()
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(1)
		panic("kaboom")
	})
	e.Spawn("bystander", func(p *Proc) { p.Sleep(1000) })
	err := e.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.Proc != "boom" || pe.Value != "kaboom" {
		t.Fatalf("PanicError = %+v", pe)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEnv()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		p.Env().Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childRan = true
			if c.Now() != 15 {
				t.Errorf("child time = %v, want 15", c.Now())
			}
		})
		p.Sleep(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestAtCallbackTime(t *testing.T) {
	e := NewEnv()
	var at Time
	e.At(42*Microsecond, func() { at = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 42*Microsecond {
		t.Fatalf("fired at %v", at)
	}
}

func TestYieldRunsBehindPendingEvents(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Spawn("a", func(p *Proc) {
		e.At(0, func() { order = append(order, "event") })
		p.Sleep(0) // a yield: rescheduled behind the pending event
		order = append(order, "a-after-yield")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "event,a-after-yield" {
		t.Fatalf("order = %v", order)
	}
}

// runPingPong runs a fixed message-passing workload and returns a trace
// fingerprint, used to assert determinism.
func runPingPong(rounds int) (string, Time) {
	e := NewEnv()
	a2b := e.NewQueue("a2b")
	b2a := e.NewQueue("b2a")
	var sb strings.Builder
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Sleep(3)
			a2b.Send(i)
			v := b2a.Recv(p).(int)
			fmt.Fprintf(&sb, "a%d@%d ", v, p.Now())
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			v := a2b.Recv(p).(int)
			p.Sleep(7)
			b2a.Send(v * 2)
		}
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	return sb.String(), e.Now()
}

func TestDeterminism(t *testing.T) {
	s1, t1 := runPingPong(50)
	s2, t2 := runPingPong(50)
	if s1 != s2 || t1 != t2 {
		t.Fatalf("nondeterministic: %q@%v vs %q@%v", s1, t1, s2, t2)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{5, "5ns"},
		{3 * Microsecond, "3.000µs"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if s := (1500 * Millisecond).Seconds(); s != 1.5 {
		t.Fatalf("Seconds = %v", s)
	}
	if us := (2 * Microsecond).Micros(); us != 2 {
		t.Fatalf("Micros = %v", us)
	}
}

// Property: for any set of non-negative delays, a proc sleeping them in
// sequence ends at exactly their sum.
func TestSleepSumProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEnv()
		var sum, end Time
		e.Spawn("p", func(p *Proc) {
			for _, d := range delays {
				p.Sleep(Time(d))
				sum += Time(d)
			}
			end = p.Now()
		})
		if err := e.Run(); err != nil {
			return false
		}
		return end == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: queue preserves FIFO order for a single consumer.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(vals []int32) bool {
		e := NewEnv()
		q := e.NewQueue("q")
		var got []int32
		e.Spawn("c", func(p *Proc) {
			for range vals {
				got = append(got, q.Recv(p).(int32))
			}
		})
		e.Spawn("prod", func(p *Proc) {
			for _, v := range vals {
				p.Sleep(1)
				q.Send(v)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEnvStats(t *testing.T) {
	e := NewEnv()
	e.Spawn("p", func(p *Proc) { p.Sleep(1); p.Sleep(1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Spawned != 1 {
		t.Fatalf("Spawned = %d", st.Spawned)
	}
	if st.Events < 3 {
		t.Fatalf("Events = %d, want >= 3", st.Events)
	}
	if st.Activations < 3 {
		t.Fatalf("Activations = %d, want >= 3", st.Activations)
	}
}

func BenchmarkContextSwitch(b *testing.B) {
	e := NewEnv()
	e.Spawn("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkQueueRoundTrip(b *testing.B) {
	s, _ := runPingPong(b.N)
	_ = s
}

// --- ring-buffer queue semantics ---

func TestQueueRingWraparound(t *testing.T) {
	// Interleave sends and receives so head/tail wrap the ring repeatedly;
	// FIFO order must hold throughout, including across growth.
	e := NewEnv()
	q := e.NewQueue("ring")
	next := 0 // next value expected out
	sent := 0
	e.Spawn("driver", func(p *Proc) {
		for round := 0; round < 50; round++ {
			for i := 0; i < 3+round%5; i++ {
				q.Send(sent)
				sent++
			}
			for i := 0; i < 2+round%4 && q.Len() > 0; i++ {
				v, ok := q.TryRecv()
				if !ok {
					t.Fatal("TryRecv failed with items buffered")
				}
				if v.(int) != next {
					t.Fatalf("got %d, want %d", v, next)
				}
				next++
			}
		}
		for q.Len() > 0 {
			v := q.Recv(p)
			if v.(int) != next {
				t.Fatalf("drain got %d, want %d", v, next)
			}
			next++
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if next != sent {
		t.Fatalf("received %d of %d sent", next, sent)
	}
}

func TestQueueTryRecvDoesNotDisturbWaiters(t *testing.T) {
	// A TryRecv consumer racing a blocked Recv consumer: every item is
	// delivered exactly once, and TryRecv never blocks.
	e := NewEnv()
	q := e.NewQueue("q")
	var got []int
	e.Spawn("blocking", func(p *Proc) {
		got = append(got, q.Recv(p).(int))
	})
	e.Spawn("polling", func(p *Proc) {
		p.Sleep(5)
		if v, ok := q.TryRecv(); ok {
			got = append(got, v.(int))
		}
		p.Sleep(5)
		if v, ok := q.TryRecv(); ok {
			got = append(got, v.(int))
		}
	})
	e.Spawn("prod", func(p *Proc) {
		p.Sleep(1)
		q.Send(1)
		p.Sleep(6)
		q.Send(2)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0]+got[1] != 3 {
		t.Fatalf("got %v, want both items exactly once", got)
	}
}

func TestQueueLenAcrossGrowth(t *testing.T) {
	e := NewEnv()
	q := e.NewQueue("g")
	for i := 0; i < 100; i++ {
		q.Send(i)
		if q.Len() != i+1 {
			t.Fatalf("Len = %d after %d sends", q.Len(), i+1)
		}
	}
	for i := 0; i < 100; i++ {
		v, ok := q.TryRecv()
		if !ok || v.(int) != i {
			t.Fatalf("TryRecv #%d = %v, %v", i, v, ok)
		}
	}
	if _, ok := q.TryRecv(); ok {
		t.Fatal("TryRecv on drained queue returned ok")
	}
}

// DeliverAt is the network fast path: the payload must arrive at the
// right time and the in-flight counter must drop at delivery.
func TestDeliverAt(t *testing.T) {
	e := NewEnv()
	q := e.NewQueue("net")
	inflight := 2
	e.DeliverAt(10, q, "a", &inflight)
	e.DeliverAt(20, q, "b", &inflight)
	var times []Time
	var vals []string
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 2; i++ {
			v := q.Recv(p).(string)
			vals = append(vals, v)
			times = append(times, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(vals) != "[a b]" || times[0] != 10 || times[1] != 20 {
		t.Fatalf("vals=%v times=%v", vals, times)
	}
	if inflight != 0 {
		t.Fatalf("inflight = %d, want 0", inflight)
	}
}

// --- queue consumers ---

// TestConsumerFiresOncePerArming: a Send on an armed queue schedules the
// consumer and disarms it; what arrives before it arms again buffers, in
// order, without scheduling anything.
func TestConsumerFiresOncePerArming(t *testing.T) {
	e := NewEnv()
	q := e.NewQueue("q")
	var fired []Time
	var got []int
	q.Consume(func() string { return "c" }, func() {
		fired = append(fired, e.Now())
		for q.Len() > 0 {
			v, _ := q.TryRecv()
			got = append(got, v.(int))
		}
		// Not re-armed here: the test arms.
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(10) // armed and idle: nothing fires
		q.Send(1)   // schedules the consumer at t=10 and disarms
		q.Send(2)   // buffers behind it
		q.Send(3)
		before := e.Stats().Events
		p.Sleep(5) // the consumer ran once, at t=10, and drained all three
		if n := e.Stats().Events - before; n != 2 {
			t.Errorf("%d events for one arming, want 2 (the consumer, this wake-up)", n)
		}
		q.Send(4) // t=15, disarmed: buffers, no event
		p.Sleep(5)
		if q.Len() != 1 || len(fired) != 1 {
			t.Errorf("a send to a disarmed queue: len %d, consumer fired %v", q.Len(), fired)
		}
		v, _ := q.TryRecv()
		got = append(got, v.(int))
		q.Arm()
		q.Send(5) // t=20: fires again
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fired) != fmt.Sprint([]Time{10, 20}) {
		t.Errorf("consumer fired at %v, want at 10ns and 20ns", fired)
	}
	if fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Errorf("consumed %v, want [1 2 3 4 5]", got)
	}
}

// serverRun drives one receiver — a proc blocked in Recv (reference) or a
// consumer — with two producers whose sends collide with each other, with
// the receiver's service time and with bystander events scheduled at the
// same instants, and logs everything that happens with its virtual time.
// Where the kernel puts the consumer in the (t, seq) order is the whole
// contract: the two logs must be equal line for line.
func serverRun(consumer bool) (log []string, st EnvStats) {
	e := NewEnv()
	q := e.NewQueue("in")
	note := func(format string, a ...any) {
		log = append(log, fmt.Sprintf("%4d ", int64(e.Now()))+fmt.Sprintf(format, a...))
	}
	const service = 4
	if consumer {
		s := serve(q, "server", service, func(v any) { note("served %v", v) })
		s.took = func(v any) { note("took %v", v) }
	} else {
		e.Spawn("server", func(p *Proc) {
			for {
				v := q.Recv(p)
				note("took %v", v)
				p.Sleep(service)
				note("served %v", v)
			}
		})
	}
	producer := func(name string, gaps ...Time) {
		e.Spawn(name, func(p *Proc) {
			for i, gap := range gaps {
				p.Sleep(gap)
				// A bystander queued at this instant ahead of the send must
				// run ahead of the receiver the send wakes.
				tag := fmt.Sprintf("%s%d", name, i)
				e.At(0, func() { note("bystander of %s", tag) })
				q.Send(tag)
				note("sent %s (backlog %d)", tag, q.Len())
				e.At(0, func() { note("late bystander of %s", tag) })
			}
		})
	}
	// Sends that find the server idle (t=1, 23, 43, 61), two at one
	// instant, one landing on the end of a service (t=31, 47), bursts.
	producer("a", 1, 2, 20, 0, 20, 4)
	producer("b", 1, 3, 19, 8, 30)
	err := e.Run()
	if consumer && err != nil {
		log = append(log, "error: "+err.Error())
	}
	var dl *DeadlockError // the reference server is parked in Recv forever
	if !consumer && (!errors.As(err, &dl) || len(dl.Parked) != 1) {
		log = append(log, fmt.Sprintf("error: %v", err))
	}
	return log, e.Stats()
}

func TestConsumerKeepsTheReceiversSlot(t *testing.T) {
	ref, refStats := serverRun(false)
	got, gotStats := serverRun(true)
	if len(ref) != 11*5 {
		t.Fatalf("reference log has %d lines, want %d:\n%s", len(ref), 11*5, strings.Join(ref, "\n"))
	}
	if strings.Join(got, "\n") != strings.Join(ref, "\n") {
		t.Errorf("consumer log differs from the proc receiver's:\n%s\n--- reference:\n%s",
			strings.Join(got, "\n"), strings.Join(ref, "\n"))
	}
	// Same events, minus the reference server's start; that activation,
	// its 4 wake-ups from idle and its 11 ends of service are gone with
	// the coroutine.
	if gotStats.Events != refStats.Events-1 {
		t.Errorf("events: consumer %d, proc receiver %d, want one less (the spawn)", gotStats.Events, refStats.Events)
	}
	if gotStats.Spawned != 2 || gotStats.Activations != refStats.Activations-1-4-11 {
		t.Errorf("consumer run: %+v, proc receiver run: %+v", gotStats, refStats)
	}
}

// TestConsumerPanicKeepsItsName: a panic in either step of a consumer
// fails the run under the label its owner registered, evaluated at the
// time of the panic.
func TestConsumerPanicKeepsItsName(t *testing.T) {
	for _, step := range []string{"begin", "after"} {
		e := NewEnv()
		q := e.NewQueue("q")
		doing := "idle"
		boom := func() { panic("kaboom in " + step) }
		q.Consume(func() string { return "server (" + doing + ")" }, func() {
			doing = "serving"
			if step == "begin" {
				boom()
			}
			q.After(3, boom)
		})
		e.Spawn("bystander", func(p *Proc) { q.Send(1); p.Sleep(1000) })
		err := e.Run()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want PanicError", step, err)
		}
		if pe.Proc != "server (serving)" || pe.Value != "kaboom in "+step {
			t.Errorf("%s: PanicError{Proc: %q, Value: %v}", step, pe.Proc, pe.Value)
		}
	}
}
