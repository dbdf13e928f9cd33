//dsm:wallclock the conformance harness bounds real-goroutine waits with wall-clock deadlines

// Package transporttest is the conformance suite for live-transport
// backends: any transport.Pusher the DSM engine may run over must pass
// it. It generalizes the checks PR 4 pinned with the in-process
// verifyTransport — FIFO-per-pair delivery, concurrent-send safety,
// close-drain semantics, silent post-Close sends, byte-exact frame
// fidelity for canonical wire frames — into one reusable harness run
// against every backend (under -race in CI), and holds the same contract
// through the sinks, run by the backend's own goroutines (TCP readers,
// fault-injector lines) or, for a transport.Deliverer, by the engine's
// rule: Send, then call the delivery hook from a goroutine that holds
// nothing, a sink included.
package transporttest

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/live/transport"
	"repro/internal/memory"
	"repro/internal/prng"
	"repro/internal/wire"
)

// Mesh is one backend instance under test, viewed per node: Node(i)
// returns the transport node i sends and receives through. In-process
// backends return the same object for every i; multi-process backends
// (exercised in-process over loopback sockets) return one transport per
// node. Close tears the whole mesh down; it must be safe to call after
// individual transports failed.
type Mesh interface {
	Node(i int) transport.Pusher
	Close()
}

// Factory builds a fresh n-node mesh for one subtest.
type Factory func(t *testing.T, n int) Mesh

// Run executes the conformance suite against the backend f builds.
func Run(t *testing.T, f Factory) {
	t.Run("FIFOPerPair", func(t *testing.T) { fifoPerPair(t, f) })
	t.Run("ConcurrentSenders", func(t *testing.T) { concurrentSenders(t, f) })
	t.Run("DeliveryAndCloseDrain", func(t *testing.T) { deliveryAndCloseDrain(t, f) })
	t.Run("CloseWakesBlockedReceiver", func(t *testing.T) { closeWakes(t, f) })
	t.Run("SendAfterCloseDrops", func(t *testing.T) { sendAfterClose(t, f) })
	t.Run("CloseDuringConcurrentSend", func(t *testing.T) { closeDuringSend(t, f) })
	t.Run("CanonicalWireFrames", func(t *testing.T) { canonicalWireFrames(t, f) })
	t.Run("BurstMixedSizes", func(t *testing.T) { burstMixedSizes(t, f) })
	t.Run("PushAcrossInstall", func(t *testing.T) { pushAcrossInstall(t, f) })
	t.Run("PushEchoStrandsNothing", func(t *testing.T) { pushEchoStrandsNothing(t, f) })
	t.Run("PushCloseDuringRelay", func(t *testing.T) { pushCloseDuringRelay(t, f) })
	t.Run("PushNestedDelivery", func(t *testing.T) { pushNestedDelivery(t, f) })
}

// FaultMesh is a mesh whose backend detects peer death: Kill makes
// node die abruptly (as if its process crashed), Fatals reports how
// many times node's transport raised its fatal handler. Backends with
// failure detection (tcp, the faulty wrapper) run RunFaults on top of
// Run.
type FaultMesh interface {
	Mesh
	Kill(node int)
	Fatals(node int) int
}

// FaultFactory builds a fresh n-node fault-capable mesh.
type FaultFactory func(t *testing.T, n int) FaultMesh

// RunFaults executes the peer-death conformance suite: the fatal
// handler fires exactly once per surviving transport, post-death sends
// drop (or deliver) without panicking, blocked receivers unblock
// within a bound, and teardown completes after a death — a broken
// mesh must never hang.
func RunFaults(t *testing.T, f FaultFactory) {
	t.Run("KillRaisesFatalOnce", func(t *testing.T) { killFatalOnce(t, f) })
	t.Run("DeathUnblocksReceiver", func(t *testing.T) { deathUnblocks(t, f) })
	t.Run("SendsAfterDeathDoNotPanic", func(t *testing.T) { sendsAfterDeath(t, f) })
	t.Run("CloseAfterDeathCompletes", func(t *testing.T) { closeAfterDeath(t, f) })
}

// killFatalOnce: killing one node raises every survivor's fatal
// handler exactly once — never zero (silent hang), never twice.
func killFatalOnce(t *testing.T, f FaultFactory) {
	const n = 4
	m := f(t, n)
	defer m.Close()
	m.Kill(n - 1)
	for s := 0; s < n-1; s++ {
		s := s
		waitFor(t, func() bool { return m.Fatals(s) >= 1 })
	}
	// Post-death traffic must not re-raise the handler.
	for s := 0; s < n-1; s++ {
		m.Node(s).Send(memory.NodeID(n-1), mkFrame(s, 0, 0))
	}
	time.Sleep(5 * time.Millisecond)
	for s := 0; s < n-1; s++ {
		if got := m.Fatals(s); got != 1 {
			t.Fatalf("survivor %d: fatal handler fired %d times, want exactly 1", s, got)
		}
	}
}

// deathUnblocks: a receiver parked in Recv when a peer dies must
// unblock within a bound (nothing may hang on a broken cluster).
func deathUnblocks(t *testing.T, f FaultFactory) {
	m := f(t, 3)
	defer m.Close()
	done := make(chan struct{})
	go func() {
		for {
			if _, ok := m.Node(0).Recv(0); !ok {
				close(done)
				return
			}
		}
	}()
	m.Kill(2)
	waitFor(t, func() bool { return m.Fatals(0) >= 1 })
	// The backend surfaced the death; its delivery planes must be (or
	// become) closed so the parked receiver returns.
	m.Node(1).Send(0, mkFrame(1, 0, 0)) // a frame for the parked receiver must not revive it
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("receiver still parked 5s after peer death")
	}
}

// sendsAfterDeath: frames to the dead node, and frames from survivors
// generally, drop or deliver silently — no panic, no block.
func sendsAfterDeath(t *testing.T, f FaultFactory) {
	const n = 3
	m := f(t, n)
	defer m.Close()
	m.Kill(1)
	for s := 0; s < n; s++ {
		if s == 1 {
			continue
		}
		s := s
		waitFor(t, func() bool { return m.Fatals(s) >= 1 })
		for i := 0; i < 50; i++ {
			m.Node(s).Send(1, mkFrame(s, i, 8))                  // to the dead node
			m.Node(s).Send(memory.NodeID(2-s), mkFrame(s, i, 0)) // to the other survivor
		}
	}
}

// closeAfterDeath: mesh teardown after a peer death completes (the
// waitFor-free Close call itself is the assertion — a hang fails the
// test by timeout).
func closeAfterDeath(t *testing.T, f FaultFactory) {
	m := f(t, 3)
	m.Kill(0)
	waitFor(t, func() bool { return m.Fatals(1) >= 1 && m.Fatals(2) >= 1 })
	m.Close()
	if _, ok := m.Node(1).Recv(1); ok {
		t.Fatal("Recv delivered a frame after death and Close")
	}
}

// mkFrame builds a frame carrying (sender, seq) plus padding, so
// ordering and attribution survive any interleaving.
func mkFrame(sender, seq, pad int) []byte {
	f := append(transport.GetFrame(), byte(sender), byte(seq), byte(seq>>8), byte(seq>>16))
	for i := 0; i < pad; i++ {
		f = append(f, byte(seq+i))
	}
	return f
}

func frameSender(f []byte) int { return int(f[0]) }
func frameSeq(f []byte) int    { return int(f[1]) | int(f[2])<<8 | int(f[3])<<16 }

// fifoPerPair: two senders interleave frames to one receiver; each
// sender's frames must arrive in send order (no cross-pair guarantee).
func fifoPerPair(t *testing.T, f Factory) {
	m := f(t, 3)
	defer m.Close()
	const per = 400
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Node(s).Send(2, mkFrame(s, i, i%32))
			}
		}(s)
	}
	next := [2]int{}
	for got := 0; got < 2*per; got++ {
		frame, ok := m.Node(2).Recv(2)
		if !ok {
			t.Fatalf("transport closed after %d of %d frames", got, 2*per)
		}
		s, seq := frameSender(frame), frameSeq(frame)
		if seq != next[s] {
			t.Fatalf("sender %d frame out of order: got seq %d, want %d", s, seq, next[s])
		}
		next[s]++
	}
	wg.Wait()
}

// burstSize is the payload size of a sender's i-th burst frame: mostly
// the sizes the protocol sends (an empty frame, a 36 B lock message, a
// 2 KB row), and now and then a frame larger than a batching backend's
// buffers (the TCP backend reads through 32 KB and packs writes into
// 32 KB). Only sender 0 sends empty frames, so that they stay
// attributable; sender 1 sends the bare 4-byte tag in their place.
func burstSize(sender, i int) int {
	switch {
	case i%250 == 100:
		return 40 << 10
	case i%250 == 200:
		return 72 << 10
	}
	switch i % 3 {
	case 0:
		return 4 * sender
	case 1:
		return 36
	}
	return 2 << 10
}

// burstFrame builds sender's i-th burst frame: the (sender, seq) tag of
// mkFrame and a fill that depends on both, cut to burstSize.
func burstFrame(sender, i int) []byte {
	size := burstSize(sender, i)
	if size == 0 {
		return transport.GetFrame()
	}
	f := mkFrame(sender, i, 0)
	for j := len(f); j < size; j++ {
		f = append(f, byte(j*7+i*13+sender))
	}
	return f
}

// burstMixedSizes: two senders each fire 1000 frames back to back at
// one receiver, sizes mixed across every path a batching backend has
// (packed with others, alone, larger than its buffers). Nothing may be
// lost, each sender's frames must arrive in send order, and every
// payload byte for byte.
func burstMixedSizes(t *testing.T, f Factory) {
	m := f(t, 3)
	defer m.Close()
	const per = 1000
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Node(s).Send(2, burstFrame(s, i))
			}
		}(s)
	}
	next := [2]int{}
	for got := 0; got < 2*per; got++ {
		frame, ok := m.Node(2).Recv(2)
		if !ok {
			t.Fatalf("transport closed after %d of %d frames", got, 2*per)
		}
		s := 0
		if len(frame) > 0 {
			s = frameSender(frame)
		}
		if s > 1 || next[s] >= per {
			t.Fatalf("frame %d: unexpected frame of %d bytes from sender %d", got, len(frame), s)
		}
		if want := burstFrame(s, next[s]); !bytes.Equal(frame, want) {
			t.Fatalf("sender %d frame %d: got %d bytes, want %d, or contents differ", s, next[s], len(frame), len(want))
		}
		next[s]++
	}
	wg.Wait()
}

// deliver calls tr's delivery hook for node to when it has one: the
// engine's rule after a Send. Other backends push, or are pulled, by
// themselves.
func deliver(tr transport.Transport, to memory.NodeID) {
	if d, ok := tr.(transport.Deliverer); ok {
		d.Deliver(to)
	}
}

// push sends frame from node from to node to, then delivers it.
func push(m Mesh, from int, to memory.NodeID, frame []byte) {
	m.Node(from).Send(to, frame)
	deliver(m.Node(from), to)
}

// burstChecker validates interleaved burstFrame streams, one per sender
// tag, as they arrive — from sinks on any goroutine, so under a lock and
// with t.Errorf only.
type burstChecker struct {
	t    *testing.T
	mu   sync.Mutex
	next [2]int
}

// take checks one frame against its stream's next expected one; the
// frame stays the caller's.
func (c *burstChecker) take(frame []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := 0
	if len(frame) > 0 {
		s = frameSender(frame)
	}
	if s > 1 {
		c.t.Errorf("frame of %d bytes from unknown sender %d", len(frame), s)
		return
	}
	if want := burstFrame(s, c.next[s]); !bytes.Equal(frame, want) {
		c.t.Errorf("sender %d frame %d: got %d bytes, want %d, or contents differ", s, c.next[s], len(frame), len(want))
	}
	c.next[s]++
}

func (c *burstChecker) count(s int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.next[s]
}

// pushAcrossInstall: frames that arrived before the sink was installed
// reach it before later frames of the same sender, each exactly once —
// FIFO per pair holds across the switch from pull to push, with the
// sender still sending through it (node 1). They reach it when nothing
// is sent after the install, too (node 2): the install hands them over
// itself, or on a Deliverer the first delivery does.
func pushAcrossInstall(t *testing.T, f Factory) {
	m := f(t, 3)
	defer m.Close()
	const early, total = 200, 2000
	var next [3]atomic.Int64 // per node: the seq its sink takes next
	sink := func(id int) func(frame []byte) error {
		return func(frame []byte) error {
			if seq, want := frameSeq(frame), next[id].Add(1)-1; int64(seq) != want {
				t.Errorf("node %d: sink got seq %d, want %d", id, seq, want)
			}
			transport.PutFrame(frame)
			return nil
		}
	}
	for i := 0; i < early; i++ {
		push(m, 0, 1, mkFrame(0, i, i%40))
		push(m, 0, 2, mkFrame(0, i, i%40))
	}
	waitFor(t, func() bool { return depth(m.Node(1), 1) >= early/2 && depth(m.Node(2), 2) >= early })
	m.Node(2).SetSink(2, sink(2))
	deliver(m.Node(2), 2)
	waitFor(t, func() bool { return next[2].Load() >= early })
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := early; i < total; i++ {
			push(m, 0, 1, mkFrame(0, i, i%40))
		}
	}()
	m.Node(1).SetSink(1, sink(1))
	deliver(m.Node(1), 1) // the frames queued before, should the sender be done already
	<-sent
	waitFor(t, func() bool { return next[1].Load() >= total })
	if n := depth(m.Node(1), 1); n != 0 && n != 1<<30 {
		t.Fatalf("%d frames left in the inbox behind an installed sink", n)
	}
}

// pushEchoStrandsNothing: node 1's sink answers every frame of node 0's
// burst while two more goroutines send bursts from node 1 — one to node
// 0, sharing the link with the answers, one to node 2. A backend that
// spares wake-ups while it pushes must still get every frame out:
// nothing lost, each stream in order, byte for byte, on the link that
// carries two streams too. Node 0 receives through a sink, node 2
// through Recv.
func pushEchoStrandsNothing(t *testing.T, f Factory) {
	m := f(t, 3)
	defer m.Close()
	const per = 1000
	at0 := &burstChecker{t: t}
	m.Node(0).SetSink(0, func(frame []byte) error {
		at0.take(frame)
		transport.PutFrame(frame)
		return nil
	})
	m.Node(1).SetSink(1, func(frame []byte) error {
		m.Node(1).Send(0, frame)
		deliver(m.Node(1), 0)
		return nil
	})
	var wg sync.WaitGroup
	burst := func(from int, to memory.NodeID, tag int) {
		defer wg.Done()
		for i := 0; i < per; i++ {
			push(m, from, to, burstFrame(tag, i))
		}
	}
	wg.Add(3)
	go burst(0, 1, 0) // comes back to node 0 as stream 0
	go burst(1, 0, 1) // stream 1 on the same link as the answers
	go burst(1, 2, 1)
	at2 := &burstChecker{t: t}
	for got := 0; got < per; got++ {
		frame, ok := m.Node(2).Recv(2)
		if !ok {
			t.Fatalf("transport closed after %d of %d frames at node 2", got, per)
		}
		at2.take(frame)
		transport.PutFrame(frame)
	}
	wg.Wait()
	waitFor(t, func() bool { return at0.count(0) >= per && at0.count(1) >= per })
}

// pushCloseDuringRelay: Close while sinks are answering a flood neither
// hangs nor panics, every delivery under way returns, no sink runs once
// both have and Close has returned — whatever goroutines of its own the
// backend ran sinks on (readers, delivery lines, relays) are out of them
// — and no frame buffer — answered, queued or late — feeds the pool
// twice.
func pushCloseDuringRelay(t *testing.T, f Factory) {
	m := f(t, 2)
	var calls, inside atomic.Int64
	echo := func(self int) func(frame []byte) error {
		return func(frame []byte) error {
			calls.Add(1)
			inside.Add(1)
			defer inside.Add(-1)
			push(m, self, memory.NodeID(1-self), frame)
			return nil
		}
	}
	m.Node(0).SetSink(0, echo(0))
	m.Node(1).SetSink(1, echo(1))
	// 64 frames of distinct sizes circulate until Close: each is
	// answered by the node that receives it, on whatever goroutine the
	// backend delivers it, until Close stops them.
	for i := 0; i < 64; i++ {
		m.Node(i%2).Send(memory.NodeID(1-i%2), mkFrame(i%2, i, 600+i))
	}
	var relays sync.WaitGroup
	for i := 0; i < 2; i++ {
		relays.Add(1)
		go func() {
			defer relays.Done()
			deliver(m.Node(i), memory.NodeID(i))
		}()
	}
	waitFor(t, func() bool { return calls.Load() > 2000 })
	m.Close()
	relayed := make(chan struct{})
	go func() {
		relays.Wait()
		close(relayed)
	}()
	select {
	case <-relayed:
	case <-time.After(5 * time.Second):
		t.Fatal("a delivery still running 5s after Close")
	}
	if n := inside.Load(); n != 0 {
		t.Fatalf("%d sink calls still running after Close returned", n)
	}
	after := calls.Load()
	time.Sleep(5 * time.Millisecond)
	if n := calls.Load(); n != after {
		t.Fatalf("%d sink calls after Close returned", n-after)
	}
	// A buffer put twice would come out of the pool twice.
	seen := map[*byte]bool{}
	for i := 0; i < 1024; i++ {
		b := transport.GetFrame()
		if cap(b) == 0 {
			continue
		}
		if p := &b[:1][0]; seen[p] {
			t.Fatal("a frame buffer was returned to the pool twice")
		} else {
			seen[p] = true
		}
	}
}

// pushNestedDelivery: sinks that send to each other and deliver from
// inside the sink — the engine's A → B → A pattern, where handling a
// frame at B sends to A and B's releasing goroutine delivers it. Each
// node has a lock standing in for its node lock: a sender numbers and
// sends a frame under it and delivers after releasing it. Goroutines on
// every node start chains at once; each frame carries how many hops its
// chain has left. Every delivery must return, each pair's frames arrive
// in the order the sender's lock admitted them, and every frame arrive —
// none left in an inbox because it was queued while the goroutine that
// had claimed that inbox was giving the claim up.
func pushNestedDelivery(t *testing.T, f Factory) {
	const nodes, starters, chains, hops = 3, 3, 300, 6
	m := f(t, nodes)
	defer m.Close()
	type node struct {
		mu         sync.Mutex
		next, want [nodes]int // sequence numbers to and from each node
	}
	var ns [nodes]node
	var arrived atomic.Int64
	send := func(from, to, left int) {
		n := &ns[from]
		n.mu.Lock()
		m.Node(from).Send(memory.NodeID(to), mkFrame(from, n.next[to], left))
		n.next[to]++
		n.mu.Unlock()
		deliver(m.Node(from), memory.NodeID(to))
	}
	for self := 0; self < nodes; self++ {
		m.Node(self).SetSink(memory.NodeID(self), func(frame []byte) error {
			from, seq, left := frameSender(frame), frameSeq(frame), len(frame)-4
			transport.PutFrame(frame)
			n := &ns[self]
			n.mu.Lock()
			if seq != n.want[from] {
				t.Errorf("node %d: frame %d from node %d, want %d", self, seq, from, n.want[from])
			}
			n.want[from]++
			n.mu.Unlock()
			arrived.Add(1)
			if left > 0 {
				send(self, (self+1+left%2)%nodes, left-1)
			}
			return nil
		})
	}
	var wg sync.WaitGroup
	for self := 0; self < nodes; self++ {
		for s := 0; s < starters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < chains; i++ {
					send(self, (self+1+i%2)%nodes, hops)
				}
			}()
		}
	}
	const total = nodes * starters * chains * (hops + 1)
	waitFor(t, func() bool { return arrived.Load() >= total })
	wg.Wait()
	if n := arrived.Load(); n != total {
		t.Fatalf("%d frames arrived, want %d", n, total)
	}
	for i := 0; i < nodes; i++ {
		if n := depth(m.Node(i), memory.NodeID(i)); n != 0 && n != 1<<30 {
			t.Fatalf("node %d: %d frames left in the inbox", i, n)
		}
	}
}

// concurrentSenders: every node hammers one receiver concurrently;
// every frame must arrive exactly once (run under -race in CI).
func concurrentSenders(t *testing.T, f Factory) {
	const n, per = 4, 300
	m := f(t, n)
	defer m.Close()
	var wg sync.WaitGroup
	for s := 0; s < n-1; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Node(s).Send(n-1, mkFrame(s, i, 0))
			}
		}(s)
	}
	counts := make([]int, n)
	for got := 0; got < (n-1)*per; got++ {
		frame, ok := m.Node(n - 1).Recv(n - 1)
		if !ok {
			t.Fatalf("transport closed after %d frames", got)
		}
		counts[frameSender(frame)]++
	}
	wg.Wait()
	for s := 0; s < n-1; s++ {
		if counts[s] != per {
			t.Fatalf("sender %d delivered %d frames, want %d", s, counts[s], per)
		}
	}
}

// deliveryAndCloseDrain: frames already delivered into the receiving
// queue survive Close (drain), then Recv reports closed.
func deliveryAndCloseDrain(t *testing.T, f Factory) {
	m := f(t, 2)
	const k = 16
	for i := 0; i < k; i++ {
		m.Node(0).Send(1, mkFrame(0, i, 4))
	}
	// Receive the first half before Close proves delivery; the second
	// half must still drain after it. A networked backend needs a
	// moment for the frames to land in the local inbox, so wait for the
	// first Recv rather than closing immediately.
	for i := 0; i < k/2; i++ {
		frame, ok := m.Node(1).Recv(1)
		if !ok || frameSeq(frame) != i {
			t.Fatalf("frame %d: got %v ok=%v", i, frame, ok)
		}
	}
	// Let the remaining frames reach the inbox before tearing down.
	waitFor(t, func() bool { return depth(m.Node(1), 1) >= k/2 })
	m.Close()
	for i := k / 2; i < k; i++ {
		frame, ok := m.Node(1).Recv(1)
		if !ok || frameSeq(frame) != i {
			t.Fatalf("drain frame %d: got %v ok=%v", i, frame, ok)
		}
	}
	if _, ok := m.Node(1).Recv(1); ok {
		t.Fatal("Recv did not report closed after drain")
	}
}

// depth reports node id's inbox depth when the backend exposes it
// (both builtin backends do); backends without the hook are assumed to
// deliver synchronously.
func depth(tr transport.Transport, id memory.NodeID) int {
	type lener interface {
		InboxLen(id memory.NodeID) int
	}
	if l, ok := tr.(lener); ok {
		return l.InboxLen(id)
	}
	return 1 << 30
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// closeWakes: a parked Recv returns ok=false when the mesh closes.
func closeWakes(t *testing.T, f Factory) {
	m := f(t, 2)
	done := make(chan bool)
	go func() {
		_, ok := m.Node(1).Recv(1)
		done <- ok
	}()
	time.Sleep(time.Millisecond)
	m.Close()
	if ok := <-done; ok {
		t.Fatal("blocked Recv returned a frame after Close")
	}
}

// sendAfterClose: the shutdown race — sending on a closed transport is
// a silent drop, never a panic.
func sendAfterClose(t *testing.T, f Factory) {
	m := f(t, 2)
	m.Close()
	m.Node(0).Send(1, mkFrame(0, 0, 0))
	m.Node(1).Send(0, mkFrame(1, 0, 0)) // the other direction too
	if _, ok := m.Node(1).Recv(1); ok {
		t.Fatal("frame delivered after Close")
	}
}

// closeDuringSend: Close racing a burst of concurrent senders must
// neither panic nor deadlock; frames that lose the race drop silently
// (run under -race in CI — this is the shutdown data-race probe).
func closeDuringSend(t *testing.T, f Factory) {
	const n = 3
	m := f(t, n)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Node(s).Send(memory.NodeID((s+1)%n), mkFrame(s, i, i%16))
			}
		}(s)
	}
	// Prove liveness first, then slam the door mid-burst.
	for i := 0; i < 32; i++ {
		if _, ok := m.Node(1).Recv(1); !ok {
			t.Fatal("transport closed prematurely")
		}
	}
	m.Close()
	close(stop)
	wg.Wait()
	for {
		if _, ok := m.Node(1).Recv(1); !ok {
			return // drained, then reported closed — as specified
		}
	}
}

// canonicalWireFrames: real protocol frames — including large payloads
// and diff runs — cross the backend byte-for-byte and stay canonical
// (decode + re-encode reproduces the received bytes exactly). This is
// the property that makes any conforming backend a drop-in under the
// engine's codec boundary.
func canonicalWireFrames(t *testing.T, f Factory) {
	m := f(t, 2)
	defer m.Close()
	r := prng.New(0xC0FFEE)
	const frames = 64
	var want [][]byte
	for i := 0; i < frames; i++ {
		msg := wire.Msg{
			Kind: wire.Kind(r.Intn(3)), From: 0, To: 1,
			Obj: memory.ObjectID(r.Intn(1 << 16)), Home: memory.NodeID(r.Intn(4)),
			Seq: uint32(i),
		}
		if n := r.Intn(4); n > 0 {
			msg.Data = make([]uint64, r.Intn(2048))
			for j := range msg.Data {
				msg.Data[j] = r.Uint64()
			}
		}
		enc := msg.Encode(transport.GetFrame())
		want = append(want, append([]byte(nil), enc...))
		m.Node(0).Send(1, enc)
	}
	for i := 0; i < frames; i++ {
		frame, ok := m.Node(1).Recv(1)
		if !ok {
			t.Fatalf("closed after %d frames", i)
		}
		if !bytes.Equal(frame, want[i]) {
			t.Fatalf("frame %d corrupted in transit: %d bytes vs %d sent", i, len(frame), len(want[i]))
		}
		var msg wire.Msg
		if err := msg.Decode(frame); err != nil {
			t.Fatalf("frame %d does not decode: %v", i, err)
		}
		if re := msg.Encode(nil); !bytes.Equal(re, frame) {
			t.Fatalf("frame %d is not canonical: re-encode %d bytes vs %d received", i, len(re), len(frame))
		}
	}
}
