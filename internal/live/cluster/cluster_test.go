package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	dsm "repro"

	"repro/internal/apps"
	"repro/internal/flight"
	"repro/internal/memory"
	"repro/internal/proto"
	"repro/internal/scenario"
)

// bindAddrs reserves n loopback listeners so every member knows every
// peer's concrete address before any Join starts (the test stand-in for
// dsmnode's -peers flag).
func bindAddrs(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

// runMembers bootstraps an n-member cluster in-process (each member a
// goroutine standing in for one dsmnode process) and runs fn on every
// member concurrently, returning the per-member outcomes.
func runMembers(t *testing.T, n int, check bool, fn func(m *Member) (apps.Result, error)) ([]apps.Result, []error) {
	t.Helper()
	lns, addrs := bindAddrs(t, n)
	results := make([]apps.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := Join(Config{
				ID: memory.NodeID(i), Addrs: addrs, Digest: 0xD15C0, Check: check,
				Listener: lns[i], DialTimeout: 10 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer m.Leave()
			results[i], errs[i] = fn(m)
		}(i)
	}
	wg.Wait()
	return results, errs
}

// TestCrossEngineTCPDigest is the acceptance gate in-process: the same
// application configuration must produce the same final-memory digest
// on the simulator, on the live engine over the in-process chanloop
// transport, and on the live engine split across a 4-member TCP cluster
// — the third engine configuration of the cross-engine equivalence bar.
func TestCrossEngineTCPDigest(t *testing.T) {
	const nodes = 4
	cases := []struct {
		name string
		run  func(o apps.Options) (apps.Result, error)
	}{
		{"asp", func(o apps.Options) (apps.Result, error) { return apps.RunASP(24, o) }},
		{"sor", func(o apps.Options) (apps.Result, error) { return apps.RunSOR(20, 3, o) }},
	}
	locators := []string{"fwdptr", "manager"}
	for _, tc := range cases {
		for _, loc := range locators {
			t.Run(tc.name+"/"+loc, func(t *testing.T) {
				base := apps.Options{Config: dsm.Config{Nodes: nodes, Locator: loc}, Check: true, Oracle: true}

				simOpts := base
				simRes, err := tc.run(simOpts)
				if err != nil {
					t.Fatalf("sim: %v", err)
				}

				chanOpts := base
				chanOpts.Engine = "live"
				chanRes, err := tc.run(chanOpts)
				if err != nil {
					t.Fatalf("live/chanloop: %v", err)
				}

				results, errs := runMembers(t, nodes, true, func(m *Member) (apps.Result, error) {
					o := base
					o.Engine = "live"
					o.Multi = m
					return tc.run(o)
				})
				for i, err := range errs {
					if err != nil {
						t.Fatalf("live/tcp member %d: %v", i, err)
					}
				}
				for i, res := range results {
					if res.Digest != simRes.Digest {
						t.Fatalf("member %d digest %#x != sim digest %#x", i, res.Digest, simRes.Digest)
					}
				}
				if chanRes.Digest != simRes.Digest {
					t.Fatalf("live/chanloop digest %#x != sim digest %#x", chanRes.Digest, simRes.Digest)
				}
				// Node 0 carries the merged cluster metrics: the whole
				// cluster's protocol traffic, not one process's share.
				if results[0].Metrics.LiveMsgs == 0 || results[0].Metrics.TotalMsgs(true) == 0 {
					t.Fatal("merged metrics empty on node 0")
				}
				if results[0].OracleOps == 0 {
					t.Fatal("merged oracle validated nothing")
				}
				if results[0].Metrics.LivePeakInbox <= 0 {
					t.Fatal("merged queue-depth metrics missing")
				}
			})
		}
	}
}

// TestScenarioOverTCP: a generated program is an application, so the
// random-program gate reaches the third engine configuration with no code
// of its own — one seed per family, each on a cluster of the size the
// seed fixes, reproduces the simulator's digest on every member with the
// merged oracle clean.
func TestScenarioOverTCP(t *testing.T) {
	for _, seed := range []uint64{1, 5, 8, 13, 14} {
		p := scenario.Generate(seed)
		base := apps.Options{Config: dsm.Config{Policy: "JUMP", Locator: "manager"}, Check: true, Oracle: true}
		simRes, err := apps.RunScenario(p, base)
		if err != nil {
			t.Fatalf("seed %d sim: %v", seed, err)
		}
		results, errs := runMembers(t, p.Nodes, true, func(m *Member) (apps.Result, error) {
			o := base
			o.Nodes, o.Engine, o.Multi = p.Nodes, "live", m
			return apps.RunScenario(scenario.Generate(seed), o)
		})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed %d (%s) member %d: %v", seed, p.Family, i, err)
			}
			if results[i].Digest != simRes.Digest {
				t.Errorf("seed %d (%s) member %d digest %#x != sim digest %#x", seed, p.Family, i, results[i].Digest, simRes.Digest)
			}
		}
		if results[0].OracleOps == 0 {
			t.Errorf("seed %d: merged oracle validated nothing", seed)
		}
	}
}

// TestScenarioFailsOnEveryMember: what a scenario run can find wrong, it
// finds on the process that saw it, and dsmnode's AbortApp path carries it
// to every member's verdict. A cluster of another size than the seed needs
// is refused before anything runs, naming the size; a checked read that
// disagrees with the model fails the member whose thread made it, node 0
// or not.
func TestScenarioFailsOnEveryMember(t *testing.T) {
	run := func(members int, seed uint64, tamper func(*scenario.Program)) (local, verdict []error) {
		local = make([]error, members)
		_, verdict = runMembers(t, members, true, func(m *Member) (apps.Result, error) {
			p := scenario.Generate(seed)
			tamper(p)
			o := apps.Options{Config: dsm.Config{Nodes: members, Engine: "live"}, Check: true, Oracle: true, Multi: m}
			res, err := apps.RunScenario(p, o)
			if err != nil {
				local[m.LocalNode()] = err
				err = m.AbortApp(err) // as cmd/dsmnode does
			}
			return res, err
		})
		return local, verdict
	}

	// Seed 5 is a 4-node program.
	local, verdict := run(3, 5, func(*scenario.Program) {})
	for i := range verdict {
		for _, err := range []error{local[i], verdict[i]} {
			if err == nil || !strings.Contains(err.Error(), "4-node program") {
				t.Errorf("member %d of 3 on a 4-node seed: %v", i, err)
			}
		}
	}

	// Seed 14 is a stencil: every thread's first phase reads the initial
	// memory, here off by one on every member alike.
	local, verdict = run(4, 14, func(p *scenario.Program) {
		for _, obj := range p.Initial() {
			for w := range obj {
				obj[w]++
			}
		}
	})
	for i := range verdict {
		if local[i] == nil || !strings.Contains(local[i].Error(), "a checked read disagrees with the model") {
			t.Errorf("member %d did not fail on its own thread's misread: %v", i, local[i])
		}
		if verdict[i] == nil || !errors.Is(verdict[i], ErrVerification) {
			t.Errorf("member %d verdict: %v", i, verdict[i])
		}
	}
}

// TestMemberOwnsOneNode: a member holds its own node and nothing else.
// After a 4-member SOR run under the -check gate every member knows the
// digest (the simulator's) and every home; the assembled memory is on
// node 0, bit for bit the simulator's — which RunSOR compared with the
// sequential reference, as it did node 0's — and nowhere else: another
// member reads the rows it homes and panics, naming the owner, on the
// rest. Nothing ships the memory back: node 0 sends each peer less than
// one grid's worth of bytes, protocol traffic, assignment and verdict
// together.
func TestMemberOwnsOneNode(t *testing.T) {
	const nodes, n, iters = 4, 128, 3
	base := apps.Options{Config: dsm.Config{Nodes: nodes}, Check: true, Oracle: true}
	var sim *dsm.Cluster
	simOpts := base
	simOpts.OnCluster = func(c *dsm.Cluster) { sim = c }
	simRes, err := apps.RunSOR(n, iters, simOpts)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}

	var clusters [nodes]*dsm.Cluster
	var toPeers [nodes]int64 // node 0's bytes to each peer, run and finish
	results, errs := runMembers(t, nodes, true, func(m *Member) (apps.Result, error) {
		o := base
		o.Engine, o.Multi = "live", m
		o.OnCluster = func(c *dsm.Cluster) { clusters[m.LocalNode()] = c }
		res, err := apps.RunSOR(n, iters, o)
		if m.LocalNode() == 0 {
			for p := 1; p < nodes; p++ {
				ps, _ := m.PeerStats(memory.NodeID(p))
				toPeers[p] = ps.BytesSent
			}
		}
		return res, err
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", id, err)
		}
	}
	// The rows are objects 0..n-1, declared first.
	row := func(i int) dsm.ObjectID { return dsm.ObjectID(i) }
	for id, c := range clusters {
		if results[id].Digest != simRes.Digest || c.Digest() != simRes.Digest {
			t.Errorf("member %d digest %#x / %#x, sim %#x", id, results[id].Digest, c.Digest(), simRes.Digest)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Errorf("member %d: %v", id, err)
		}
		for i := 0; i < n; i++ {
			home := clusters[0].HomeOf(row(i))
			if c.HomeOf(row(i)) != home {
				t.Fatalf("member %d places row %d on node %d, node 0 on node %d", id, i, c.HomeOf(row(i)), home)
			}
			if id == 0 || home == dsm.NodeID(id) {
				if !slices.Equal(c.Data(row(i)), sim.Data(row(i))) {
					t.Fatalf("member %d: row %d differs from the simulator's", id, i)
				}
				continue
			}
			func() {
				defer func() {
					want := fmt.Sprintf("homed on node %d", home)
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
						t.Fatalf("member %d reading row %d: %q, want a panic saying %q", id, i, msg, want)
					}
				}()
				c.Data(row(i))
			}()
		}
	}
	for p := 1; p < nodes; p++ {
		t.Logf("node 0 -> node %d: %d bytes", p, toPeers[p])
		if grid := int64(n * n * 8); toPeers[p] == 0 || toPeers[p] >= grid {
			t.Errorf("node 0 sent node %d %d bytes; the grid is %d", p, toPeers[p], grid)
		}
	}
}

// TestTruncatedFailFrameIsReported: a fail frame whose reason does not
// decode must not surface as a failure with an empty reason.
func TestTruncatedFailFrameIsReported(t *testing.T) {
	_, errs := runMembers(t, 2, false, func(m *Member) (apps.Result, error) {
		if m.LocalNode() == 0 {
			m.tr.SendCtrl(1, []byte{byte(ctlFail), 0xFF, 0x01})
			return apps.Result{}, nil
		}
		_, _, err := m.expect(ctlAssign)
		return apps.Result{}, err
	})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if err := errs[1]; err == nil || !strings.Contains(err.Error(), "node 0") || !strings.Contains(err.Error(), "does not decode") {
		t.Fatalf("truncated fail frame surfaced as %v", err)
	}
}

// TestDuplicateReportIsAttributed: a member that reports twice while
// another's report is outstanding must not stand in for it. Node 1 sends
// its end-of-run report twice, node 2 none; the coordinator — which used
// to count two messages, overwrite node 1's slot and assemble node 2's
// zero report — fails the run naming node 1, and both members are told.
func TestDuplicateReportIsAttributed(t *testing.T) {
	const nodes = 3
	_, errs := runMembers(t, nodes, false, func(m *Member) (apps.Result, error) {
		switch m.LocalNode() {
		case 0:
			sp := proto.NewSpace(&proto.Shared{Nodes: nodes})
			for id := 0; id < nodes; id++ {
				sp.NewNode(memory.NodeID(id))
			}
			return apps.Result{}, m.FinishRun(sp)
		case 1:
			m.send(0, ctlReport, proto.NodeReport{})
			m.send(0, ctlReport, proto.NodeReport{})
		}
		_, _, err := m.expect(ctlAssign)
		return apps.Result{}, err
	})
	for id, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "node 1 reported report twice") {
			t.Errorf("member %d: %v, want a failure naming node 1's second report", id, err)
		}
	}
	for id := 1; id < nodes; id++ {
		if errs[id] != nil && !strings.Contains(errs[id].Error(), "cluster failed") {
			t.Errorf("member %d learned of it as %v, not through the coordinator's fail broadcast", id, errs[id])
		}
	}
}

// TestConfigMismatchRejected: a member started with different flags
// (different config digest) must be rejected at the handshake, with an
// error that says why.
func TestConfigMismatchRejected(t *testing.T) {
	lns, addrs := bindAddrs(t, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := Join(Config{
				ID: memory.NodeID(i), Addrs: addrs, Digest: uint64(100 + i), // mismatched
				Listener: lns[i], DialTimeout: 5 * time.Second,
			})
			if err == nil {
				m.Leave()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("member %d joined despite config mismatch", i)
		}
	}
	combined := errs[0].Error() + " / " + errs[1].Error()
	if !strings.Contains(combined, "config digest") {
		t.Fatalf("mismatch errors do not name the config digest: %s", combined)
	}
}

// TestClusterSizeMismatchRejected: disagreeing cluster sizes fail the
// handshake too.
func TestClusterSizeMismatchRejected(t *testing.T) {
	lns, addrs := bindAddrs(t, 2)
	lns[1].Close()
	done := make(chan error, 1)
	go func() {
		// Member 1 believes the cluster has three nodes.
		m, err := Join(Config{
			ID: 1, Addrs: []string{addrs[0], addrs[1], "127.0.0.1:1"},
			Digest: 7, DialTimeout: 5 * time.Second,
		})
		if err == nil {
			m.Leave()
		}
		done <- err
	}()
	m, err := Join(Config{
		ID: 0, Addrs: addrs, Digest: 7, Listener: lns[0], DialTimeout: 5 * time.Second,
	})
	if err == nil {
		m.Leave()
		t.Fatal("node 0 accepted a peer from a different-size cluster")
	}
	if !strings.Contains(err.Error(), "cluster size") {
		t.Fatalf("error does not name the cluster size: %v", err)
	}
	if err := <-done; err == nil {
		t.Fatal("mismatched member joined")
	}
}

// TestAbortPropagates: one member failing its application must fail
// every member, with the verdict naming the failing node.
func TestAbortPropagates(t *testing.T) {
	_, errs := runMembers(t, 3, false, func(m *Member) (apps.Result, error) {
		if m.LocalNode() == 1 {
			return apps.Result{}, m.AbortApp(errors.New("synthetic wreck"))
		}
		var res apps.Result
		return res, m.FinishApp(nil, &res, false, false)
	})
	for i, err := range errs {
		if err == nil {
			t.Fatalf("member %d did not observe the cluster failure", i)
		}
		if !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), "synthetic wreck") {
			t.Fatalf("member %d verdict does not name the failure: %v", i, err)
		}
	}
}

// TestSingleMemberCluster: n=1 degenerates to an in-process run with
// the same API surface (no sockets at all).
func TestSingleMemberCluster(t *testing.T) {
	m, err := Join(Config{ID: 0, Addrs: []string{"unused"}, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Leave()
	o := apps.Options{Config: dsm.Config{Nodes: 1, Engine: "live"}, Check: true, Oracle: true, Multi: m}
	res, err := apps.RunASP(12, o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := apps.RunASP(12, apps.Options{Config: dsm.Config{Nodes: 1}, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != want.Digest {
		t.Fatalf("digest %#x != sim digest %#x", res.Digest, want.Digest)
	}
}

// runSkewed runs a 3-member ASP cluster whose members' wall clocks
// disagree by 10 seconds per node — far more than the run lasts, so a
// raw wall-clock merge of the oracle logs would interleave entire
// processes out of causal order.
func runSkewed(t *testing.T) []error {
	t.Helper()
	const n = 3
	lns, addrs := bindAddrs(t, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			skew := int64(i) * 10 * int64(time.Second)
			m, err := Join(Config{
				ID: memory.NodeID(i), Addrs: addrs, Digest: 0x5EED, Check: true,
				Listener: lns[i], DialTimeout: 10 * time.Second,
				WallClock: func() int64 { return time.Now().UnixNano() + skew },
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer m.Leave()
			o := apps.Options{Config: dsm.Config{Nodes: n, Engine: "live"}, Check: true, Oracle: true, Multi: m}
			_, errs[i] = apps.RunASP(18, o)
		}(i)
	}
	wg.Wait()
	return errs
}

// TestOracleCorrectUnderClockSkew: with hybrid-logical-clock stamps
// (carried on every frame, folded on receipt) the merged cluster-wide
// LRC check passes under multi-second wall-clock skew.
func TestOracleCorrectUnderClockSkew(t *testing.T) {
	for i, err := range runSkewed(t) {
		if err != nil {
			t.Fatalf("member %d failed under skew with HLC ordering: %v", i, err)
		}
	}
}

// TestBootstrapTimeoutClassified: a member whose peer never comes up
// fails within its budget, wraps ErrBootstrapTimeout, and names the
// unreachable peer's address.
func TestBootstrapTimeoutClassified(t *testing.T) {
	lns, addrs := bindAddrs(t, 2)
	lns[0].Close() // node 0, the peer node 1 must dial, never starts
	start := time.Now()
	m, err := Join(Config{
		ID: 1, Addrs: addrs, Digest: 1, Listener: lns[1],
		DialTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		m.Leave()
		t.Fatal("joined a cluster with an absent peer")
	}
	if !errors.Is(err, ErrBootstrapTimeout) {
		t.Fatalf("error not classified as bootstrap timeout: %v", err)
	}
	if !strings.Contains(err.Error(), addrs[0]) && !strings.Contains(err.Error(), "node 0") {
		t.Fatalf("error does not name the unreachable peer: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, budget was 300ms", elapsed)
	}
}

// TestConfigMismatchClassified: the handshake rejection wraps
// ErrConfigMismatch (the exit-code contract for dsmnode).
func TestConfigMismatchClassified(t *testing.T) {
	lns, addrs := bindAddrs(t, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := Join(Config{
				ID: memory.NodeID(i), Addrs: addrs, Digest: uint64(i), // disagree
				Listener: lns[i], DialTimeout: 5 * time.Second,
			})
			if err == nil {
				m.Leave()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrConfigMismatch) {
			t.Fatalf("member %d error not classified as config mismatch: %v", i, err)
		}
	}
}

// TestAbortGraceSeversWedgedExchange: a member that aborts while its
// peer never reaches the verdict exchange must still return within the
// grace bound, classified as peer death — the clean-abort liveness
// guarantee.
func TestAbortGraceSeversWedgedExchange(t *testing.T) {
	lns, addrs := bindAddrs(t, 2)
	fatal := func(error) {} // failure surfaces through the exchange error
	wedged := make(chan struct{})
	done := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		m, err := Join(Config{
			ID: 0, Addrs: addrs, Digest: 9, Listener: lns[0],
			DialTimeout: 10 * time.Second, AbortGrace: 500 * time.Millisecond,
			OnFatal: fatal,
		})
		if err != nil {
			done <- err
			return
		}
		defer m.Leave()
		done <- m.AbortApp(errors.New("local wreck"))
	}()
	go func() {
		defer wg.Done()
		m, err := Join(Config{
			ID: 1, Addrs: addrs, Digest: 9, Listener: lns[1],
			DialTimeout: 10 * time.Second, OnFatal: fatal,
		})
		if err != nil {
			return
		}
		defer m.Leave()
		<-wedged // never sends its app report while the aborter waits
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("abort against a wedged peer reported success")
		}
		if !errors.Is(err, ErrPeerDeath) {
			t.Fatalf("wedged abort not classified as peer death: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("aborting member hung past its grace bound")
	}
	close(wedged)
	wg.Wait()
}

// runSkewedFlight runs a 3-member ASP cluster with per-member wall
// skew of skewStep per node and flight recording on, and returns node
// 0's merged cluster timeline.
func runSkewedFlight(t *testing.T, skewStep time.Duration) []flight.Event {
	t.Helper()
	const n = 3
	lns, addrs := bindAddrs(t, n)
	errs := make([]error, n)
	var timeline []flight.Event
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			skew := int64(i) * int64(skewStep)
			m, err := Join(Config{
				ID: memory.NodeID(i), Addrs: addrs, Digest: 0xF11647, Check: true,
				Listener: lns[i], DialTimeout: 10 * time.Second,
				WallClock: func() int64 { return time.Now().UnixNano() + skew },
				FlightCap: 4096,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer m.Leave()
			o := apps.Options{Config: dsm.Config{Nodes: n, Engine: "live"}, Check: true, Multi: m}
			_, errs[i] = apps.RunASP(18, o)
			if errs[i] == nil && m.LocalNode() == 0 {
				timeline = m.FlightTimeline()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d failed under %v skew: %v", i, skewStep, err)
		}
	}
	return timeline
}

// TestFlightTimelineHLCOrderedUnderSkew: the merged cluster flight
// timeline on node 0 must be HLC-ordered and attribute events to every
// member even when the members' wall clocks disagree by ±10s/±20s per
// node — the stamps ride the same hybrid logical clock the transport
// frames carry, so a send never sorts after its receive.
func TestFlightTimelineHLCOrderedUnderSkew(t *testing.T) {
	for _, skewStep := range []time.Duration{10 * time.Second, -20 * time.Second} {
		timeline := runSkewedFlight(t, skewStep)
		if len(timeline) == 0 {
			t.Fatalf("skew %v: node 0 gathered no cluster timeline", skewStep)
		}
		var nodes [3]bool
		var sends, recvs int
		for i, e := range timeline {
			if int(e.Node) >= 0 && int(e.Node) < 3 {
				nodes[e.Node] = true
			}
			switch e.Kind {
			case flight.FrameSend:
				sends++
			case flight.FrameRecv:
				recvs++
			}
			if i > 0 && e.Stamp().Less(timeline[i-1].Stamp()) {
				t.Fatalf("skew %v: timeline out of HLC order at %d: %+v then %+v",
					skewStep, i, timeline[i-1], e)
			}
		}
		for id, seen := range nodes {
			if !seen {
				t.Errorf("skew %v: no events attributed to node %d", skewStep, id)
			}
		}
		if sends == 0 || recvs == 0 {
			t.Errorf("skew %v: timeline has %d sends / %d recvs", skewStep, sends, recvs)
		}
	}
}
