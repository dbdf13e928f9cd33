package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	dsm "repro"

	"repro/internal/apps"
	"repro/internal/flight"
	"repro/internal/memory"
	"repro/internal/oracle"
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

// runMembers is how every test here stands a cluster up: n goroutines, each
// one dsmnode process's worth — Join, live, Leave. tune adjusts a member's
// Config (ID, Addrs, Listener, a digest and a dial budget are filled in)
// and says whether that member starts at all; a member that fails to join
// reports that and lives nothing. live is the member's life, which outside
// the tests that script the control plane by hand is m.Run. A member still
// running after hangBound fails the test by name, so "nothing hangs" is
// part of every test.
func runMembers(t *testing.T, n int, tune func(cfg *Config) bool, live func(m *Member) (apps.Result, error)) ([]apps.Result, []error) {
	t.Helper()
	lns, addrs := bindAddrs(t, n)
	results := make([]apps.Result, n)
	errs := make([]error, n)
	left := make(chan int, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			ID: memory.NodeID(i), Addrs: addrs, Digest: 0xD15C0,
			Listener: lns[i], DialTimeout: 10 * time.Second,
		}
		if !tune(&cfg) {
			lns[i].Close()
			left <- i
			continue
		}
		go func() {
			defer func() { left <- i }()
			m, err := Join(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			defer m.Leave()
			results[i], errs[i] = live(m)
		}()
	}
	gone := make([]bool, n)
	bound := time.After(hangBound)
	for range n {
		select {
		case i := <-left:
			gone[i] = true
		case <-bound:
			t.Fatalf("after %v not every member has left: %v", hangBound, gone)
		}
	}
	return results, errs
}

// hangBound is far beyond what any test's cluster needs (the longest, an
// abort waiting out its grace timer, takes seconds).
const hangBound = 60 * time.Second

// checked and unchecked are the usual tunes: every member starts, with the
// end-state gate on or off.
func checked(cfg *Config) bool   { cfg.Check = true; return true }
func unchecked(cfg *Config) bool { return true }

// running makes run a member's life: Run over o.
func running(o apps.Options, run func(apps.Options) (apps.Result, error)) func(*Member) (apps.Result, error) {
	return func(m *Member) (apps.Result, error) { return m.Run(o, run) }
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
				base := apps.Options{Config: dsm.Config{Nodes: nodes, Locator: loc}, Check: true}

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

				results, errs := runMembers(t, nodes, checked, running(base, tc.run))
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
				if m := results[0].Metrics; m.LiveMsgs == 0 || m.LiveMsgs != m.TotalMsgs(true) || m.LiveBytes != m.TotalBytes(true) {
					t.Fatalf("merged metrics on node 0: live frames %d (%d bytes), counters %d (%d bytes)",
						m.LiveMsgs, m.LiveBytes, m.TotalMsgs(true), m.TotalBytes(true))
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
		base := apps.Options{Config: dsm.Config{Policy: "JUMP", Locator: "manager"}, Check: true}
		simRes, err := apps.RunScenario(p, base)
		if err != nil {
			t.Fatalf("seed %d sim: %v", seed, err)
		}
		results, errs := runMembers(t, p.Nodes, checked, running(base, func(o apps.Options) (apps.Result, error) {
			return apps.RunScenario(scenario.Generate(seed), o)
		}))
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
// finds on the process that saw it, and Run carries it to every member's
// verdict. A cluster of another size than the seed needs is refused before
// anything runs, naming the size; a checked read that disagrees with the
// model fails the member whose thread made it, node 0 or not.
func TestScenarioFailsOnEveryMember(t *testing.T) {
	run := func(members int, seed uint64, tamper func(*scenario.Program)) (local, verdict []error) {
		local = make([]error, members)
		_, verdict = runMembers(t, members, checked, func(m *Member) (apps.Result, error) {
			return m.Run(apps.Options{Check: true}, func(o apps.Options) (apps.Result, error) {
				p := scenario.Generate(seed)
				tamper(p)
				res, err := apps.RunScenario(p, o)
				local[m.LocalNode()] = err
				return res, err
			})
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

// TestRunTakesTheCheckGateFromItsOptions: a member joined without
// Config.Check that runs with Check holds the assembled end state to the
// invariants. A worker on node 1 writes an object homed on node 0 and
// returns without a release, leaving a dirty cached copy: every member's
// run fails, naming it.
func TestRunTakesTheCheckGateFromItsOptions(t *testing.T) {
	_, errs := runMembers(t, 2, unchecked, func(m *Member) (apps.Result, error) {
		return m.Run(apps.Options{Check: true}, func(o apps.Options) (apps.Result, error) {
			c := dsm.New(o.Config)
			o.OnCluster(c)
			x := c.NewObject("x", 1, 0)
			_, err := c.RunWorkers([]dsm.Worker{{Node: 1, Name: "w", Fn: func(th dsm.Thread) { th.Write(x, 0, 1) }}})
			return apps.Result{App: "dirty"}, err
		})
	})
	for id, err := range errs {
		if !errors.Is(err, ErrVerification) || !strings.Contains(err.Error(), "dirty cached copy") {
			t.Errorf("member %d: %v, want a verification failure naming the dirty cached copy", id, err)
		}
	}
}

// Eight members in one process over real loopback sockets: what a member's
// life being two library calls makes testable without eight processes.

// TestEightMembersRunAScenario: generated programs spread over eight
// members (their threads fill five or six; the rest serve as lock and
// home managers) under the policy and locator that migrate most end with
// the simulator's digest on every member.
func TestEightMembersRunAScenario(t *testing.T) {
	const members = 8
	for _, seed := range []uint64{36, 41} {
		spread := func(o apps.Options) (apps.Result, error) {
			p := scenario.Generate(seed)
			p.Nodes = members
			return apps.RunScenario(p, o)
		}
		base := apps.Options{Config: dsm.Config{Policy: "JUMP", Locator: "manager"}, Check: true}
		simRes, err := spread(base)
		if err != nil {
			t.Fatalf("seed %d sim: %v", seed, err)
		}
		results, errs := runMembers(t, members, checked, running(base, spread))
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed %d member %d: %v", seed, i, err)
			}
			if results[i].Digest != simRes.Digest {
				t.Errorf("seed %d member %d digest %#x != sim digest %#x", seed, i, results[i].Digest, simRes.Digest)
			}
		}
		if results[0].OracleOps == 0 {
			t.Errorf("seed %d: merged oracle validated nothing", seed)
		}
	}
}

// TestEightMembersSurviveADeath: one member's connections are cut mid-run
// (what its process dying looks like to the rest). Every member's Run — the
// seven survivors' and the victim's own — returns a failure classified as
// peer death within deathBound of the cut, none hangs (runMembers), and
// node 0's timeline, which can no longer gather the others' rings, still
// carries its own Abort event.
func TestEightMembersSurviveADeath(t *testing.T) {
	const (
		members, victim = 8, 5
		deathBound      = 10 * time.Second // AbortGrace and then some; in practice milliseconds
	)
	var cut atomic.Int64 // Unix nanoseconds
	var back [members]time.Time
	var timeline []flight.Event
	_, errs := runMembers(t, members, func(cfg *Config) bool {
		cfg.FlightCap = 1024
		cfg.OnFatal = func(error) {} // a daemon would exit here; the failure is Run's to return
		return true
	}, func(m *Member) (apps.Result, error) {
		over := make(chan struct{})
		defer close(over)
		if m.LocalNode() == victim {
			go func() {
				for m.DataFrames() < 300 {
					select {
					case <-over:
						return
					case <-time.After(200 * time.Microsecond):
					}
				}
				cut.Store(time.Now().UnixNano())
				m.tr.Sever(errors.New("chaos: connections cut mid-run"))
			}()
		}
		res, err := m.Run(apps.Options{}, func(o apps.Options) (apps.Result, error) { return apps.RunASP(512, o) })
		back[m.LocalNode()] = time.Now()
		if m.LocalNode() == 0 {
			timeline = m.FlightTimeline()
		}
		return res, err
	})
	if cut.Load() == 0 {
		t.Fatal("the run ended before the cut")
	}
	for i, err := range errs {
		if !errors.Is(err, ErrPeerDeath) {
			t.Errorf("member %d: %v, want a failure classified as peer death", i, err)
		}
		if took := back[i].Sub(time.Unix(0, cut.Load())); took > deathBound {
			t.Errorf("member %d returned %v after the cut, bound %v", i, took, deathBound)
		}
	}
	if !slices.ContainsFunc(timeline, func(e flight.Event) bool { return e.Kind == flight.Abort && e.Node == 0 }) {
		t.Errorf("node 0's timeline (%d events) carries no Abort event of its own", len(timeline))
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
	base := apps.Options{Config: dsm.Config{Nodes: nodes}, Check: true}
	var sim *dsm.Cluster
	simOpts := base
	simOpts.OnCluster = func(c *dsm.Cluster) { sim = c }
	simRes, err := apps.RunSOR(n, iters, simOpts)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}

	var clusters [nodes]*dsm.Cluster
	var toPeers [nodes]int64 // node 0's bytes to each peer, run and finish
	results, errs := runMembers(t, nodes, checked, func(m *Member) (apps.Result, error) {
		res, err := m.Run(base, func(o apps.Options) (apps.Result, error) {
			built := o.OnCluster
			o.OnCluster = func(c *dsm.Cluster) { clusters[m.LocalNode()] = c; built(c) }
			return apps.RunSOR(n, iters, o)
		})
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
	_, errs := runMembers(t, 2, unchecked, func(m *Member) (apps.Result, error) {
		if m.LocalNode() == 0 {
			m.tr.SendCtrl(1, []byte{byte(ctlFail), 0xFF, 0x01})
			return apps.Result{}, nil
		}
		_, err := awaitReply[assignBody](m, ctlReport)
		return apps.Result{}, err
	})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if err := errs[1]; err == nil || !strings.Contains(err.Error(), "node 0") || !strings.Contains(err.Error(), "does not decode") {
		t.Fatalf("truncated fail frame surfaced as %v", err)
	}
}

// idle is the in-flight counter of a process with nothing in flight.
func idle() int64 { return 0 }

// TestDuplicateReportIsAttributed: a member that reports twice while
// another's report is outstanding must not stand in for it. After a
// quiescent poll round node 1 sends its end-of-run report twice, node 2
// none; node 0 — which must not count two messages, overwrite node 1's
// slot and assemble node 2's zero report — fails the run naming node 1,
// and both members are told.
func TestDuplicateReportIsAttributed(t *testing.T) {
	const nodes = 3
	_, errs := runMembers(t, nodes, unchecked, func(m *Member) (apps.Result, error) {
		if m.LocalNode() == 0 {
			sp := proto.NewSpace(&proto.Shared{Nodes: nodes})
			for id := 0; id < nodes; id++ {
				sp.NewNode(memory.NodeID(id))
			}
			return apps.Result{}, m.FinishRun(sp, idle)
		}
		if err := m.quiesce(idle); err != nil {
			return apps.Result{}, err
		}
		if m.LocalNode() == 1 {
			m.tr.SendCtrl(0, encode(ctlReport, proto.NodeReport{}))
			m.tr.SendCtrl(0, encode(ctlReport, proto.NodeReport{}))
		}
		_, err := awaitReply[assignBody](m, ctlReport)
		return apps.Result{}, err
	})
	for id, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "node 1 sent report twice") {
			t.Errorf("member %d: %v, want a failure naming node 1's second report", id, err)
		}
	}
	for id := 1; id < nodes; id++ {
		if errs[id] != nil && !strings.Contains(errs[id].Error(), "cluster failed") {
			t.Errorf("member %d learned of it as %v, not through node 0's fail broadcast", id, errs[id])
		}
	}
}

// roundCase is one kind of round as the test drives it: run is node 0's
// side with a well-formed body of its own, await a member's wait for
// node 0's answer, and body a well-formed member's body on the wire.
type roundCase struct {
	kind       ctlKind
	run, await func(m *Member) error
	body       []byte
}

func roundOf[T, R any](kind ctlKind, body T) roundCase {
	return roundCase{
		kind: kind,
		run: func(m *Member) error {
			_, err := round(m, kind, body, func([]T) (R, error) { var r R; return r, nil })
			return err
		},
		await: func(m *Member) error { _, err := awaitReply[R](m, kind); return err },
		body:  encode(kind, body),
	}
}

// TestRoundAttributesBadBodies: in every kind of round, node 1 sends a
// body of another kind, a second body, or a body that does not decode.
// Every member fails, and every error names node 1 and the kind node 0
// expected. Node 2 sends nothing, so node 1's second body arrives while
// node 2's slot is still empty, and nothing is left unread when node 0
// fails the round.
func TestRoundAttributesBadBodies(t *testing.T) {
	rounds := []roundCase{
		roundOf[struct{}, struct{}](ctlStart, struct{}{}),
		roundOf[pollBody, bool](ctlPoll, pollBody{Inflight: 1, Delivered: 2}),
		roundOf[proto.NodeReport, assignBody](ctlReport, proto.NodeReport{}),
		roundOf[appReportBody, verdictBody](ctlVerdict, appReportBody{Err: "x"}),
		roundOf[struct{}, struct{}](ctlBye, struct{}{}),
	}
	for _, rc := range rounds {
		other := rc.kind%ctlBye + 1
		bad := []struct {
			name  string
			sends [][]byte
			want  string
		}{
			{"wrong-kind", [][]byte{encode(other, struct{}{})}, fmt.Sprintf("unexpected %v from node 1 (want %v)", other, rc.kind)},
			{"second-body", [][]byte{rc.body, rc.body}, fmt.Sprintf("node 1 sent %v twice", rc.kind)},
			{"undecodable", [][]byte{{byte(rc.kind), 0xFF, 0x01}}, fmt.Sprintf("node 1's %v does not decode", rc.kind)},
		}
		for _, bc := range bad {
			t.Run(rc.kind.String()+"/"+bc.name, func(t *testing.T) {
				_, errs := runMembers(t, 3, unchecked, func(m *Member) (apps.Result, error) {
					switch m.LocalNode() {
					case 0:
						return apps.Result{}, rc.run(m)
					case 1:
						for _, payload := range bc.sends {
							m.tr.SendCtrl(0, payload)
						}
					}
					return apps.Result{}, rc.await(m)
				})
				for id, err := range errs {
					if err == nil || !strings.Contains(err.Error(), bc.want) {
						t.Errorf("member %d: %v, want a failure saying %q", id, err, bc.want)
					}
				}
			})
		}
	}
}

// mismatched gives every member a different config digest.
func mismatched(cfg *Config) bool {
	cfg.Digest = uint64(100 + cfg.ID)
	return true
}

// TestConfigMismatchRejected: a member started with different flags
// (different config digest) must be rejected at the handshake, with an
// error that says why.
func TestConfigMismatchRejected(t *testing.T) {
	_, errs := runMembers(t, 2, mismatched, nil)
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

// TestConfigMismatchClassified: the handshake rejection wraps
// ErrConfigMismatch (the exit-code contract for dsmnode).
func TestConfigMismatchClassified(t *testing.T) {
	_, errs := runMembers(t, 2, mismatched, nil)
	for i, err := range errs {
		if !errors.Is(err, ErrConfigMismatch) {
			t.Fatalf("member %d error not classified as config mismatch: %v", i, err)
		}
	}
}

// TestClusterSizeMismatchRejected: disagreeing cluster sizes fail the
// handshake too.
func TestClusterSizeMismatchRejected(t *testing.T) {
	_, errs := runMembers(t, 2, func(cfg *Config) bool {
		if cfg.ID == 1 {
			// Member 1 believes the cluster has three nodes.
			cfg.Addrs = append(slices.Clone(cfg.Addrs), "127.0.0.1:1")
		}
		return true
	}, nil)
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "cluster size") {
		t.Fatalf("node 0 accepted a peer from a different-size cluster, or does not name the size: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("mismatched member joined")
	}
}

// TestAbortPropagates: one member failing its application must fail
// every member, with the verdict naming the failing node.
func TestAbortPropagates(t *testing.T) {
	_, errs := runMembers(t, 3, unchecked, func(m *Member) (apps.Result, error) {
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

// alone makes a one-member cluster: no listener, no peers, no sockets.
func alone(cfg *Config) bool {
	cfg.Listener.Close()
	cfg.Listener, cfg.Addrs, cfg.Check = nil, []string{"unused"}, true
	return true
}

// TestSingleMemberCluster: n=1 degenerates to an in-process run with
// the same API surface (no sockets at all).
func TestSingleMemberCluster(t *testing.T) {
	asp := func(o apps.Options) (apps.Result, error) { return apps.RunASP(12, o) }
	results, errs := runMembers(t, 1, alone, running(apps.Options{Check: true}, asp))
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	want, err := asp(apps.Options{Config: dsm.Config{Nodes: 1}, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Digest != want.Digest {
		t.Fatalf("digest %#x != sim digest %#x", results[0].Digest, want.Digest)
	}
}

// TestSingleMemberQuiescenceWaitsOutInflight: a one-member cluster is
// its own judge, under the same two-wave rule. With frames in flight for
// the first waves, FinishRun polls until two consecutive waves read
// zero — not one wave sooner — and only then installs the end state.
func TestSingleMemberQuiescenceWaitsOutInflight(t *testing.T) {
	const busy = 5
	polls := 0
	_, errs := runMembers(t, 1, alone, func(m *Member) (apps.Result, error) {
		sp := proto.NewSpace(&proto.Shared{Nodes: 1})
		sp.NewNode(0)
		err := m.FinishRun(sp, func() int64 {
			if polls++; polls <= busy {
				return 1
			}
			return 0
		})
		if err == nil && !m.finished {
			err = errors.New("FinishRun returned without installing the end state")
		}
		return apps.Result{}, err
	})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if polls != busy+2 {
		t.Fatalf("quiescence read the counter %d times; in flight for the first %d, it must read it %d", polls, busy, busy+2)
	}
}

// runSkewed runs a 3-member checked ASP cluster whose members' wall clocks
// disagree by skewStep per node — far more than the run lasts, so a raw
// wall-clock merge of the oracle logs, or of the flight rings it records
// into, would interleave entire processes out of causal order — and
// returns node 0's merged cluster timeline.
func runSkewed(t *testing.T, skewStep time.Duration) []flight.Event {
	t.Helper()
	var timeline []flight.Event
	_, errs := runMembers(t, 3, func(cfg *Config) bool {
		skew := int64(cfg.ID) * int64(skewStep)
		cfg.Check, cfg.FlightCap = true, 4096
		cfg.WallClock = func() int64 { return time.Now().UnixNano() + skew }
		return true
	}, func(m *Member) (apps.Result, error) {
		res, err := m.Run(apps.Options{Check: true}, func(o apps.Options) (apps.Result, error) { return apps.RunASP(18, o) })
		if m.LocalNode() == 0 {
			timeline = m.FlightTimeline()
		}
		return res, err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d failed under %v skew with HLC ordering: %v", i, skewStep, err)
		}
	}
	return timeline
}

// TestBootstrapTimeoutClassified: a member whose peer never comes up
// fails within its budget, wraps ErrBootstrapTimeout, and names the
// peer — whether it was to dial the peer (node 1, node 0 absent) or to
// accept it (node 0, node 1 absent).
func TestBootstrapTimeoutClassified(t *testing.T) {
	const budget = 300 * time.Millisecond
	for _, side := range []struct {
		name            string
		starts, missing memory.NodeID
	}{{"dial", 1, 0}, {"accept", 0, 1}} {
		t.Run(side.name, func(t *testing.T) {
			var absent string
			start := time.Now()
			_, errs := runMembers(t, 2, func(cfg *Config) bool {
				absent = cfg.Addrs[side.missing]
				cfg.DialTimeout = budget
				return cfg.ID == side.starts
			}, nil)
			err := errs[side.starts]
			if !errors.Is(err, ErrBootstrapTimeout) {
				t.Fatalf("error not classified as bootstrap timeout: %v", err)
			}
			if !strings.Contains(err.Error(), absent) || !strings.Contains(err.Error(), fmt.Sprintf("node %d", side.missing)) {
				t.Fatalf("error does not name the missing peer, node %d at %s: %v", side.missing, absent, err)
			}
			if elapsed := time.Since(start); elapsed > budget+2*time.Second {
				t.Fatalf("timeout took %v, budget was %v", elapsed, budget)
			}
		})
	}
}

// TestAbortGraceSeversWedgedExchange: a member that aborts while its
// peer never reaches the verdict exchange must still return within the
// grace bound, classified as peer death — the clean-abort liveness
// guarantee.
func TestAbortGraceSeversWedgedExchange(t *testing.T) {
	aborted := make(chan struct{})
	var took time.Duration
	_, errs := runMembers(t, 2, func(cfg *Config) bool {
		cfg.AbortGrace = 500 * time.Millisecond
		cfg.OnFatal = func(error) {} // failure surfaces through the exchange error
		return true
	}, func(m *Member) (apps.Result, error) {
		if m.LocalNode() == 1 {
			<-aborted // never sends its app report while the aborter waits
			return apps.Result{}, nil
		}
		defer close(aborted)
		start := time.Now()
		err := m.AbortApp(errors.New("local wreck"))
		took = time.Since(start)
		return apps.Result{}, err
	})
	if errs[0] == nil {
		t.Fatal("abort against a wedged peer reported success")
	}
	if !errors.Is(errs[0], ErrPeerDeath) {
		t.Fatalf("wedged abort not classified as peer death: %v", errs[0])
	}
	if took > 10*time.Second {
		t.Fatalf("aborting member returned after %v, its grace bound is 500ms", took)
	}
}

// TestMergedOracleFailsTheCluster: node 0 judges the members' oracle
// logs merged, so a read no single log can fault fails every member. Node
// 0's thread writes 7 under lock 0; node 1's thread, taking the lock
// after it (the HLC stamps say so), reads the initial 0 — legal in node
// 1's log alone, stale in the merged one.
func TestMergedOracleFailsTheCluster(t *testing.T) {
	ev := func(wall int64, node memory.NodeID, kind flight.Kind, val uint64) flight.Event {
		return flight.Event{Wall: wall, Node: node, Kind: kind, Thread: int32(node), Val: val}
	}
	ops := [][]flight.Event{
		{ev(1, 0, flight.Acquire, 0), ev(2, 0, flight.Write, 7), ev(3, 0, flight.Release, 0)},
		{ev(4, 1, flight.Acquire, 0), ev(5, 1, flight.Read, 0), ev(6, 1, flight.Release, 0)},
	}
	_, errs := runMembers(t, 2, unchecked, func(m *Member) (apps.Result, error) {
		// The cluster the verdict judges: one word, initially 0, and the
		// two threads whose events the logs hold.
		c := dsm.New(dsm.Config{Nodes: 2, Observers: []dsm.Observer{flight.NewLog(oracle.Kinds, nil)}})
		c.NewObject("x", 1, 0)
		if _, err := c.Run(2, func(dsm.Thread) {}); err != nil {
			return apps.Result{}, err
		}
		var res apps.Result
		return res, m.verdict(c, &res, appReportBody{Ops: ops[m.LocalNode()]}, true)
	})
	for id, err := range errs {
		if !errors.Is(err, ErrVerification) || !strings.Contains(err.Error(), "merged oracle") {
			t.Errorf("member %d: %v, want a verification failure naming the merged oracle", id, err)
		}
	}
}

// TestForgedOracleEventIsAttributed: a member's oracle log arrives
// decoded off the wire, so an access naming an object or word outside the
// layout must become node 0's attributed verdict, never an index into the
// initial values that panics node 0.
func TestForgedOracleEventIsAttributed(t *testing.T) {
	c := dsm.New(dsm.Config{Nodes: 2, Observers: []dsm.Observer{flight.NewLog(oracle.Kinds, nil)}})
	c.NewObject("x", 1, 0)
	if _, err := c.Run(2, func(dsm.Thread) {}); err != nil {
		t.Fatal(err)
	}
	ok := []flight.Event{{Node: 0, Kind: flight.Read, Thread: 0}}
	for _, tc := range []struct {
		forged flight.Event
		want   string
	}{
		{flight.Event{Kind: flight.Read, Obj: 1}, "node 1: read of object 1 word 0 outside the declared layout"},
		{flight.Event{Kind: flight.Read, Word: -1}, "node 1: read of object 0 word -1 outside the declared layout"},
		{flight.Event{Kind: flight.Write, Word: 1, Val: 7}, "node 1: write of object 0 word 1 outside the declared layout"},
	} {
		tc.forged.Node, tc.forged.Thread = 1, 1
		reports := []appReportBody{{Ops: ok}, {Ops: []flight.Event{tc.forged}}}
		if v := new(Member).judge(c, reports, true); v.Err != tc.want {
			t.Errorf("forged %v: verdict %q, want %q", tc.forged.Kind, v.Err, tc.want)
		}
	}
	forged := [][]flight.Event{ok, {{Node: 1, Kind: flight.Read, Thread: 1, Obj: 9}}}
	_, errs := runMembers(t, 2, unchecked, func(m *Member) (apps.Result, error) {
		var res apps.Result
		return res, m.verdict(c, &res, appReportBody{Ops: forged[m.LocalNode()]}, true)
	})
	for id, err := range errs {
		if !errors.Is(err, ErrVerification) || !strings.Contains(err.Error(), "node 1: read of object 9") {
			t.Errorf("member %d: %v, want a verification failure naming node 1's read of object 9", id, err)
		}
	}
}

// TestOracleCorrectUnderClockSkew: with hybrid-logical-clock stamps
// (carried on every frame, folded on receipt) the merged cluster-wide
// LRC check passes under multi-second wall-clock skew.
func TestOracleCorrectUnderClockSkew(t *testing.T) {
	runSkewed(t, 10*time.Second)
}

// TestFlightTimelineHLCOrderedUnderSkew: the merged cluster flight
// timeline on node 0 must be HLC-ordered and attribute events to every
// member even when the members' wall clocks disagree by ±10s/±20s per
// node — the stamps ride the same hybrid logical clock the transport
// frames carry, so a send never sorts after its receive.
func TestFlightTimelineHLCOrderedUnderSkew(t *testing.T) {
	for _, skewStep := range []time.Duration{10 * time.Second, -20 * time.Second} {
		timeline := runSkewed(t, skewStep)
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
