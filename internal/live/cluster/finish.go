//dsm:wallclock the finish barrier arms real-time watchdogs against hung peers

package cluster

import (
	"fmt"
	"sort"
	"time"

	dsm "repro"

	"repro/internal/apps"
	"repro/internal/flight"
	"repro/internal/hlc"
	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/oracle"
	"repro/internal/proto"
	"repro/internal/stats"
)

// nodeReport is one member's authoritative end-of-run state: the home
// copies it owns, its locator tables, its manager-table slice, and the
// verdict of the node-local invariant checks. Everything a process
// cannot check alone goes to node 0, which runs the distributed
// analogues of proto.Space.CheckInvariants over the gathered reports.
type nodeReport struct {
	Err      string
	HomeObjs []uint32
	HomeData [][]uint64
	Hints    []int16
	Fwds     []int16
	MgrHomes []int16
}

// assignBody is the coordinator's answer: the assembled authoritative
// final memory (home and data per object) and its canonical digest.
type assignBody struct {
	Homes  []int16
	Data   [][]uint64
	Digest uint64
}

// buildReport snapshots this process's node state after global
// quiescence. The local invariant checks mirror the node-local clauses
// of proto.Space.CheckInvariants; the cross-node clauses need every
// report and run on node 0.
func buildReport(sp *proto.Space, id memory.NodeID) nodeReport {
	n := sp.Nodes[id]
	objs := sp.NumObjects()
	rep := nodeReport{
		Hints:    make([]int16, objs),
		Fwds:     make([]int16, objs),
		MgrHomes: make([]int16, objs),
	}
	fail := func(format string, args ...any) {
		if rep.Err == "" {
			rep.Err = fmt.Sprintf(format, args...)
		}
	}
	for obj := 0; obj < objs; obj++ {
		oid := memory.ObjectID(obj)
		rep.Hints[obj] = int16(n.Loc.Hint(oid))
		rep.Fwds[obj] = int16(n.Loc.Forward(oid))
		rep.MgrHomes[obj] = int16(n.MgrHome[oid])
		if o := n.Cache[oid]; o != nil {
			if o.Dirty {
				fail("object %d on node %d: dirty cached copy after quiesce", obj, id)
			}
			if o.Twin != nil {
				fail("object %d on node %d: twin retained on clean copy", obj, id)
			}
		}
		if n.IsHome[oid] {
			if n.HomeSt[oid] == nil {
				fail("object %d home on node %d lacks migration state", obj, id)
			}
			if n.Cache[oid] == nil {
				fail("object %d home on node %d lacks data", obj, id)
				continue
			}
			for sharer, ok := range n.Copyset[oid] {
				if ok && (sharer == id || sharer < 0 || int(sharer) >= sp.S.Nodes) {
					fail("object %d: copyset of home %d names node %d", obj, id, sharer)
				}
			}
			rep.HomeObjs = append(rep.HomeObjs, uint32(obj))
			rep.HomeData = append(rep.HomeData, n.Cache[oid].Data)
		} else {
			if n.HomeSt[oid] != nil {
				fail("object %d: migration state on non-home node %d", obj, id)
			}
			if len(n.Copyset[oid]) > 0 {
				fail("object %d: copyset on non-home node %d", obj, id)
			}
		}
	}
	return rep
}

// FinishRun implements live.Finisher: the end-of-run state
// reconciliation, called by the engine between global quiescence and
// transport close. Members ship their report to node 0; node 0 checks,
// assembles the authoritative final memory, and broadcasts it; every
// process then repairs its local replicas so post-run inspection
// (ObjectData, Digest, the applications' sequential-reference
// validation) sees the cluster-wide truth.
func (m *Member) FinishRun(sp *proto.Space) error {
	rep := buildReport(sp, m.cfg.ID)
	if m.n > 1 && m.cfg.ID != 0 {
		m.send(0, ctlReport, rep)
		_, body, err := m.expect(ctlAssign)
		if err != nil {
			return err
		}
		var a assignBody
		if err := decodeBody(body, &a); err != nil {
			return fmt.Errorf("cluster: decoding assignment: %w", err)
		}
		repair(sp, a)
		if got := sp.Digest(); got != a.Digest {
			return fmt.Errorf("cluster: node %d digest %#x != coordinator's %#x after repair", m.cfg.ID, got, a.Digest)
		}
		m.digest = a.Digest
		m.finished = true
		return nil
	}

	// Coordinator (and the trivial single-member cluster).
	reports := make([]nodeReport, m.n)
	reports[m.cfg.ID] = rep
	for have := 0; have < m.n-1; have++ {
		from, body, err := m.expectFromAny(ctlReport)
		if err != nil {
			return m.failClusterErr(err)
		}
		if err := decodeBody(body, &reports[from]); err != nil {
			return m.failCluster(fmt.Sprintf("decoding node %d report: %v", from, err))
		}
	}
	a, err := m.assemble(sp, reports)
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrVerification, err)
		if m.n > 1 {
			return m.failClusterErr(err)
		}
		return err
	}
	repair(sp, a)
	a.Digest = sp.Digest()
	if m.n > 1 {
		m.broadcast(ctlAssign, a)
	}
	m.digest = a.Digest
	m.finished = true
	return nil
}

// assemble runs the distributed invariant checks over the gathered
// reports and builds the authoritative final-memory assignment.
func (m *Member) assemble(sp *proto.Space, reports []nodeReport) (assignBody, error) {
	s := sp.S
	objs := sp.NumObjects()
	a := assignBody{Homes: make([]int16, objs), Data: make([][]uint64, objs)}
	for i := range a.Homes {
		a.Homes[i] = -1
	}
	for id, rep := range reports {
		if m.cfg.Check && rep.Err != "" {
			return a, fmt.Errorf("node %d invariants: %s", id, rep.Err)
		}
		// A peer that passed the handshake still sent this report over
		// the wire: validate shapes before indexing, so a corrupt or
		// version-skewed report fails the cluster with a reason instead
		// of panicking the coordinator.
		if len(rep.Hints) != objs || len(rep.Fwds) != objs || len(rep.MgrHomes) != objs ||
			len(rep.HomeData) != len(rep.HomeObjs) {
			return a, fmt.Errorf("node %d report malformed (%d/%d/%d tables for %d objects)",
				id, len(rep.Hints), len(rep.Fwds), len(rep.MgrHomes), objs)
		}
		for k, obj := range rep.HomeObjs {
			if int(obj) >= objs {
				return a, fmt.Errorf("node %d claims unknown object %d", id, obj)
			}
			if a.Homes[obj] != -1 {
				return a, fmt.Errorf("object %d has two homes: node %d and node %d", obj, a.Homes[obj], id)
			}
			if got, want := len(rep.HomeData[k]), s.ObjWords[obj]; got != want {
				return a, fmt.Errorf("object %d home copy on node %d has %d words, want %d", obj, id, got, want)
			}
			a.Homes[obj] = int16(id)
			a.Data[obj] = rep.HomeData[k]
		}
	}
	for obj := 0; obj < objs; obj++ {
		if a.Homes[obj] == -1 {
			return a, fmt.Errorf("object %d has no home", obj)
		}
	}
	if !m.cfg.Check {
		return a, nil
	}
	// Cross-node clauses of the invariant check, over gathered tables.
	for obj := 0; obj < objs; obj++ {
		home := memory.NodeID(a.Homes[obj])
		if s.Locator == locator.Manager {
			mgr := locator.ManagerOf(memory.ObjectID(obj), s.Nodes)
			if got := memory.NodeID(reports[mgr].MgrHomes[obj]); got != home {
				return a, fmt.Errorf("object %d: manager %d believes home %d, actual %d", obj, mgr, got, home)
			}
		}
		// Every node's hint chain must terminate at the home without
		// cycles (dead ends are fatal only under forwarding pointers,
		// which have no miss recovery).
		for id := range reports {
			cur := memory.NodeID(reports[id].Hints[obj])
			if cur == memory.NoNode {
				cur = s.ObjHome0[obj]
			}
			for hops := 0; cur != home; hops++ {
				if hops > s.Nodes {
					return a, fmt.Errorf("object %d: forwarding cycle from node %d", obj, id)
				}
				if cur < 0 || int(cur) >= s.Nodes {
					return a, fmt.Errorf("object %d: node %d's chain points outside the cluster (node %d)", obj, id, cur)
				}
				next := memory.NodeID(reports[cur].Fwds[obj])
				if next == memory.NoNode {
					if s.Locator == locator.ForwardingPointer {
						return a, fmt.Errorf("object %d: forwarding chain from node %d dead-ends at node %d (home %d)",
							obj, id, cur, home)
					}
					break
				}
				cur = next
			}
		}
	}
	return a, nil
}

// repair rewrites the local space's replicas to the authoritative
// assignment: exactly the true home node holds IsHome with the
// gathered data, so ObjectData/Digest/HomeOf and the applications'
// result validation work identically in every process. It runs after
// the engine quiesced — the state is inspection-only from here. (The
// repaired replicas are not protocol-complete — migration state and
// copysets of remote nodes stay wherever the run left the local
// replica — which is why the invariant checks run on the gathered
// reports, not on the repaired space.)
func repair(sp *proto.Space, a assignBody) {
	for obj := range a.Homes {
		oid := memory.ObjectID(obj)
		home := memory.NodeID(a.Homes[obj])
		for _, row := range sp.Nodes {
			row.IsHome[oid] = row.ID == home
		}
		row := sp.Nodes[home]
		o := row.Cache[oid]
		if o == nil {
			o = memory.NewObject(oid, len(a.Data[obj]))
			row.Cache[oid] = o
		}
		copy(o.Data, a.Data[obj])
		o.State = memory.ReadOnly
		o.Dirty = false
		o.Twin = nil
	}
}

// --- application verdict ------------------------------------------

// appReportBody is one member's application-level result.
type appReportBody struct {
	Err       string
	HasDigest bool
	Digest    uint64
	Metrics   stats.Metrics
	Ops       []timedOp
	Flight    []flight.Event
}

// verdictBody is node 0's cluster-wide answer.
type verdictBody struct {
	Err       string
	Metrics   stats.Metrics
	OracleOps int
}

// Observer implements apps.Member: the oracle recorder for a run of
// `threads` global threads. Events are stamped from the member's
// hybrid logical clock — the same clock every TCP frame carries and
// folds on receipt — so a stamp taken after a frame arrived is greater
// than every stamp taken before that frame was sent, no matter how the
// processes' wall clocks are skewed. Sorting the merged logs by stamp
// therefore yields an order consistent with happens-before (what
// oracle.Check needs) even across machines whose clocks disagree by
// seconds; raw wall-clock stamps (kept per event for diagnostics, and
// for the forceWallOrder regression demonstration) only manage that on
// one machine.
func (m *Member) Observer(threads int) dsm.Observer {
	m.threads = threads
	wall := m.cfg.WallClock
	if wall == nil {
		wall = func() int64 { return time.Now().UnixNano() }
	}
	m.rec = &timedRecorder{clock: m.clock, wall: wall}
	return m.rec
}

// FinishApp implements apps.Member: gather per-process results, have
// node 0 evaluate the cluster-wide verdict (merged-oracle LRC check,
// digest equality, per-node failures, merged metrics) and distribute
// it. Every member's res receives the merged metrics and oracle count;
// a non-nil error means the run failed cluster-wide.
func (m *Member) FinishApp(c *dsm.Cluster, res *apps.Result, check, oracleOn bool) error {
	rep := appReportBody{Metrics: res.Metrics}
	if check {
		if !m.finished {
			rep.Err = "end-of-run reconciliation never completed"
		} else {
			rep.HasDigest = true
			rep.Digest = m.digest
			res.Digest = m.digest
		}
	}
	if oracleOn && m.rec != nil {
		rep.Ops = m.rec.ops
	}
	if m.flight != nil {
		rep.Flight = m.flight.Snapshot()
	}
	return m.appExchange(c, res, rep, check, oracleOn)
}

// AbortApp reports a local application failure (argument validation,
// result mismatch, an engine abort) into the verdict exchange, so the
// other members learn the cluster failed instead of hanging, and
// returns the cluster-wide error. Use it from the daemon when the
// application returned an error without reaching FinishApp.
//
// The graceful exchange assumes peers reach their own exchange; a peer
// wedged mid-run (say, blocked on frames this member will never send)
// would leave the exchange — and the cluster — hanging. A grace timer
// bounds that: after Config.AbortGrace the member severs its
// transport, which every peer detects as death, so all members exit
// nonzero within the deadline either way.
func (m *Member) AbortApp(appErr error) error {
	if m.n > 1 {
		grace := m.cfg.AbortGrace
		timer := time.AfterFunc(grace, func() {
			m.tr.Sever(fmt.Errorf("%w: abort verdict exchange on node %d did not complete within %v (local failure: %v)",
				ErrPeerDeath, m.cfg.ID, grace, appErr))
		})
		defer timer.Stop()
	}
	rep := appReportBody{Err: appErr.Error()}
	if m.flight != nil {
		m.flight.Record(flight.Event{Kind: flight.Abort})
		rep.Flight = m.flight.Snapshot()
	}
	var res apps.Result
	return m.appExchange(nil, &res, rep, false, false)
}

func (m *Member) appExchange(c *dsm.Cluster, res *apps.Result, rep appReportBody, check, oracleOn bool) error {
	m.hasResult = true
	if m.n > 1 && m.cfg.ID != 0 {
		m.send(0, ctlAppReport, rep)
		_, body, err := m.expect(ctlVerdict)
		if err != nil {
			return err
		}
		var v verdictBody
		if err := decodeBody(body, &v); err != nil {
			return fmt.Errorf("cluster: decoding verdict: %w", err)
		}
		if v.Err != "" {
			return fmt.Errorf("cluster verdict: %w: %s", ErrVerification, v.Err)
		}
		res.Metrics = v.Metrics
		res.OracleOps = v.OracleOps
		return nil
	}

	// Coordinator: gather, judge, distribute.
	reports := make([]appReportBody, m.n)
	reports[m.cfg.ID] = rep
	for have := 0; have < m.n-1; have++ {
		from, body, err := m.expectFromAny(ctlAppReport)
		if err != nil {
			return m.failClusterErr(err)
		}
		if err := decodeBody(body, &reports[from]); err != nil {
			return m.failCluster(fmt.Sprintf("decoding node %d app report: %v", from, err))
		}
	}
	var v verdictBody
	fail := func(format string, args ...any) {
		if v.Err == "" {
			v.Err = fmt.Sprintf(format, args...)
		}
	}
	merged := reports[0].Metrics
	for id := 1; id < m.n; id++ {
		r := &reports[id]
		merged.Counters.Add(&r.Metrics.Counters)
		merged.LiveMsgs += r.Metrics.LiveMsgs
		merged.LiveBytes += r.Metrics.LiveBytes
		if r.Metrics.Wall > merged.Wall {
			merged.Wall = r.Metrics.Wall
		}
		if r.Metrics.LivePeakInbox > merged.LivePeakInbox {
			merged.LivePeakInbox = r.Metrics.LivePeakInbox
		}
		if r.Metrics.LivePeakMailbox > merged.LivePeakMailbox {
			merged.LivePeakMailbox = r.Metrics.LivePeakMailbox
		}
	}
	for id := range reports {
		if reports[id].Err != "" {
			fail("node %d: %s", id, reports[id].Err)
		}
	}
	if m.flight != nil {
		// Merge every member's ring into the cluster timeline — on the
		// success and abort paths alike, so a chaos post-mortem has the
		// same HLC-ordered evidence a clean run exports.
		logs := make([][]flight.Event, 0, m.n)
		for id := range reports {
			if len(reports[id].Flight) > 0 {
				logs = append(logs, reports[id].Flight)
			}
		}
		m.timeline = flight.Merge(logs...)
	}
	if check && v.Err == "" {
		for id := range reports {
			if !reports[id].HasDigest || reports[id].Digest != m.digest {
				fail("node %d digest %#x disagrees with coordinator's %#x",
					id, reports[id].Digest, m.digest)
			}
		}
	}
	var mergedOps int
	if oracleOn && v.Err == "" {
		var viols []oracle.Violation
		mergedOps, viols = m.checkMergedOracle(c, reports)
		if len(viols) > 0 {
			fail("merged oracle: %d violation(s), first: %s", len(viols), viols[0])
		}
	}
	v.Metrics = merged
	v.OracleOps = mergedOps
	if m.n > 1 {
		m.broadcast(ctlVerdict, v)
	}
	if v.Err != "" {
		return fmt.Errorf("cluster verdict: %w: %s", ErrVerification, v.Err)
	}
	res.Metrics = merged
	res.OracleOps = mergedOps
	return nil
}

// checkMergedOracle merges every process's stamped event log into one
// total order and replays it through the LRC oracle.
func (m *Member) checkMergedOracle(c *dsm.Cluster, reports []appReportBody) (int, []oracle.Violation) {
	type tagged struct {
		op   timedOp
		node int
		idx  int
	}
	var all []tagged
	for id := range reports {
		for i, op := range reports[id].Ops {
			all = append(all, tagged{op: op, node: id, idx: i})
		}
	}
	// HLC order, ties broken deterministically. Within a process the
	// recorder's append order is consistent with its stamps (the clock
	// is strictly increasing and event delivery is serialized);
	// across processes the frame-carried stamps make the order
	// consistent with happens-before under any wall-clock skew. The
	// forceWallOrder switch reverts to raw wall stamps — the pre-HLC
	// sort — for the regression test that shows skew breaking it.
	sort.SliceStable(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if m.cfg.forceWallOrder {
			if a.op.Raw != b.op.Raw {
				return a.op.Raw < b.op.Raw
			}
		} else {
			if a.op.Wall != b.op.Wall {
				return a.op.Wall < b.op.Wall
			}
			if a.op.Logical != b.op.Logical {
				return a.op.Logical < b.op.Logical
			}
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.idx < b.idx
	})
	rec := oracle.NewRecorder(m.threads)
	for _, t := range all {
		rec.Record(t.op.Event)
	}
	var init oracle.InitFn
	if c != nil {
		init = c.InitialWord
	}
	return rec.Len(), rec.Check(init)
}

// --- stamped oracle recorder --------------------------------------

// timedOp is one oracle event, stamped (Wall, Logical) off the member's
// hybrid logical clock — the pair the merged cluster-wide LRC check
// sorts on — plus the raw local wall reading (diagnostics, and the
// forceWallOrder regression sort key).
type timedOp struct {
	flight.Event
	Raw int64
}

// timedRecorder is the member's oracle subscriber: it keeps the events
// oracle.Check reads, stamping each as it stores it. The live engine
// serializes delivery (live.Cluster.Subscribe), so appends are
// single-threaded; the clock is strictly increasing (and shared with
// the transport's frame stamping), so stamp order matches append order
// within the process and happens-before across processes.
type timedRecorder struct {
	clock *hlc.Clock
	wall  func() int64
	ops   []timedOp
}

func (r *timedRecorder) Kinds() flight.Mask { return oracle.Kinds }

func (r *timedRecorder) Record(ev flight.Event) {
	s := r.clock.Tick()
	ev.Wall, ev.Logical = s.Wall, s.Logical
	r.ops = append(r.ops, timedOp{Event: ev, Raw: r.wall()})
}

// compile-time check: the member satisfies the apps layer's contract.
var _ apps.Member = (*Member)(nil)
