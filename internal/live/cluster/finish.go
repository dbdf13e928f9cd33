//dsm:wallclock the finish barrier arms real-time watchdogs against hung peers

package cluster

import (
	"fmt"
	"time"

	dsm "repro"

	"repro/internal/apps"
	"repro/internal/flight"
	"repro/internal/hlc"
	"repro/internal/memory"
	"repro/internal/oracle"
	"repro/internal/proto"
	"repro/internal/stats"
)

// assignBody is the coordinator's answer to a member's report: every
// object's home and the digest of the memory node 0 assembled. The
// memory itself stays there.
type assignBody struct {
	Homes  []memory.NodeID
	Digest uint64
}

// FinishRun implements live.Finisher: the end of the run as one node's
// owner sees it, called by the engine between global quiescence and
// transport close. Every member ships its node's report to node 0; node
// 0 assembles the memory and checks it (proto.Assemble, with the
// invariants under Config.Check), keeps it, and answers with the homes
// and the digest, which with the member's own home copies are its view.
func (m *Member) FinishRun(sp *proto.Space) error {
	rep := sp.Nodes[m.cfg.ID].Report()
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
		if len(a.Homes) != sp.NumObjects() {
			return fmt.Errorf("cluster: assignment names %d homes for %d objects", len(a.Homes), sp.NumObjects())
		}
		sp.Install(proto.MemberView(a.Homes, a.Digest, rep))
		m.digest, m.finished = a.Digest, true
		return nil
	}

	// Coordinator (and the trivial single-member cluster).
	reports := make([]proto.NodeReport, m.n)
	reports[m.cfg.ID] = rep
	bodies, err := m.gather(ctlReport)
	if err != nil {
		return m.failClusterErr(err)
	}
	for from := 1; from < m.n; from++ {
		if err := decodeBody(bodies[from], &reports[from]); err != nil {
			return m.failCluster(fmt.Sprintf("decoding node %d report: %v", from, err))
		}
	}
	end, err := proto.Assemble(sp.S, reports, m.cfg.Check)
	if err != nil {
		return m.failClusterErr(fmt.Errorf("%w: %w", ErrVerification, err))
	}
	sp.Install(end)
	m.digest, m.finished = end.Digest(), true
	m.broadcast(ctlAssign, assignBody{Homes: end.Homes, Digest: m.digest})
	return nil
}

// --- application verdict ------------------------------------------

// appReportBody is one member's application-level result.
type appReportBody struct {
	Err     string
	Metrics stats.Metrics
	Ops     []flight.Event // the member's stamped oracle log
	Flight  []flight.Event
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
// seconds, which raw wall-clock readings only manage on one machine.
func (m *Member) Observer(threads int) dsm.Observer {
	m.threads = threads
	m.rec = &timedRecorder{clock: m.clock}
	return m.rec
}

// FinishApp implements apps.Member: gather per-process results, have
// node 0 evaluate the cluster-wide verdict (merged-oracle LRC check,
// per-node failures, merged metrics) and distribute it. Every member's
// res receives the merged metrics and oracle count and, under check, the
// digest of the memory node 0 assembled (FinishRun handed it to each
// member; there is no second digest to compare it with); a non-nil
// error means the run failed cluster-wide.
func (m *Member) FinishApp(c *dsm.Cluster, res *apps.Result, check, oracleOn bool) error {
	rep := appReportBody{Metrics: res.Metrics}
	if check {
		if !m.finished {
			rep.Err = "end-of-run reconciliation never completed"
		} else {
			res.Digest = m.digest
		}
	}
	if oracleOn && m.rec != nil {
		rep.Ops = m.rec.ops
	}
	return m.appExchange(c, res, rep, oracleOn)
}

// AbortApp reports a local application failure (argument validation,
// result mismatch, an engine abort) into the verdict exchange, so the
// other members learn the cluster failed instead of hanging, and
// returns the cluster-wide error. Run calls it when the application
// returned an error without reaching FinishApp.
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
	m.flight.Record(flight.Event{Kind: flight.Abort})
	var res apps.Result
	return m.appExchange(nil, &res, rep, false)
}

func (m *Member) appExchange(c *dsm.Cluster, res *apps.Result, rep appReportBody, oracleOn bool) error {
	m.hasResult = true
	if m.flight != nil {
		rep.Flight = m.flight.Snapshot()
	}
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
	bodies, err := m.gather(ctlAppReport)
	if err != nil {
		// A member died: what is left of the cluster's timeline is this
		// node's own ring, its Abort event included.
		m.timeline = rep.Flight
		return m.failClusterErr(err)
	}
	for from := 1; from < m.n; from++ {
		if err := decodeBody(bodies[from], &reports[from]); err != nil {
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
// total order — flight.Merge's: HLC stamp, then node, then each member's
// own append order — and replays it through the LRC oracle. Within a
// process the recorder's append order is consistent with its stamps (the
// clock is strictly increasing and event delivery is serialized); across
// processes the frame-carried stamps make the order consistent with
// happens-before under any wall-clock skew.
func (m *Member) checkMergedOracle(c *dsm.Cluster, reports []appReportBody) (int, []oracle.Violation) {
	logs := make([][]flight.Event, len(reports))
	for id := range reports {
		logs[id] = reports[id].Ops
	}
	rec := oracle.NewRecorder(m.threads)
	for _, ev := range flight.Merge(logs...) {
		rec.Record(ev)
	}
	var init oracle.InitFn
	if c != nil {
		init = c.InitialWord
	}
	return rec.Len(), rec.Check(init)
}

// --- stamped oracle recorder --------------------------------------

// timedRecorder is the member's oracle subscriber: it keeps the events
// oracle.Check reads, stamping each (Wall, Logical) off the member's
// hybrid logical clock — the pair the merged cluster-wide LRC check sorts
// on — as it stores it. The live engine serializes delivery
// (live.Cluster.Subscribe), so appends are single-threaded; the clock is
// strictly increasing (and shared with the transport's frame stamping),
// so stamp order matches append order within the process and
// happens-before across processes.
type timedRecorder struct {
	clock *hlc.Clock
	ops   []flight.Event
}

func (r *timedRecorder) Kinds() flight.Mask { return oracle.Kinds }

func (r *timedRecorder) Record(ev flight.Event) {
	s := r.clock.Tick()
	ev.Wall, ev.Logical = s.Wall, s.Logical
	r.ops = append(r.ops, ev)
}

// compile-time check: the member satisfies the apps layer's contract.
var _ apps.Member = (*Member)(nil)
