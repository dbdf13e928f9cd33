//dsm:wallclock the verdict round arms a real-time watchdog against hung peers; quiescence waves are paced in real time

package cluster

import (
	"fmt"
	"slices"
	"time"

	dsm "repro"

	"repro/internal/apps"
	"repro/internal/flight"
	"repro/internal/memory"
	"repro/internal/oracle"
	"repro/internal/proto"
	"repro/internal/stats"
)

// pollBody is one member's share of a quiescence wave.
type pollBody struct {
	Inflight  int64
	Delivered int64
}

// assignBody is node 0's answer to the members' reports: every object's
// home and the digest of the memory node 0 assembled. The memory itself
// stays there.
type assignBody struct {
	Homes  []memory.NodeID
	Digest uint64
}

// FinishRun implements live.Finisher: the end of the run as one node's
// owner sees it, called by the engine once this process's workers have
// finished. Poll rounds run until the cluster is quiescent; then every
// member ships its node's report to node 0, which assembles the memory
// and checks it (proto.Assemble, with the invariants under the check gate),
// keeps it, and answers with the homes and the digest, which with the
// member's own home copies are its view.
func (m *Member) FinishRun(sp *proto.Space, inflight func() int64) error {
	if err := m.quiesce(inflight); err != nil {
		return err
	}
	rep := sp.Nodes[m.cfg.ID].Report()
	a, err := round(m, ctlReport, rep, func(reports []proto.NodeReport) (assignBody, error) {
		end, err := proto.Assemble(sp.S, reports, m.check)
		if err != nil {
			return assignBody{}, fmt.Errorf("%w: %w", ErrVerification, err)
		}
		sp.Install(end)
		return assignBody{Homes: end.Homes, Digest: end.Digest()}, nil
	})
	if err != nil {
		return err
	}
	if m.cfg.ID != 0 {
		if len(a.Homes) != sp.NumObjects() {
			return fmt.Errorf("cluster: assignment names %d homes for %d objects", len(a.Homes), sp.NumObjects())
		}
		sp.Install(proto.MemberView(a.Homes, a.Digest, rep))
	}
	m.digest, m.finished = a.Digest, true
	return nil
}

// quiesce is distributed termination detection: poll rounds, each one
// wave of every member's in-flight counter (inflight, sent minus fully
// handled) and delivered-frame count, until node 0 has seen two
// consecutive waves sum to zero in flight with no frame delivered
// anywhere in between — at that point no protocol frame exists in any
// queue, socket or handler.
func (m *Member) quiesce(inflight func() int64) error {
	var quiet []int64 // node 0: the last wave's delivered counts, if it summed to zero
	judge := func(polls []pollBody) (bool, error) {
		var sum int64
		delivered := make([]int64, len(polls))
		for i, p := range polls {
			sum, delivered[i] = sum+p.Inflight, p.Delivered
		}
		if sum == 0 && slices.Equal(delivered, quiet) {
			return true, nil
		}
		quiet = nil
		if sum == 0 {
			quiet = delivered
		}
		time.Sleep(200 * time.Microsecond) // pace the waves
		return false, nil
	}
	for wave := 1; ; wave++ {
		done, err := round(m, ctlPoll, pollBody{Inflight: inflight(), Delivered: m.tr.DataRecv()}, judge)
		if err != nil || done {
			if done && m.cfg.ID == 0 {
				m.logf("node 0: cluster quiescent after %d waves", wave)
			}
			return err
		}
	}
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

// FinishApp is the verdict round of the run c ran, which Run calls once
// its fn returned a result. Node 0 gathers per-process results, evaluates
// the cluster-wide verdict (merged-oracle LRC check over c's threads,
// per-node failures, merged metrics) and distributes it.
// Every member's res receives the merged metrics and oracle count; under
// check a member whose report round never completed fails the run. A
// non-nil error means the run failed cluster-wide.
func (m *Member) FinishApp(c *dsm.Cluster, res *apps.Result, check, oracleOn bool) error {
	rep := appReportBody{Metrics: res.Metrics}
	if check && !m.finished {
		rep.Err = "end-of-run reconciliation never completed"
	}
	if oracleOn && m.rec != nil {
		rep.Ops = m.rec.Events
	}
	return m.verdict(c, res, rep, oracleOn)
}

// AbortApp reports a local application failure (argument validation,
// result mismatch, an engine abort) into the verdict round, so the other
// members learn the cluster failed instead of hanging, and returns the
// cluster-wide error. Run calls it when the application returned an
// error without reaching FinishApp.
//
// The round assumes peers reach their own; a peer wedged mid-run (say,
// blocked on frames this member will never send) would leave the round
// — and the cluster — hanging. A grace timer bounds that: after
// Config.AbortGrace the member severs its transport, which every peer
// detects as death, so all members exit nonzero within the deadline
// either way.
func (m *Member) AbortApp(appErr error) error {
	grace := m.cfg.AbortGrace
	timer := time.AfterFunc(grace, func() {
		m.tr.Sever(fmt.Errorf("%w: abort verdict round on node %d did not complete within %v (local failure: %v)",
			ErrPeerDeath, m.cfg.ID, grace, appErr))
	})
	defer timer.Stop()
	m.flight.Record(flight.Event{Kind: flight.Abort})
	var res apps.Result
	return m.verdict(nil, &res, appReportBody{Err: appErr.Error()}, false)
}

// verdict runs the verdict round with this member's report.
func (m *Member) verdict(c *dsm.Cluster, res *apps.Result, rep appReportBody, oracleOn bool) error {
	m.hasResult = true
	if m.flight != nil {
		rep.Flight = m.flight.Snapshot()
		if m.cfg.ID == 0 {
			// What is left of the cluster's timeline when a member dies
			// before handing its ring in: this node's own, an Abort
			// event included.
			m.timeline = rep.Flight
		}
	}
	v, err := round(m, ctlVerdict, rep, func(reports []appReportBody) (verdictBody, error) {
		return m.judge(c, reports, oracleOn), nil
	})
	if err != nil {
		return err
	}
	if v.Err != "" {
		return fmt.Errorf("cluster verdict: %w: %s", ErrVerification, v.Err)
	}
	res.Metrics, res.OracleOps = v.Metrics, v.OracleOps
	return nil
}

// judge is node 0's verdict over every member's report: the first
// member's error, else the first logged access outside the layout, else
// the merged oracle's; the merged metrics; and, when recording, every
// member's ring merged into the cluster timeline — on the success and
// abort paths alike, so a chaos post-mortem has the same HLC-ordered
// evidence a clean run exports.
func (m *Member) judge(c *dsm.Cluster, reports []appReportBody, oracleOn bool) verdictBody {
	v := verdictBody{Metrics: reports[0].Metrics}
	merged := &v.Metrics
	rings := make([][]flight.Event, len(reports))
	ops := make([][]flight.Event, len(reports))
	for id := range reports {
		r := &reports[id]
		if id > 0 {
			merged.Counters.Add(&r.Metrics.Counters)
			merged.Wall = max(merged.Wall, r.Metrics.Wall)
			merged.LivePeakInbox = max(merged.LivePeakInbox, r.Metrics.LivePeakInbox)
			merged.LivePeakMailbox = max(merged.LivePeakMailbox, r.Metrics.LivePeakMailbox)
		}
		if v.Err == "" && r.Err != "" {
			v.Err = fmt.Sprintf("node %d: %s", id, r.Err)
		}
		rings[id], ops[id] = r.Flight, r.Ops
	}
	merged.LiveMsgs, merged.LiveBytes = merged.TotalMsgs(true), merged.TotalBytes(true)
	if m.flight != nil {
		m.timeline = flight.Merge(rings...)
	}
	if oracleOn && v.Err == "" {
		v.Err = outsideLayout(c.ObjectWords(), ops)
	}
	if oracleOn && v.Err == "" {
		// flight.Merge's order (HLC stamp, node, append order) is consistent
		// with happens-before under any wall-clock skew: a member's clock is
		// strictly increasing, and frames carry its stamps to the others.
		merged := flight.Merge(ops...)
		v.OracleOps = len(merged)
		if viols := oracle.Check(c.Threads(), merged, c.InitialWord); len(viols) > 0 {
			v.Err = fmt.Sprintf("merged oracle: %d violation(s), first: %s", len(viols), viols[0])
		}
	}
	return v
}

// outsideLayout names the first Read or Write in the members' oracle logs
// (ops, by member) on an object or word the layout (words, by object) does
// not declare, or returns "". Only a forged report holds one, and the
// oracle would index the initial values with it.
func outsideLayout(words []int, ops [][]flight.Event) string {
	for id, evs := range ops {
		for _, e := range evs {
			if (e.Kind == flight.Read || e.Kind == flight.Write) &&
				(int(e.Obj) >= len(words) || e.Word < 0 || int(e.Word) >= words[e.Obj]) {
				return fmt.Sprintf("node %d: %s of object %d word %d outside the declared layout", id, e.Kind, e.Obj, e.Word)
			}
		}
	}
	return ""
}
