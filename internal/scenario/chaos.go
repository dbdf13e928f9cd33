//dsm:wallclock the chaos sweep watchdogs live runs with real-time deadlines

package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/live"
	"repro/internal/live/transport/faulty"
	"repro/internal/locator"
	"repro/internal/migration"
	"repro/internal/prng"
)

// chaosFlightCap sizes each node's flight ring in chaos runs: enough to
// hold the traffic around an injected fault so the dump attributes it.
const chaosFlightCap = 512

// Chaos mode: the failure-domain gate. Each seed draws a deterministic
// fault schedule (delivery delay/jitter always; often a scheduled node
// kill or link cut) and runs the generated program on the live engine
// over the fault-injecting transport wrapper. Exactly two outcomes are
// legal, each within a deadline:
//
//   - the run completes despite the faults, passes every scenario
//     verdict and reproduces the fault-free sim digest (delays may
//     reorder everything the protocol allows, but never results); or
//   - the injected fault ends the run through the engine's abort path,
//     surfacing as an error wrapping live.ErrAborted.
//
// Anything else — a hang, a panic (the pool turns it into the run's
// error), a completed run with a wrong digest, a failure that is not the
// clean abort — fails the sweep.
// That is the property the hardening work guarantees: a broken cluster
// is always a bounded, attributable failure.

// ChaosStats aggregates a chaos sweep.
type ChaosStats struct {
	Runs      int
	Completed int // finished cleanly with sim-digest parity
	Aborted   int // ended by the injected fault via the clean abort path
	Failures  []string
}

// chaosFaults draws seed's fault schedule: jittered delivery delays
// always, and with the historical mix a scheduled kill (~40%) or link
// cut (~20%); the rest run on delays alone.
func chaosFaults(seed uint64, nodes int) (faulty.Options, string) {
	r := prng.New(prng.Mix(seed^0xC4A05) | 1)
	opt := faulty.Options{
		Seed:     prng.Mix(seed ^ 0xFA17),
		MaxDelay: time.Duration(50+r.Intn(1500)) * time.Microsecond,
	}
	switch roll := r.Intn(10); {
	case roll < 4 && nodes > 1:
		opt.KillNode = r.Intn(nodes)
		opt.KillAfter = int64(1 + r.Intn(400))
		return opt, fmt.Sprintf("kill node %d after %d frames", opt.KillNode, opt.KillAfter)
	case roll < 6 && nodes > 1:
		opt.CutA = r.Intn(nodes)
		opt.CutB = (opt.CutA + 1 + r.Intn(nodes-1)) % nodes
		opt.CutAfter = int64(1 + r.Intn(400))
		return opt, fmt.Sprintf("cut link %d<->%d after %d frames", opt.CutA, opt.CutB, opt.CutAfter)
	}
	return opt, fmt.Sprintf("delays up to %v", opt.MaxDelay)
}

// ChaosSweep runs count chaos scenarios from seed base as specs on the
// internal/experiment pool, the runner of every other sweep, par at a
// time (<= 0 means one per core). Every live run is bounded by deadline
// (<= 0 selects 2 minutes): a run that neither completes nor aborts in
// time is reported as a hang, the one outcome the hardened engine must
// never produce. progress (optional) receives the pool's line per run; a
// run that failed the gate reads FAILED there and is detailed in the
// stats.
func ChaosSweep(base uint64, count, par int, deadline time.Duration, progress func(string)) (ChaosStats, error) {
	if deadline <= 0 {
		deadline = 2 * time.Minute
	}
	specs := make([]experiment.Spec[bool], count)
	for i := range specs {
		seed := base + uint64(i)
		p := Generate(seed)
		lc := Locators[seed%uint64(len(Locators))]
		pols := Policies(p.Nodes)
		pol := pols[seed%uint64(len(pols))]
		faults, desc := chaosFaults(seed, p.Nodes)
		label := fmt.Sprintf("chaos seed=%d %s nodes=%d %s/%s: %s",
			seed, p.Family, p.Nodes, pol.Name(), lc, desc)
		specs[i] = experiment.Spec[bool]{Label: label, Run: func() (aborted bool, err error) {
			return chaosRun(p, pol, lc, faults, label, deadline)
		}}
	}
	st := ChaosStats{Runs: count}
	for _, o := range experiment.Run(experiment.NewPool(par, progress), specs) {
		switch {
		case o.Err != nil:
			if len(st.Failures) < 32 {
				st.Failures = append(st.Failures, o.Err.Error())
			}
		case o.Result: // aborted
			st.Aborted++
		default:
			st.Completed++
		}
	}
	if len(st.Failures) > 0 {
		return st, fmt.Errorf("chaos sweep: %d failure(s), first: %s", len(st.Failures), st.Failures[0])
	}
	return st, nil
}

// chaosRun is one seed of the sweep: the fault-free sim reference, then
// the faulted live run under its deadline, judged. A legal end is either
// completion with sim-digest parity or, reported as aborted, the clean
// abort path; anything else is the error — the run's failure line,
// already carrying label.
func chaosRun(p *Program, pol migration.Policy, lc locator.Kind, faults faulty.Options, label string, deadline time.Duration) (aborted bool, err error) {
	// Fault-free sim reference: the digest the live run must reproduce if
	// it survives its faults.
	simRes, err := p.Run(pol, RunOpts{Locator: lc})
	if err != nil {
		return false, fmt.Errorf("%s: sim reference: %v", label, err)
	}
	if simRes.Failed() {
		return false, fmt.Errorf("%s: sim reference failed its own verdicts", label)
	}

	type runResult struct {
		res *Result
		err error
	}
	ch := make(chan runResult, 1)
	var dump bytes.Buffer
	go func() {
		res, err := p.Run(pol, RunOpts{
			Locator: lc, Engine: "live", Faults: &faults,
			FlightCap: chaosFlightCap, FlightDump: &dump,
		})
		ch <- runResult{res, err}
	}()
	select {
	case r := <-ch:
		switch {
		case errors.Is(r.err, live.ErrAborted):
			// An abort must leave a post-mortem: every node's trailing
			// flight events, attributed.
			if !strings.Contains(dump.String(), "flight: node") {
				return false, fmt.Errorf("%s: aborted without a flight dump", label)
			}
			return true, nil
		case r.err != nil:
			return false, fmt.Errorf("%s: failed outside the abort path: %v", label, r.err)
		case r.res.Failed():
			msg := "verdict failure"
			if len(r.res.Mismatches) > 0 {
				msg = r.res.Mismatches[0]
			} else if len(r.res.Violations) > 0 {
				msg = r.res.Violations[0].String()
			} else if r.res.InvariantErr != nil {
				msg = r.res.InvariantErr.Error()
			}
			return false, fmt.Errorf("%s: completed but failed verdicts: %s", label, msg)
		case r.res.Digest != simRes.Digest:
			return false, fmt.Errorf("%s: digest %#x != sim digest %#x", label, r.res.Digest, simRes.Digest)
		}
		return false, nil
	case <-time.After(deadline):
		return false, fmt.Errorf("%s: HANG — neither completed nor aborted within %v", label, deadline)
	}
}
