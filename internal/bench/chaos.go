//dsm:wallclock the chaos sweep watchdogs live runs with real-time deadlines

package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/experiment"
	"repro/internal/flight"
	"repro/internal/live"
	"repro/internal/live/transport"
	"repro/internal/live/transport/faulty"
	"repro/internal/prng"
	"repro/internal/scenario"

	dsm "repro"
)

// Chaos mode: the failure-domain gate. Each seed draws a deterministic
// fault schedule (delivery delay/jitter always; often a scheduled node
// kill or link cut) and runs the generated program on the live engine
// over the fault-injecting transport wrapper. Exactly two outcomes are
// legal, each within a deadline:
//
//   - the run completes despite the faults, passes the whole gate of a
//     checked run and reproduces the fault-free sim digest (delays may
//     reorder everything the protocol allows, but never results); or
//   - the injected fault ends the run through the engine's abort path,
//     surfacing as an error wrapping live.ErrAborted.
//
// Anything else — a hang, a panic (the pool turns it into the run's
// error), a completed run with a wrong digest, a failure that is not the
// clean abort — fails the sweep.
// That is the property the hardening work guarantees: a broken cluster
// is always a bounded, attributable failure.
//
// The digest comparison here is not sameResults': a seed's two runs are
// not a key group, because the faulted one may legally leave no memory at
// all, and the reference runs inside the same spec so the pool can bound
// the pair with one deadline.

// ChaosStats aggregates a chaos sweep.
type ChaosStats struct {
	Runs      int
	Completed int // finished cleanly with sim-digest parity
	Aborted   int // ended by the injected fault via the clean abort path
	Failures  []string
}

const (
	// chaosFlightCap sizes each node's flight ring in chaos runs: enough
	// to hold the traffic around an injected fault so the dump attributes
	// it; flightDumpN is how many trailing events per node an abort dumps.
	chaosFlightCap = 512
	flightDumpN    = 32
)

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
	pols := Policies()
	for i := range specs {
		seed := base + uint64(i)
		p := scenario.Generate(seed)
		lc := Locators[seed%uint64(len(Locators))]
		pol := pols[seed%uint64(len(pols))]
		faults, desc := chaosFaults(seed, p.Nodes)
		label := fmt.Sprintf("chaos seed=%d %s nodes=%d %s/%s: %s", seed, p.Family, p.Nodes, pol, lc, desc)
		specs[i] = experiment.Spec[bool]{Label: label, Run: func() (aborted bool, err error) {
			return chaosRun(p, pol, lc, faults, deadline)
		}}
	}
	st := ChaosStats{Runs: count}
	var lines []string
	for _, o := range experiment.Run(experiment.NewPool(par, progress), specs) {
		switch {
		case o.Err != nil:
			lines = append(lines, fmt.Sprintf("%s: %v", o.Label, o.Err))
		case o.Result: // aborted
			st.Aborted++
		default:
			st.Completed++
		}
	}
	var err error
	st.Failures, err = failed("chaos", lines)
	return st, err
}

// faultedRun is the checked live run of p over the fault-injecting
// transport: flight rings on every node, the injected fault logged into
// node 0's. An abort must leave a post-mortem — every node's trailing
// flight events, attributed — or it is reported as a failure of its own,
// outside the abort path.
func faultedRun(p *scenario.Program, policy, locator string, faults faulty.Options) (apps.Result, error) {
	ft := faulty.Wrap(transport.NewChanLoop(p.Nodes), p.Nodes, faults)
	o := scenarioOpts(policy, locator, "live")
	o.Transport, o.FlightCap = ft, chaosFlightCap
	var rings []*flight.Recorder
	o.OnCluster = func(c *dsm.Cluster) {
		rings = c.FlightRecorders()
		ft.SetFlight(rings[0])
	}
	res, err := apps.RunScenario(p, o)
	if errors.Is(err, live.ErrAborted) {
		var dump strings.Builder
		flight.DumpLastN(&dump, rings, flightDumpN)
		if !strings.Contains(dump.String(), "flight: node") {
			return res, fmt.Errorf("aborted without a flight dump")
		}
	}
	return res, err
}

// chaosRun is one seed of the sweep: the fault-free sim reference, then
// the faulted live run under its deadline, judged. A legal end is either
// completion with sim-digest parity or, reported as aborted, the clean
// abort path; anything else is the error.
func chaosRun(p *scenario.Program, policy, locator string, faults faulty.Options, deadline time.Duration) (aborted bool, err error) {
	// Fault-free sim reference: the digest the live run must reproduce if
	// it survives its faults.
	ref, err := apps.RunScenario(p, scenarioOpts(policy, locator, "sim"))
	if err != nil {
		return false, fmt.Errorf("sim reference: %v", err)
	}
	type ended struct {
		res apps.Result
		err error
	}
	ch := make(chan ended, 1)
	go func() {
		res, err := faultedRun(p, policy, locator, faults)
		ch <- ended{res, err}
	}()
	select {
	case r := <-ch:
		switch {
		case errors.Is(r.err, live.ErrAborted):
			return true, nil
		case r.err != nil:
			return false, fmt.Errorf("failed outside the abort path: %v", r.err)
		case r.res.Digest != ref.Digest:
			return false, fmt.Errorf("digest %#x != sim digest %#x", r.res.Digest, ref.Digest)
		}
		return false, nil
	case <-time.After(deadline):
		return false, fmt.Errorf("HANG — neither completed nor aborted within %v", deadline)
	}
}
