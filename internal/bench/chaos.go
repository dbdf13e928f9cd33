package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
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
// over the fault-injecting transport wrapper. It is a verdict sweep like
// Sweep — a workload per seed, keyed by the seed — under two variants,
// the fault-free sim reference and the faulted live run, so parity is
// sameResults. Exactly two ends of the faulted run are legal, each within
// runBound:
//
//   - the run completes despite the faults, passes the whole gate of a
//     checked run and reproduces the sim reference's digest (delays may
//     reorder everything the protocol allows, but never results); or
//   - the injected fault ends the run through the engine's abort path,
//     surfacing as an error wrapping live.ErrAborted.
//
// Anything else — a hang, a panic, a completed run with a wrong digest, a
// failure that is not the clean abort, a sim reference that does not
// complete — fails the sweep. That is the property the hardening work
// guarantees: a broken cluster is always a bounded, attributable failure.

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

// ChaosSweep runs count chaos scenarios from seed base; par and progress
// are verdictGrid.run's. Completed counts the seeds whose two runs both
// completed, Aborted the faulted runs the injected fault ended cleanly.
func ChaosSweep(base uint64, count, par int, progress func(string)) (SweepStats, error) {
	return chaosGrid(base, count).run(par, progress)
}

// chaosGrid declares ChaosSweep's grid. A seed's policy and locator
// rotate with the seed and, like its fault schedule, are set inside its
// run; the labels name all three.
func chaosGrid(base uint64, count int) verdictGrid {
	g := verdictGrid{what: "chaos", faulted: 1, vs: []variant{
		{"sim", dsm.Config{Engine: "sim"}},
		{"faulted", dsm.Config{Engine: "live"}},
	}}
	pols := Policies()
	descs := make([]string, count) // per seed: its fault schedule
	for i := range descs {
		seed := base + uint64(i)
		p := scenario.Generate(seed)
		lc := Locators[seed%uint64(len(Locators))]
		pol := pols[seed%uint64(len(pols))]
		faults, desc := chaosFaults(seed, p.Nodes)
		g.ws = append(g.ws, workload{fmt.Sprintf("seed=%d %s nodes=%d %s/%s", seed, p.Family, p.Nodes, pol, lc), fmt.Sprintf("seed=%d", seed), p.Nodes,
			func(o apps.Options) (apps.Result, error) {
				if o.Engine == "sim" {
					return apps.RunScenario(p, scenarioOpts(pol, lc, "sim"))
				}
				return faultedRun(p, pol, lc, faults)
			}})
		g.reads = append(g.reads, p.CheckedReads())
		descs[i] = desc
	}
	ws := g.ws
	g.label = func(v, w int) string {
		tail := descs[w]
		if v == 0 {
			tail = "sim reference"
		}
		return "chaos " + ws[w].name + ": " + tail
	}
	return g
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
