//dsm:wallclock the telemetry loop samples and ships on a real-time ticker

package cluster

import (
	"errors"
	"fmt"
	"time"

	dsm "repro"

	"repro/internal/apps"
	"repro/internal/live/transport/tcp"
	"repro/internal/memory"
	"repro/internal/telemetry"
)

// DefaultTelemetryInterval is what a Config.TelemetryInterval ≤ 0 means.
const DefaultTelemetryInterval = 250 * time.Millisecond

// Run is a member's life between Join and Leave. It makes o this member's
// run — the cluster's size, this member as transport and distributed
// finish, its sink and registry, the oracle wherever the check gate is on
// — and calls fn, which runs the application (apps.Run or an apps.Run*).
// While the engine fn builds is alive (from o.OnCluster, which is Run's: fn
// may wrap it) the member samples its registry and ships a snapshot to node
// 0 every Config.TelemetryInterval, and once more after the run.
//
// An error that reaches Run without the verdict round having run — bad
// arguments, a wrong result, an engine abort — is reported into it, so
// every peer fails too instead of waiting; the round's answer replaces it
// when classified, which is how a wedged round ends as ErrPeerDeath.
func (m *Member) Run(o apps.Options, fn func(apps.Options) (apps.Result, error)) (apps.Result, error) {
	o.Nodes, o.Engine, o.Multi = m.n, "live", m
	o.Telemetry, o.Metrics, o.Oracle = m.sink, m.reg, o.Check
	m.reg.SetCommon(fmt.Sprintf("policy=%q", o.Policy))

	stop, done := make(chan struct{}), make(chan struct{})
	o.OnCluster = func(*dsm.Cluster) {
		// The sampler freezes its metric list when built: by now the
		// engine has registered its own.
		m.sampler = telemetry.NewSampler(m.reg, 4096)
		go func() {
			defer close(done)
			t := time.NewTicker(m.cfg.TelemetryInterval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					m.sampler.Tick(time.Now().UnixNano())
					m.ShipTelemetry(m.reg.Snapshot())
				}
			}
		}()
	}
	res, err := fn(o)
	if err != nil && !m.Completed() {
		if aerr := m.AbortApp(err); errors.Is(aerr, ErrPeerDeath) || errors.Is(aerr, ErrVerification) {
			err = aerr
		}
	}
	close(stop)
	if m.sampler != nil {
		<-done
		m.ShipTelemetry(m.reg.Snapshot()) // dropped if the transport is already down
	}
	return res, err
}

// Sampler holds the time series of the member's scalar metrics, one sample
// per tick of its Run; nil until the run has built its engine.
func (m *Member) Sampler() *telemetry.Sampler { return m.sampler }

// registerMetrics fills the registry with what the member itself measures;
// the engine adds its own when Run hands it the registry.
func (m *Member) registerMetrics() {
	register := func(name, help, label string, gauge bool, read func() int64) {
		if gauge {
			m.reg.GaugeFunc(name, help, label, read)
		} else {
			m.reg.CounterFunc(name, help, label, read)
		}
	}
	register("dsm_up", "1 while this member is alive and serving telemetry.", "", true, func() int64 { return 1 })
	register("dsm_data_frames_total", "Engine data frames sent plus received by this member.", "", false, m.DataFrames)
	register("dsm_inbox_peak", "High-water mark, in frames, of this member's delivery queues: the data inbox and the per-peer send queues.", "", true, func() int64 { return int64(m.PeakDepth()) })
	if rec := m.flight; rec != nil {
		register("dsm_flight_events_total", "Flight-recorder events recorded since start.", "", false, func() int64 { return int64(rec.Total()) })
		register("dsm_flight_events_buffered", "Flight-recorder events currently buffered in the ring.", "", true, func() int64 { return int64(rec.Len()) })
	}
	for j := 0; j < m.n; j++ {
		p := memory.NodeID(j)
		if p == m.cfg.ID {
			continue
		}
		label := fmt.Sprintf("peer=\"%d\"", j)
		for _, pm := range tcp.PeerMetrics {
			register(pm.Name, pm.Help, label, pm.Gauge, func() int64 {
				ps, _ := m.PeerStats(p)
				return pm.Read(ps)
			})
		}
	}
}
