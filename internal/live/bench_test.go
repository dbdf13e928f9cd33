package live

import (
	"fmt"
	"testing"

	"repro/internal/flight"
	"repro/internal/memory"
	"repro/internal/proto"
	"repro/internal/telemetry"
)

// BenchmarkLiveBarrierEpisode measures one full barrier episode
// (arrive, release broadcast, depart) across 4 real goroutine nodes —
// the live counterpart of the sim engine's BenchmarkBarrierEpisode.
func BenchmarkLiveBarrierEpisode(b *testing.B) {
	const nodes = 4
	c := New(paperConfig(nodes))
	bar := c.AddBarrier(0, nodes)
	var ws []proto.Worker
	for i := 0; i < nodes; i++ {
		ws = append(ws, proto.Worker{Node: memory.NodeID(i), Name: fmt.Sprintf("w%d", i),
			Fn: func(th proto.Thread) {
				for i := 0; i < b.N; i++ {
					th.Barrier(bar)
				}
			}})
	}
	b.ResetTimer()
	if _, err := c.Run(ws); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLiveLockHandoff measures a remote lock acquire/release pair
// ping-ponging between two nodes through the manager on a third.
func BenchmarkLiveLockHandoff(b *testing.B) {
	c := New(paperConfig(3))
	l := c.AddLock(0)
	var ws []proto.Worker
	for _, nd := range []memory.NodeID{1, 2} {
		ws = append(ws, proto.Worker{Node: nd, Name: fmt.Sprintf("w%d", nd),
			Fn: func(th proto.Thread) {
				for i := 0; i < b.N; i++ {
					th.Acquire(l)
					th.Release(l)
				}
			}})
	}
	b.ResetTimer()
	if _, err := c.Run(ws); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLiveLockedThroughput measures end-to-end shared-counter
// update throughput (fault-in + twin/diff + lock handoff per update)
// with one thread per node, reporting updates/sec.
func BenchmarkLiveLockedThroughput(b *testing.B) {
	const nodes = 4
	c := New(paperConfig(nodes))
	obj := c.AddObject(8, 0)
	l := c.AddLock(0)
	per := b.N/nodes + 1
	var ws []proto.Worker
	for i := 0; i < nodes; i++ {
		ws = append(ws, proto.Worker{Node: memory.NodeID(i), Name: fmt.Sprintf("w%d", i),
			Fn: func(th proto.Thread) {
				for k := 0; k < per; k++ {
					th.Acquire(l)
					th.Write(obj, k%8, th.Read(obj, k%8)+1)
					th.Release(l)
				}
			}})
	}
	b.ResetTimer()
	m, err := c.Run(ws)
	if err != nil {
		b.Fatal(err)
	}
	ops := float64(nodes * per)
	b.ReportMetric(ops/m.Wall.Seconds(), "updates/sec")
}

// BenchmarkLiveLockKernel is this layer's row for the lock-inproc
// workload, shaped like it (lockKernel). One op is one counter update.
func BenchmarkLiveLockKernel(b *testing.B) {
	turns := (b.N + lockWorkers*lockReps - 1) / (lockWorkers * lockReps)
	c, counter, ws := lockKernel(turns, nil)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := c.Run(ws); err != nil {
		b.Fatal(err)
	}
	if got, want := c.ObjectData(counter)[0], uint64(turns*lockWorkers*lockReps); got != want {
		b.Fatalf("counter = %d, want %d", got, want)
	}
}

// The lock kernel's shape: worker nodes and counter updates per turn.
const lockWorkers, lockReps = 3, 8

// lockKernel sets up the paper's §5.2 kernel as the lock-inproc workload
// runs it: 4 nodes over ChanLoop, node 0 hosts the counter and both lock
// managers, workers on nodes 1–3 each take lock0 for a turn of 8 counter
// updates, each inside its own lock1 interval. onTurn, if set, is called
// by every worker before each of its turns, outside the DSM.
func lockKernel(turns int, onTurn func(node memory.NodeID, turn int)) (*Cluster, memory.ObjectID, []proto.Worker) {
	c := New(paperConfig(1 + lockWorkers))
	counter := c.AddObject(1, 0)
	lock0, lock1 := c.AddLock(0), c.AddLock(0)
	var ws []proto.Worker
	for i := 1; i <= lockWorkers; i++ {
		ws = append(ws, proto.Worker{Node: memory.NodeID(i), Name: fmt.Sprintf("w%d", i),
			Fn: func(th proto.Thread) {
				for k := 0; k < turns; k++ {
					if onTurn != nil {
						onTurn(th.Node(), k)
					}
					th.Acquire(lock0)
					for j := 0; j < lockReps; j++ {
						th.Acquire(lock1)
						th.Write(counter, 0, th.Read(counter, 0)+1)
						th.Release(lock1)
					}
					th.Release(lock0)
				}
			}})
	}
	return c, counter, ws
}

// BenchmarkLiveViewSweep is the view path of a SOR phase once migration
// has settled: one thread sweeps 64 rows of 256 words (2 KB, SOR's row)
// homed at its own node, taking two ReadViews (the neighbours) and one
// WriteView per row, and ends every sweep at a barrier, where its write
// views expire. One op is one row.
func BenchmarkLiveViewSweep(b *testing.B) { viewSweep(b, nil) }

// BenchmarkLiveViewSweepSink is the same sweep with the hot-object sketch
// subscribed, as dsmnode and the benchmark wire a member: every row then
// also delivers a trapped HomeRead and HomeWrite to the sketch.
func BenchmarkLiveViewSweepSink(b *testing.B) { viewSweep(b, telemetry.NewSink(0)) }

func viewSweep(b *testing.B, sub flight.Subscriber) {
	const rows, words = 64, 256
	c := New(paperConfig(1))
	c.Subscribe(sub)
	ids := make([]memory.ObjectID, rows)
	for i := range ids {
		ids[i] = c.AddObject(words, 0)
	}
	bar := c.AddBarrier(0, 1)
	sweeps := (b.N + rows - 1) / rows
	ws := []proto.Worker{{Node: 0, Name: "w0", Fn: func(th proto.Thread) {
		for s := 0; s < sweeps; s++ {
			for i, obj := range ids {
				up := th.ReadView(ids[(i+rows-1)%rows])
				down := th.ReadView(ids[(i+1)%rows])
				row := th.WriteView(obj)
				row[1] = up[1] + down[1] + 1
			}
			th.Barrier(bar)
		}
	}}}
	b.ResetTimer()
	if _, err := c.Run(ws); err != nil {
		b.Fatal(err)
	}
}
