package transport_test

import (
	"testing"

	"repro/internal/live/transport"
	"repro/internal/live/transport/transporttest"
)

// chanLoopMesh adapts the in-process backend to the conformance suite:
// every node's view is the same object.
type chanLoopMesh struct{ cl *transport.ChanLoop }

func (m chanLoopMesh) Node(int) transport.Pusher { return m.cl }
func (m chanLoopMesh) Close()                    { m.cl.Close() }

// TestChanLoopConformance runs the exported transport conformance suite
// against the chanloop backend (the TCP backend runs the same suite in
// its own package).
func TestChanLoopConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T, n int) transporttest.Mesh {
		return chanLoopMesh{cl: transport.NewChanLoop(n)}
	})
}
