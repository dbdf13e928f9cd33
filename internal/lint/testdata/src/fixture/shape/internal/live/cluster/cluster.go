// Package cluster stands in for the multi-process member.
package cluster

type ctlKind byte

const (
	ctlStart ctlKind = iota + 1
	ctlPoll
	ctlReport
	ctlVerdict
	ctlBye
	ctlFail
	ctlPing // want `six control kinds: const ctlKind.\* declared 7 times in internal/live/cluster/cluster.go, want 6`
)

// Member is one process of the cluster.
type Member struct{}

func (m *Member) recv() ctlKind                    { return ctlStart }
func (m *Member) broadcast(kind ctlKind, body any) {}

// round is the one gather and broadcast.
func (m *Member) round(kind ctlKind) {
	if m.recv() != kind {
		m.broadcast(ctlFail, nil)
		return
	}
	m.broadcast(kind, nil)
}

func (m *Member) awaitReply() ctlKind { return m.recv() }

// poll gathers outside round.
func (m *Member) poll() ctlKind {
	return m.recv() // want `node 0 gathers and broadcasts only in round: use of cluster.Member.recv 3 times`
}

// InboxLen is the benchmark's gauge of the member's inbox.
func (m *Member) InboxLen() int { return 0 }

// backlog reads the gauge outside the benchmark.
func (m *Member) backlog() int {
	return m.InboxLen() // want `InboxLen is the benchmark's link gauge: use of cluster.Member.InboxLen`
}

// Join starts a member.
func Join() *Member { return &Member{} }

func repair(m *Member) {} // want `a member owns one node: repair declared`

// rejoin is a second caller of Join.
func rejoin() *Member { return Join() } // want `Join has one caller: use of cluster.Join outside cmd/dsmnode/main.go`
