package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/telemetry"
)

// TestTelemetryFiledUnderSender: node 0 lists each shipped snapshot under
// the link it arrived on, whatever node id its payload claims — a member
// that claims another's id must not put a second series with that
// member's node label on /metrics — and drops a payload it cannot decode.
func TestTelemetryFiledUnderSender(t *testing.T) {
	m := &Member{reg: telemetry.NewRegistry(0, "")}
	for _, ship := range []struct {
		from   memory.NodeID
		claims int
	}{{1, 1}, {2, 1}, {3, 0}, {2, 2}} {
		buf, err := telemetry.EncodeSnapshot(telemetry.Snapshot{Node: ship.claims, Common: fmt.Sprintf("from=%d,claims=%d", ship.from, ship.claims)})
		if err != nil {
			t.Fatal(err)
		}
		m.handleTelemetry(ship.from, buf)
	}
	m.handleTelemetry(1, []byte("not a snapshot"))
	var got []string
	for _, s := range m.TelemetrySnapshots() {
		got = append(got, fmt.Sprintf("%d:%s", s.Node, s.Common))
	}
	// Node 2's second snapshot replaces its first.
	if want := "0: 1:from=1,claims=1 2:from=2,claims=2 3:from=3,claims=0"; strings.Join(got, " ") != want {
		t.Errorf("cluster view %q, want %q", strings.Join(got, " "), want)
	}
}
