package gos

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/locator"
	"repro/internal/memory"
	"repro/internal/migration"
	"repro/internal/proto"
)

// invariantCluster runs a minimal two-node workload that leaves the
// richest post-run state to corrupt: node 0 homes the object, node 1
// keeps a clean cached copy (it wrote through a lock and flushed at the
// release, and no later acquire invalidated the copy).
func invariantCluster(t *testing.T, loc locator.Kind) (*Cluster, memory.ObjectID) {
	t.Helper()
	c := New(testConfig(2, migration.NoHM{}, loc))
	obj := c.AddObject(4, 0)
	l := c.AddLock(0)
	mustRun(t, c, []proto.Worker{{Node: 1, Name: "t1", Fn: func(th proto.Thread) {
		th.Acquire(l)
		th.Write(obj, 1, 99)
		th.Release(l)
	}}})
	if c.nodes[1].Cache[obj] == nil {
		t.Fatal("workload did not leave a cached copy on node 1")
	}
	return c, obj
}

// TestCheckInvariantsViolations constructs every violation class by
// corrupting a healthy post-run cluster, and asserts that
// CheckInvariants reports the specific sentinel error — not merely
// non-nil — so a refactor cannot silently merge or drop a class.
func TestCheckInvariantsViolations(t *testing.T) {
	cases := []struct {
		name    string
		locator locator.Kind
		mutate  func(c *Cluster, obj memory.ObjectID)
		want    error
	}{
		{
			name:   "healthy cluster has no violation",
			mutate: func(c *Cluster, obj memory.ObjectID) {},
		},
		{
			name:   "zero homes",
			mutate: func(c *Cluster, obj memory.ObjectID) { c.nodes[0].IsHome[obj] = false },
			want:   proto.ErrHomeCount,
		},
		{
			name: "two homes",
			mutate: func(c *Cluster, obj memory.ObjectID) {
				n1 := c.nodes[1]
				n1.IsHome[obj] = true
				n1.HomeSt[obj] = core.NewState(c.cfg.Params, 32)
			},
			want: proto.ErrHomeCount,
		},
		{
			name:   "home without migration state",
			mutate: func(c *Cluster, obj memory.ObjectID) { c.nodes[0].HomeSt[obj] = nil },
			want:   proto.ErrMissingState,
		},
		{
			name:   "home without data",
			mutate: func(c *Cluster, obj memory.ObjectID) { c.nodes[0].Cache[obj] = nil },
			want:   proto.ErrMissingData,
		},
		{
			name:   "dirty cached copy after quiesce",
			mutate: func(c *Cluster, obj memory.ObjectID) { c.nodes[1].Cache[obj].Dirty = true },
			want:   proto.ErrDirtyCopy,
		},
		{
			name: "twin leaked on a clean copy",
			mutate: func(c *Cluster, obj memory.ObjectID) {
				c.nodes[1].Cache[obj].Twin = make([]uint64, 4)
			},
			want: proto.ErrTwinLeak,
		},
		{
			name:   "write view open after the run",
			mutate: func(c *Cluster, obj memory.ObjectID) { c.nodes[0].PinView(0, obj) },
			want:   proto.ErrViewOpen,
		},
		{
			name: "copyset surviving on a non-home node",
			mutate: func(c *Cluster, obj memory.ObjectID) {
				c.nodes[1].Copyset[obj] = []memory.NodeID{0}
			},
			want: proto.ErrStaleCopyset,
		},
		{
			name: "copyset naming the home itself",
			mutate: func(c *Cluster, obj memory.ObjectID) {
				c.nodes[0].Copyset[obj] = []memory.NodeID{0}
			},
			want: proto.ErrStaleCopyset,
		},
		{
			name: "copyset naming a node outside the cluster",
			mutate: func(c *Cluster, obj memory.ObjectID) {
				c.nodes[0].Copyset[obj] = []memory.NodeID{7}
			},
			want: proto.ErrStaleCopyset,
		},
		{
			name: "migration state on a non-home node",
			mutate: func(c *Cluster, obj memory.ObjectID) {
				c.nodes[1].HomeSt[obj] = core.NewState(c.cfg.Params, 32)
			},
			want: proto.ErrOwnerMismatch,
		},
		{
			name:    "manager table pointing at the wrong home",
			locator: locator.Manager,
			mutate: func(c *Cluster, obj memory.ObjectID) {
				mgr := locator.ManagerOf(obj, c.cfg.Nodes)
				c.nodes[mgr].MgrHome[obj] = 1
			},
			want: proto.ErrOwnerMismatch,
		},
		{
			name: "forwarding cycle",
			mutate: func(c *Cluster, obj memory.ObjectID) {
				n1 := c.nodes[1]
				n1.Loc.Learn(obj, 1)
				n1.Loc.SetForward(obj, 1)
			},
			want: proto.ErrForwardCycle,
		},
		{
			name: "forwarding chain dead end",
			mutate: func(c *Cluster, obj memory.ObjectID) {
				n1 := c.nodes[1]
				n1.Loc.Learn(obj, 1) // believes itself, but holds no pointer
				n1.Loc.ClearForward(obj)
			},
			want: proto.ErrDeadEndChain,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, obj := invariantCluster(t, tc.locator)
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("pre-mutation violation: %v", err)
			}
			tc.mutate(c, obj)
			err := c.CheckInvariants()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("unexpected violation: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestDigestSensitivity: the final-memory fingerprint must react to any
// single-word change and be stable across calls.
func TestDigestSensitivity(t *testing.T) {
	c, obj := invariantCluster(t, locator.ForwardingPointer)
	d1 := c.Digest()
	if d1 != c.Digest() {
		t.Fatal("digest not stable")
	}
	c.nodes[0].Cache[obj].Data[3] ^= 1
	if c.Digest() == d1 {
		t.Fatal("digest ignored a one-bit change")
	}
}
