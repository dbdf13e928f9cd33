package proto

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"repro/internal/locator"
	"repro/internal/memory"
)

// healthyReports is the end of an uneventful run on three nodes, written
// by hand as it would arrive over the wire: object 0 (two words) homed
// and managed on node 0, object 1 on node 1, node 2 homes nothing, every
// hint still the initial home and no forwarding pointer anywhere.
func healthyReports() (*Shared, []NodeReport) {
	s := &Shared{
		Nodes: 3, Locator: locator.ForwardingPointer,
		ObjWords: []int{2, 2}, ObjHome0: []memory.NodeID{0, 1},
	}
	const none = memory.NoNode
	reports := make([]NodeReport, 3)
	for id := range reports {
		reports[id] = NodeReport{
			Hints:    []memory.NodeID{0, 1},
			Fwds:     []memory.NodeID{none, none},
			MgrHomes: []memory.NodeID{none, none},
		}
	}
	reports[0].HomeObjs, reports[0].HomeData = []memory.ObjectID{0}, [][]uint64{{10, 11}}
	reports[0].MgrHomes[0] = 0
	reports[1].HomeObjs, reports[1].HomeData = []memory.ObjectID{1}, [][]uint64{{20, 21}}
	reports[1].MgrHomes[1] = 1
	return s, reports
}

// TestAssembleGuardsPeerSuppliedReports: a report reaches node 0 over a
// socket, so Assemble must turn every way it can fail to fit the layout
// into an error of the right class before anything indexes by it. The
// in-process corruption table (internal/gos TestCheckInvariantsViolations)
// cannot build these shapes; here they are written out directly.
func TestAssembleGuardsPeerSuppliedReports(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *Shared, reports []NodeReport) []NodeReport
		want   error
		// noState: the reports cannot be indexed at all, so no end state
		// comes back with the error.
		noState bool
	}{
		{name: "healthy reports assemble"},
		{
			name: "a report short of the cluster",
			mutate: func(_ *Shared, r []NodeReport) []NodeReport {
				return r[:2]
			},
			want: ErrBadReport, noState: true,
		},
		{
			name: "locator table shorter than the object count",
			mutate: func(_ *Shared, r []NodeReport) []NodeReport {
				r[2].Hints = r[2].Hints[:1]
				return r
			},
			want: ErrBadReport, noState: true,
		},
		{
			name: "forwarding table shorter than the object count",
			mutate: func(_ *Shared, r []NodeReport) []NodeReport {
				r[0].Fwds = nil
				return r
			},
			want: ErrBadReport, noState: true,
		},
		{
			name: "manager table longer than the object count",
			mutate: func(_ *Shared, r []NodeReport) []NodeReport {
				r[1].MgrHomes = append(r[1].MgrHomes, 0)
				return r
			},
			want: ErrBadReport, noState: true,
		},
		{
			name: "more home claims than home copies",
			mutate: func(_ *Shared, r []NodeReport) []NodeReport {
				r[0].HomeData = nil
				return r
			},
			want: ErrBadReport, noState: true,
		},
		{
			name: "claim for an object nobody declared",
			mutate: func(_ *Shared, r []NodeReport) []NodeReport {
				r[2].HomeObjs, r[2].HomeData = []memory.ObjectID{7}, [][]uint64{{0, 0}}
				return r
			},
			want: ErrBadReport, noState: true,
		},
		{
			name: "two members claim one home",
			mutate: func(_ *Shared, r []NodeReport) []NodeReport {
				r[2].HomeObjs, r[2].HomeData = []memory.ObjectID{0}, [][]uint64{{10, 11}}
				return r
			},
			want: ErrHomeCount,
		},
		{
			name: "nobody claims an object",
			mutate: func(_ *Shared, r []NodeReport) []NodeReport {
				r[1].HomeObjs, r[1].HomeData = nil, nil
				return r
			},
			want: ErrHomeCount,
		},
		{
			name: "home copy of the wrong size",
			mutate: func(_ *Shared, r []NodeReport) []NodeReport {
				r[0].HomeData[0] = []uint64{10}
				return r
			},
			want: ErrBadReport, noState: true,
		},
		{
			name: "hint naming a node outside the cluster",
			mutate: func(_ *Shared, r []NodeReport) []NodeReport {
				r[2].Hints[0] = 9
				return r
			},
			want: ErrBadReport,
		},
		{
			name: "forwarding pointer naming a node outside the cluster",
			mutate: func(_ *Shared, r []NodeReport) []NodeReport {
				r[2].Hints[0], r[1].Fwds[0] = 1, -3
				return r
			},
			want: ErrBadReport,
		},
		{
			name: "violation class no build of the protocol defines",
			mutate: func(_ *Shared, r []NodeReport) []NodeReport {
				r[1].Class = uint8(len(classes))
				return r
			},
			want: ErrBadReport, noState: true,
		},
		{
			name: "manager table naming the wrong home",
			mutate: func(s *Shared, r []NodeReport) []NodeReport {
				s.Locator = locator.Manager
				r[1].MgrHomes[1] = 2
				return r
			},
			want: ErrOwnerMismatch,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, reports := healthyReports()
			if tc.mutate != nil {
				reports = tc.mutate(s, reports)
			}
			end, err := Assemble(s, reports, true)
			if !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if (end == nil) != tc.noState {
				t.Fatalf("end state %v alongside %v", end, err)
			}
			if err == nil && (end.Homes[1] != 1 || end.ObjectData(1)[1] != 21) {
				t.Fatalf("assembled memory is wrong: %+v", end)
			}
		})
	}
}

// TestRemoteViolationKeepsItsSentinel: what a node finds wrong with
// itself crosses the wire as a class code, so the process that assembles
// still matches it with errors.Is — and Assemble(check=false), the
// cluster without -check, builds the memory regardless.
func TestRemoteViolationKeepsItsSentinel(t *testing.T) {
	for class := 1; class < len(classes); class++ {
		s, reports := healthyReports()
		reports[2].Class, reports[2].Detail = uint8(class), "object 1 on node 2"
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(reports[2]); err != nil {
			t.Fatal(err)
		}
		reports[2] = NodeReport{}
		if err := gob.NewDecoder(&buf).Decode(&reports[2]); err != nil {
			t.Fatal(err)
		}
		if _, err := Assemble(s, reports, true); !errors.Is(err, classes[class]) {
			t.Errorf("class %d arrived as %v, want %v", class, err, classes[class])
		}
		if end, err := Assemble(s, reports, false); err != nil || end.Digest() == 0 {
			t.Errorf("class %d without check: %v", class, err)
		}
	}
}

// TestMemberViewHoldsOnlyItsOwnCopies: a member's view answers Homes
// and Digest for everything and ObjectData for what it homes; asking it
// for a remote object is a caller's bug and panics naming the owner.
func TestMemberViewHoldsOnlyItsOwnCopies(t *testing.T) {
	s, reports := healthyReports()
	full, err := Assemble(s, reports, true)
	if err != nil {
		t.Fatal(err)
	}
	view := MemberView(full.Homes, full.Digest(), reports[1])
	if view.Digest() != full.Digest() || view.Homes[0] != 0 || view.ObjectData(1)[0] != 20 {
		t.Fatalf("member view disagrees with the assembled state: %+v", view)
	}
	defer func() {
		msg, _ := recover().(string)
		if !bytes.Contains([]byte(msg), []byte("homed on node 0")) {
			t.Fatalf("ObjectData of a remote object: recovered %q, want a panic naming node 0", msg)
		}
	}()
	view.ObjectData(0)
}
