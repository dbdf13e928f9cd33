package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/live"
)

// stub gives every workload of g the run fake(w, o): the sweep then runs
// its grid, its bound and its fold with no engine behind them.
func stub(g verdictGrid, fake func(w int, o apps.Options) (apps.Result, error)) verdictGrid {
	for w := range g.ws {
		g.ws[w].run = func(o apps.Options) (apps.Result, error) { return fake(w, o) }
	}
	return g
}

// TestVerdictFold holds the fold chaos and the scenario sweeps share to
// its rules on stub runs: only the faulted variant may end in
// live.ErrAborted, and a completed faulted run is compared with its sim
// reference by sameResults, which names both cells.
func TestVerdictFold(t *testing.T) {
	const n = 3
	aborted := fmt.Errorf("scenario seed 9: %w", live.ErrAborted)
	parity := func(w int, _ apps.Options) (apps.Result, error) { return apps.Result{Digest: uint64(0xA0 + w)}, nil }
	for _, tc := range []struct {
		name               string
		g                  verdictGrid
		fake               func(w int, o apps.Options) (apps.Result, error)
		completed, aborted int
		want               []string // substrings of the error and failure lines; nil: must pass
	}{
		{name: "chaos with parity on every seed", g: chaosGrid(1, n), fake: parity, completed: n},
		{name: "a faulted run's clean abort counts as aborted", g: chaosGrid(1, n),
			fake: func(w int, o apps.Options) (apps.Result, error) {
				if o.Engine == "live" && w > 0 {
					return apps.Result{}, aborted
				}
				return parity(w, o)
			}, completed: 1, aborted: n - 1},
		{name: "the sim reference may not abort", g: chaosGrid(1, n),
			fake: func(w int, o apps.Options) (apps.Result, error) {
				if o.Engine == "sim" && w == 2 {
					return apps.Result{}, aborted
				}
				return parity(w, o)
			}, completed: n - 1, want: []string{"chaos sweep: 1 failure(s)", "chaos seed=3 ", ": sim reference: scenario seed 9"}},
		{name: "a completed faulted run with another digest fails, naming both cells", g: chaosGrid(1, n),
			fake: func(w int, o apps.Options) (apps.Result, error) {
				r, err := parity(w, o)
				if o.Engine == "live" && w == 1 {
					r.Digest = 0xBAD
				}
				return r, err
			}, completed: n, want: []string{"same input, different final memory: chaos seed=2 ", "digest 0xbad != chaos seed=2 ", ": sim reference digest 0xa1"}},
		{name: "the same abort in a cross-engine cell is a failure", g: scenarioGrid([]string{"sim", "live"}, 1, n),
			fake: func(w int, o apps.Options) (apps.Result, error) {
				if o.Engine == "live" && o.Policy == "AT" && w == 0 {
					return apps.Result{}, aborted
				}
				return parity(w, o)
			}, completed: n - 1, want: []string{"cross-engine sweep: 1 failure(s)", "cross seed=1 ", " AT/manager/live: scenario seed 9"}},
	} {
		st, err := stub(tc.g, tc.fake).run(2, nil)
		if st.Scenarios != n || st.Completed != tc.completed || st.Aborted != tc.aborted {
			t.Errorf("%s: %d seeds, %d completed, %d aborted; want %d, %d, %d",
				tc.name, st.Scenarios, st.Completed, st.Aborted, n, tc.completed, tc.aborted)
		}
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: not detected", tc.name)
			continue
		}
		got := err.Error() + "\n" + strings.Join(st.Failures, "\n")
		for _, w := range tc.want {
			if !strings.Contains(got, w) {
				t.Errorf("%s: %q missing from\n%s", tc.name, w, got)
			}
		}
	}
}

// TestBoundedReportsHang: a run that outlives its bound is reported as a
// hang while it goes on; one that ends in time is its own outcome, a
// panic included.
func TestBoundedReportsHang(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	if _, err := bounded(10*time.Millisecond, func() (apps.Result, error) {
		<-release
		return apps.Result{}, nil
	}); err == nil || !strings.Contains(err.Error(), "HANG") {
		t.Errorf("a run past its bound returned %v, want a HANG", err)
	}
	if r, err := bounded(time.Minute, func() (apps.Result, error) { return apps.Result{Digest: 7}, nil }); err != nil || r.Digest != 7 {
		t.Errorf("a run in time returned %+v, %v", r, err)
	}
	if _, err := bounded(time.Minute, func() (apps.Result, error) { panic("kaboom") }); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("a panicking run returned %v, want its panic", err)
	}
}
