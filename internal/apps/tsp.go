package apps

import (
	"fmt"

	dsm "repro"
)

// TSP solves the traveling salesman problem with parallel branch and
// bound (§5.1 application 4; the paper uses 12 cities). Tours starting
// with each (first, second) city pair form the static work partition;
// threads prune against a shared best-cost object updated under a lock.
// The best-cost object is written by many nodes in no particular order —
// a multiple-writer-ish pattern where "home migration makes little
// difference" (§1).

// tspDist builds the deterministic symmetric distance matrix.
func tspDist(cities int, seed uint64) [][]int64 {
	r := newRng(mixSeed(uint64(cities)*7919+3, seed))
	d := make([][]int64, cities)
	for i := range d {
		d[i] = make([]int64, cities)
	}
	for i := 0; i < cities; i++ {
		for j := i + 1; j < cities; j++ {
			w := int64(1 + r.Intn(99))
			d[i][j], d[j][i] = w, w
		}
	}
	return d
}

// tspGreedy returns the nearest-neighbour tour cost, the initial bound.
func tspGreedy(d [][]int64) int64 {
	n := len(d)
	visited := make([]bool, n)
	visited[0] = true
	cur, cost := 0, int64(0)
	for k := 1; k < n; k++ {
		best, bd := -1, int64(1<<62)
		for j := 0; j < n; j++ {
			if !visited[j] && d[cur][j] < bd {
				best, bd = j, d[cur][j]
			}
		}
		visited[best] = true
		cost += bd
		cur = best
	}
	return cost + d[cur][0]
}

// tspBranch explores all tours extending path (path[:depth]) with cost
// soFar, pruning against *best. expansions counts visited nodes.
func tspBranch(d [][]int64, path []int, used []bool, depth int, soFar int64, best *int64, expansions *int64) {
	n := len(d)
	*expansions++
	if soFar >= *best {
		return
	}
	if depth == n {
		total := soFar + d[path[n-1]][path[0]]
		if total < *best {
			*best = total
		}
		return
	}
	last := path[depth-1]
	for next := 1; next < n; next++ {
		if used[next] {
			continue
		}
		used[next] = true
		path[depth] = next
		tspBranch(d, path, used, depth+1, soFar+d[last][next], best, expansions)
		used[next] = false
	}
}

// tspSequential returns the optimal tour cost.
func tspSequential(d [][]int64) int64 {
	n := len(d)
	best := tspGreedy(d)
	path := make([]int, n)
	used := make([]bool, n)
	used[0] = true
	var exp int64
	tspBranch(d, path, used, 1, 0, &best, &exp)
	return best
}

// tspCheckEvery is how many expansions a worker performs between
// refreshing the shared bound (each refresh is a lock acquire/release —
// a synchronization interval).
const tspCheckEvery = 2000

// RunTSP runs the parallel branch and bound and verifies optimality.
func RunTSP(cities int, o Options) (Result, error) {
	if cities < 4 || cities > 14 {
		return Result{}, fmt.Errorf("tsp: cities must be in [4,14], got %d", cities)
	}
	p := o.threads()
	c, chk, err := o.cluster()
	if err != nil {
		return Result{}, err
	}
	d := tspDist(cities, o.Seed)
	greedy := tspGreedy(d)
	bestObj := c.NewObject("best", 1, 0) // created at the start node
	c.Init(bestObj, func(w []uint64) { w[0] = uint64(greedy) })
	lock := c.NewLock(0)

	// Work units: all (second, third) city prefixes, dealt round-robin.
	type unit struct{ second, third int }
	var units []unit
	for s := 1; s < cities; s++ {
		for t3 := 1; t3 < cities; t3++ {
			if t3 != s {
				units = append(units, unit{s, t3})
			}
		}
	}

	m, err := c.Run(p, func(t dsm.Thread) {
		me := t.ID()
		localBest := greedy
		var sinceCheck int64
		sync := func(force bool) {
			if !force && sinceCheck < tspCheckEvery {
				return
			}
			t.Compute(dsm.Time(sinceCheck) * tspNodeCost)
			sinceCheck = 0
			t.Acquire(lock)
			shared := int64(t.Read(bestObj, 0))
			if localBest < shared {
				t.Write(bestObj, 0, uint64(localBest))
			} else {
				localBest = shared
			}
			t.Release(lock)
		}
		path := make([]int, cities)
		used := make([]bool, cities)
		path[0] = 0
		used[0] = true
		for ui := me; ui < len(units); ui += p {
			u := units[ui]
			path[1], path[2] = u.second, u.third
			used[u.second], used[u.third] = true, true
			soFar := d[0][u.second] + d[u.second][u.third]
			var exp int64
			// Bound check before and after each unit keeps the shared
			// bound fresh without per-node synchronization.
			sync(false)
			if soFar < localBest {
				tspBranch(d, path, used, 3, soFar, &localBest, &exp)
			}
			sinceCheck += exp
			used[u.second], used[u.third] = false, false
			sync(false)
		}
		sync(true) // publish the final bound
	})
	if err != nil {
		return Result{}, fmt.Errorf("tsp: %w", err)
	}

	res := Result{App: fmt.Sprintf("TSP(cities=%d,p=%d,%s)", cities, p, c.PolicyName()), Metrics: m}
	return finish(c, o, chk, res, func() error {
		if got, want := int64(c.Data(bestObj)[0]), tspSequential(d); got != want {
			return fmt.Errorf("tsp: best = %d, want optimal %d", got, want)
		}
		return nil
	})
}
