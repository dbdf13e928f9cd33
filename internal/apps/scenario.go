package apps

import (
	"fmt"
	"sync"

	dsm "repro"

	"repro/internal/scenario"
)

// RunScenario runs a generated program (internal/scenario) as an
// application: its objects, locks and barrier are declared as the program
// lays them out, its workers run, and the final memory must equal the
// pure-Go model's. The program fixes the cluster size and the thread
// count, so o.Nodes follows p.Nodes (as apps.Run grows the synthetic
// benchmark's cluster) and o.Threads is not consulted; a multi-process
// cluster cannot be resized from here, and one of another size is an
// error on every member. A checked read that disagrees with the model
// fails the run on the process whose thread saw it.
func RunScenario(p *scenario.Program, o Options) (Result, error) {
	if o.LocalNode != nil && o.Nodes != p.Nodes {
		return Result{}, fmt.Errorf("scenario: seed %d is a %d-node program, this cluster has %d members",
			p.Seed, p.Nodes, o.Nodes)
	}
	o.Nodes = p.Nodes
	c, rec, err := o.cluster()
	if err != nil {
		return Result{}, err
	}
	objs := make([]dsm.ObjectID, len(p.Words))
	for i, words := range p.Words {
		objs[i] = c.NewObject(fmt.Sprintf("obj%d", i), words, dsm.NodeID(p.Homes[i]))
		data := p.Initial()[i]
		c.Init(objs[i], func(w []uint64) { copy(w, data) })
	}
	locks := make([]dsm.Lock, p.Locks)
	for l := range locks {
		locks[l] = c.NewLock(dsm.NodeID(l % p.Nodes))
	}
	bar := c.NewBarrier(0, p.Threads)

	var misread error // the first one any thread reported
	var first sync.Once
	m, err := c.RunWorkers(p.Workers(objs, locks, bar, func(err error) {
		first.Do(func() { misread = err })
	}))
	if err == nil && misread != nil {
		err = fmt.Errorf("a checked read disagrees with the model: %w", misread)
	}
	if err != nil {
		return Result{}, fmt.Errorf("scenario seed %d (%s): %w", p.Seed, p.Family, err)
	}
	name := fmt.Sprintf("Scenario(seed=%d,%s,p=%d,threads=%d,%s)", p.Seed, p.Family, p.Nodes, p.Threads, c.PolicyName())
	return finish(c, o, rec, Result{App: name, Metrics: m}, func() error {
		for i, want := range p.Expected() {
			got := c.Data(objs[i])
			for w := range want {
				if got[w] != want[w] {
					return fmt.Errorf("scenario seed %d (%s): final obj %d word %d = %#x, want %#x",
						p.Seed, p.Family, i, w, got[w], want[w])
				}
			}
		}
		return nil
	})
}
