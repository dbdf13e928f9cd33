// Patterns example: record a protocol-event trace from a mixed workload,
// classify every shared object's write pattern, and show how the
// classification predicts which objects the adaptive protocol migrates —
// the paper's core insight ("the access history can be used to predict
// the future behavior", §4) made visible through the public API. Run:
//
//	go run ./examples/patterns
package main

import (
	"fmt"
	"log"

	dsm "repro"
)

func main() {
	tr := dsm.NewTrace()
	if _, _, _, err := run(dsm.Config{Nodes: 4, Policy: "NoHM", Trace: tr}); err != nil {
		log.Fatal(err)
	}
	profiles := dsm.AnalyzeTrace(tr)
	fmt.Println("access-pattern classification (traced under NoHM):")
	fmt.Print(dsm.TraceReport(profiles))

	// Now run the same program under the adaptive protocol and see where
	// the homes end up.
	c, objs, m, err := run(dsm.Config{Nodes: 4, Policy: "AT"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nunder the adaptive protocol (AT):")
	fmt.Printf("  lasting  (single writer, node 1): home -> node %d\n", c.HomeOf(objs[0]))
	fmt.Printf("  rotating (writer changes rounds): home -> node %d\n", c.HomeOf(objs[1]))
	fmt.Printf("  shared   (multiple writers):      home -> node %d\n", c.HomeOf(objs[2]))
	fmt.Printf("  migrations: %d, redirection hops: %d\n", m.Migrations, m.RedirectHops)
	fmt.Println("\nthe lasting single-writer object moved to its writer; the others stayed put.")
}

// run executes the mixed workload on a cluster built from cfg and returns
// the cluster with its three objects.
func run(cfg dsm.Config) (*dsm.Cluster, [3]dsm.ObjectID, dsm.Metrics, error) {
	c := dsm.New(cfg)

	// Three objects with three personalities:
	//   lasting  — node 1 writes it every interval,
	//   rotating — a different node writes it each interval,
	//   shared   — everyone increments it under a lock.
	lasting := c.NewObject("lasting", 4, 0)
	rotating := c.NewObject("rotating", 4, 0)
	shared := c.NewObject("shared", 1, 0)
	lock := c.NewLock(0)
	bar := c.NewBarrier(0, 4)

	m, err := c.Run(4, func(t dsm.Thread) {
		for round := 0; round < 12; round++ {
			if t.ID() == 1 {
				t.Write(lasting, 0, uint64(round+1))
			}
			if t.ID() == round%4 {
				t.Write(rotating, 0, uint64(100+round))
			}
			t.Acquire(lock)
			t.Write(shared, 0, t.Read(shared, 0)+1)
			t.Release(lock)
			t.Barrier(bar)
		}
	})
	return c, [3]dsm.ObjectID{lasting, rotating, shared}, m, err
}
