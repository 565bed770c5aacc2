// Noisy neighbor: a latency-critical app (a cache, say) shares an SSD
// with four best-effort batch jobs. How bad does its P99 get under
// each cgroups I/O control knob, and what does protecting it cost in
// total utilization?
//
//	go run ./examples/noisyneighbor
//
// This is the paper's central multi-tenancy question (§VI-B) distilled
// into one table: each knob is configured the way a practitioner would
// protect the LC app, then the LC P99 and aggregate bandwidth are
// compared against the unprotected baseline.
package main

import (
	"fmt"
	"log"

	"isolbench"
	"isolbench/internal/cgroup"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// protect applies each knob's natural protection setting for the LC
// tenant.
func protect(k isolbench.Knob, lc, be *cgroup.Group, root *cgroup.Group) error {
	switch k {
	case isolbench.KnobMQDeadline:
		if err := lc.SetFile("io.prio.class", "rt"); err != nil {
			return err
		}
		return be.SetFile("io.prio.class", "be")
	case isolbench.KnobBFQ:
		if err := lc.SetFile("io.bfq.weight", "1000"); err != nil {
			return err
		}
		return be.SetFile("io.bfq.weight", "10")
	case isolbench.KnobIOMax:
		return be.SetFile("io.max", "rbps=1073741824") // cap the neighbors at 1 GiB/s
	case isolbench.KnobIOLatency:
		return lc.SetFile("io.latency", "target=150")
	case isolbench.KnobIOCost:
		if err := lc.SetFile("io.weight", "10000"); err != nil {
			return err
		}
		return be.SetFile("io.weight", "100")
	}
	return nil
}

func main() {
	fmt.Println("knob          LC P99       LC mean      aggregate    note")
	for _, k := range isolbench.AllKnobs() {
		cluster, err := isolbench.NewFleet(isolbench.Options{Knob: k, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		lcG, err := cluster.NewGroup("cache")
		if err != nil {
			log.Fatal(err)
		}
		beG, err := cluster.NewGroup("batch")
		if err != nil {
			log.Fatal(err)
		}
		if err := protect(k, lcG, beG, cluster.Tree.Root()); err != nil {
			log.Fatal(err)
		}

		lcApp, err := cluster.AddApp(workload.LCApp("cache", lcG), 0)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			spec := workload.BEApp(fmt.Sprintf("batch%d", i), beG)
			spec.Core = 1 + i
			if _, err := cluster.AddApp(spec, 0); err != nil {
				log.Fatal(err)
			}
		}

		// io.latency needs several 500 ms windows to converge.
		warmup := 500 * sim.Millisecond
		if k == isolbench.KnobIOLatency {
			warmup = 6 * sim.Second
		}
		cluster.RunPhase(warmup, 2*sim.Second)
		res := cluster.Result()
		st := lcApp.Stats()

		note := ""
		switch k {
		case isolbench.KnobNone:
			note = "unprotected baseline"
		case isolbench.KnobIOCost:
			note = "weighted + QoS target"
		case isolbench.KnobIOMax:
			note = "static cap, not work-conserving"
		}
		fmt.Printf("%-13s %8.1f us  %8.1f us  %6.2f GiB/s  %s\n",
			k, float64(st.P99Ns)/1e3, st.MeanLatNs/1e3, res.AggregateBW/(1<<30), note)
	}
	fmt.Println("\nLC app: 4 KiB random reads at QD1. Neighbors: 4x 4 KiB random reads at QD256.")
}
