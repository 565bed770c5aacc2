// Weighted tenants: share one SSD between gold/silver/bronze service
// classes with io.cost + io.weight (the knob the paper finds most
// capable) and verify the split follows the weights — including when a
// tenant goes idle and its share should be redistributed (work
// conservation via donation).
//
//	go run ./examples/weightedtenants
package main

import (
	"fmt"
	"log"

	"isolbench"
	"isolbench/internal/metrics"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

func main() {
	fleet, err := isolbench.NewFleet(isolbench.Options{
		Knob: isolbench.KnobIOCost,
		Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}

	weights := map[string]string{"gold": "800", "silver": "400", "bronze": "100"}
	apps := map[string]*workload.App{}
	for _, name := range []string{"gold", "silver", "bronze"} {
		g, err := fleet.NewGroup(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := g.SetFile("io.weight", weights[name]); err != nil {
			log.Fatal(err)
		}
		// Four workers per tenant so each can use its full share.
		for i := 0; i < 4; i++ {
			spec := workload.BatchApp(fmt.Sprintf("%s-%d", name, i), g)
			spec.Core = len(apps)*4 + i
			if name == "bronze" {
				// Bronze stops halfway: its share should flow to the others.
				spec.Stop = sim.Time(2 * sim.Second)
			}
			app, err := fleet.AddApp(spec, 0)
			if err != nil {
				log.Fatal(err)
			}
			if i == 0 {
				apps[name] = app
			}
		}
	}

	measure := func(from, to sim.Time, label string) {
		if err := fleet.RunTo(to); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n[%s] window %v .. %v\n", label, from, to)
		var bws []float64
		var ws []float64
		total := 0.0
		for _, name := range []string{"gold", "silver", "bronze"} {
			var bw float64
			for _, app := range fleet.Apps {
				st := app.Stats()
				if len(st.Name) >= len(name) && st.Name[:len(name)] == name {
					bw += app.Bandwidth().RateBetween(from, to)
				}
			}
			total += bw
			bws = append(bws, bw)
			var w float64
			fmt.Sscanf(weights[name], "%f", &w)
			ws = append(ws, w)
			fmt.Printf("  %-7s weight %-4s -> %6.2f GiB/s\n", name, weights[name], bw/(1<<30))
		}
		fmt.Printf("  aggregate %.2f GiB/s, weighted Jain index %.3f\n",
			total/(1<<30), metrics.WeightedJainIndex(bws, ws))
	}

	// Phase 1: all three tenants busy — shares should be 800:400:100.
	measure(sim.Time(500*sim.Millisecond), sim.Time(2*sim.Second), "all tenants busy")
	// Phase 2: bronze stopped — gold and silver absorb its share 2:1.
	measure(sim.Time(2500*sim.Millisecond), sim.Time(4*sim.Second), "bronze idle")
}
