// Quickstart: carve one simulated NVMe SSD between two tenants with
// io.max and watch the bandwidth split.
//
//	go run ./examples/quickstart
//
// It assembles a testbed cluster (device + CPU + cgroup tree wired for
// the io.max knob), creates two tenant cgroups with different
// bandwidth caps, runs two batch workloads, and prints what each
// tenant actually received.
package main

import (
	"fmt"
	"log"

	"isolbench"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

func main() {
	cluster, err := isolbench.NewFleet(isolbench.Options{
		Knob: isolbench.KnobIOMax,
		Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two tenants: "gold" may read 2 GiB/s, "bronze" 0.5 GiB/s.
	gold, err := cluster.NewGroup("gold")
	if err != nil {
		log.Fatal(err)
	}
	bronze, err := cluster.NewGroup("bronze")
	if err != nil {
		log.Fatal(err)
	}
	if err := gold.SetFile("io.max", "rbps=2147483648"); err != nil {
		log.Fatal(err)
	}
	if err := bronze.SetFile("io.max", "rbps=536870912"); err != nil {
		log.Fatal(err)
	}

	// One throughput-hungry app per tenant (4 KiB random reads,
	// QD256), each pinned to its own core.
	goldSpec := workload.BatchApp("gold-app", gold)
	goldSpec.Core = 0
	goldApp, err := cluster.AddApp(goldSpec, 0)
	if err != nil {
		log.Fatal(err)
	}
	bronzeSpec := workload.BatchApp("bronze-app", bronze)
	bronzeSpec.Core = 1
	bronzeApp, err := cluster.AddApp(bronzeSpec, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Warm up 200 ms, measure 2 s of virtual time.
	cluster.RunPhase(200*sim.Millisecond, 2*sim.Second)
	res := cluster.Result()

	fmt.Println("tenant    cap        achieved     P99 latency")
	for _, app := range []*workload.App{goldApp, bronzeApp} {
		st := app.Stats()
		bw := float64(st.ReadBytes) / res.Span.Seconds()
		cap := "2.0 GiB/s"
		if st.Name == "bronze-app" {
			cap = "0.5 GiB/s"
		}
		fmt.Printf("%-9s %-10s %6.2f GiB/s %9.1f us\n",
			st.Name, cap, bw/(1<<30), float64(st.P99Ns)/1e3)
	}
	fmt.Printf("\naggregate: %.2f GiB/s over %v of virtual time (%d IOs)\n",
		res.AggregateBW/(1<<30), res.Span, res.IOs)
}
