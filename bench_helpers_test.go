package isolbench_test

import (
	"fmt"
	"testing"

	"isolbench/internal/core"
	"isolbench/internal/device"
	"isolbench/internal/host"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// hostCosts returns the default host cost model (helper so benchmarks
// can tweak batching).
func hostCosts() host.Costs { return host.DefaultCosts() }

// runSaturating drives the standard saturating workload (2 groups x 4
// batch-apps) for a short window and returns aggregate bandwidth.
func runSaturating(b *testing.B, cl *core.Fleet) float64 {
	b.Helper()
	for gi := 0; gi < 2; gi++ {
		g, err := cl.NewGroup(fmt.Sprintf("t%d", gi))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			spec := workload.BatchApp(fmt.Sprintf("t%d-a%d", gi, j), g)
			spec.Core = gi*4 + j
			if _, err := cl.AddApp(spec, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	cl.RunPhase(200*sim.Millisecond, 500*sim.Millisecond)
	return cl.Result().AggregateBW
}

// runMixedRW drives one read group and one write group (4 batch apps
// each) against a preconditioned device and returns aggregate
// bandwidth — the Fig. 6b interference workload.
func runMixedRW(b *testing.B, cl *core.Fleet) float64 {
	b.Helper()
	for gi := 0; gi < 2; gi++ {
		g, err := cl.NewGroup(fmt.Sprintf("rw%d", gi))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			spec := workload.BatchApp(fmt.Sprintf("rw%d-%d", gi, j), g)
			if gi == 1 {
				spec.Op = device.Write
			}
			spec.Core = gi*4 + j
			if _, err := cl.AddApp(spec, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	cl.RunPhase(300*sim.Millisecond, 700*sim.Millisecond)
	return cl.Result().AggregateBW
}

// runRateLimited drives three Fig. 2-style rate-limited apps (64 KiB
// random reads, QD8, 1.5 GiB/s cap each) in separate groups and
// returns aggregate bandwidth. The submission gaps make scheduler
// idling behaviour visible.
func runRateLimited(b *testing.B, cl *core.Fleet) float64 {
	b.Helper()
	for i := 0; i < 3; i++ {
		g, err := cl.NewGroup(fmt.Sprintf("rl%d", i))
		if err != nil {
			b.Fatal(err)
		}
		spec := workload.Spec{
			Name: fmt.Sprintf("rl%d", i), Group: g,
			Size: 64 << 10, QD: 8, RateLimit: 1.5 * (1 << 30), Core: i,
		}
		if _, err := cl.AddApp(spec, 0); err != nil {
			b.Fatal(err)
		}
	}
	cl.RunPhase(200*sim.Millisecond, 500*sim.Millisecond)
	return cl.Result().AggregateBW
}
