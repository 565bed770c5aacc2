package isolbench_test

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation, plus ablations of the design choices
// DESIGN.md calls out. Each benchmark runs an abbreviated version of
// the experiment per iteration and reports the headline quantities as
// custom metrics (GiB/s, P99-us, Jain, response-ms) so `go test
// -bench` regenerates the paper's rows.
//
// Full-resolution runs (the paper's exact sweeps) are produced by
// `go run ./cmd/isolbench -exp all`; these benchmarks keep iteration
// cost modest so the whole suite finishes in minutes.

import (
	"testing"

	"isolbench"
	"isolbench/internal/core"
	"isolbench/internal/device"
	"isolbench/internal/sim"
)

func gib(bytesPerSec float64) float64 { return bytesPerSec / (1 << 30) }

// BenchmarkFig2Timelines reproduces Fig. 2: three staggered
// rate-limited apps under each knob; reports each app's mean active
// bandwidth.
func BenchmarkFig2Timelines(b *testing.B) {
	for _, k := range isolbench.AllKnobs() {
		b.Run(k.String(), func(b *testing.B) {
			var a, bb, c float64
			for i := 0; i < b.N; i++ {
				series, err := isolbench.Illustrate(isolbench.IllustrateConfig{
					Knob: k, Weighted: true, TimeScale: 0.05, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				avg := func(s isolbench.TimelineSeries) float64 {
					var sum float64
					n := 0
					for _, p := range s.Points {
						if p.Rate > 0 {
							sum += p.Rate
							n++
						}
					}
					if n == 0 {
						return 0
					}
					return sum / float64(n)
				}
				a, bb, c = avg(series[0]), avg(series[1]), avg(series[2])
			}
			b.ReportMetric(gib(a), "A-GiB/s")
			b.ReportMetric(gib(bb), "B-GiB/s")
			b.ReportMetric(gib(c), "C-GiB/s")
		})
	}
}

// BenchmarkFig3LatencyScaling reproduces Fig. 3 (a-d): LC-app latency
// and CPU on one core at 1/16/256 apps.
func BenchmarkFig3LatencyScaling(b *testing.B) {
	for _, k := range isolbench.AllKnobs() {
		b.Run(k.String(), func(b *testing.B) {
			var pts []isolbench.LatencyScalingPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = isolbench.LatencyScaling(isolbench.LatencyScalingConfig{
					Knob:      k,
					AppCounts: []int{1, 16, 256},
					Measure:   500 * sim.Millisecond,
					Seed:      uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pts[0].P99.Micros(), "p99us@1")
			b.ReportMetric(pts[1].P99.Micros(), "p99us@16")
			b.ReportMetric(pts[2].P99.Micros(), "p99us@256")
			b.ReportMetric(pts[1].CPUUtil*100, "cpu%@16")
			b.ReportMetric(pts[1].CtxPerIO, "cs/io")
			b.ReportMetric(pts[1].CyclesPerIO, "cycles/io")
		})
	}
}

// BenchmarkFig4BandwidthScaling reproduces Fig. 4 (a-d): batch-app
// bandwidth scalability on 1 and 7 SSDs with 10 cores.
func BenchmarkFig4BandwidthScaling(b *testing.B) {
	for _, devs := range []int{1, 7} {
		name := "1ssd"
		if devs == 7 {
			name = "7ssd"
		}
		for _, k := range isolbench.AllKnobs() {
			b.Run(name+"/"+k.String(), func(b *testing.B) {
				var pts []isolbench.BandwidthScalingPoint
				for i := 0; i < b.N; i++ {
					var err error
					pts, err = isolbench.BandwidthScaling(isolbench.BandwidthScalingConfig{
						Knob:      k,
						AppCounts: []int{17},
						Devices:   devs,
						Measure:   500 * sim.Millisecond,
						Seed:      uint64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(gib(pts[0].AggregateBW), "GiB/s@17apps")
				b.ReportMetric(pts[0].CPUUtil*100, "cpu%")
			})
		}
	}
}

// BenchmarkFig5Fairness reproduces Fig. 5: uniform and weighted
// fairness at 4 and 16 groups.
func BenchmarkFig5Fairness(b *testing.B) {
	for _, weighted := range []bool{false, true} {
		name := "uniform"
		if weighted {
			name = "weighted"
		}
		for _, k := range isolbench.AllKnobs() {
			b.Run(name+"/"+k.String(), func(b *testing.B) {
				var j4, j16, agg float64
				for i := 0; i < b.N; i++ {
					r4, err := isolbench.Fairness(isolbench.FairnessConfig{
						Knob: k, Groups: 4, Weighted: weighted, Repeats: 1,
						Measure: 700 * sim.Millisecond, Seed: uint64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					r16, err := isolbench.Fairness(isolbench.FairnessConfig{
						Knob: k, Groups: 16, Weighted: weighted, Repeats: 1,
						Measure: 700 * sim.Millisecond, Seed: uint64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					j4, j16, agg = r4.Jain.Mean(), r16.Jain.Mean(), r4.AggBW.Mean()
				}
				b.ReportMetric(j4, "jain@4")
				b.ReportMetric(j16, "jain@16")
				b.ReportMetric(gib(agg), "GiB/s")
			})
		}
	}
}

// BenchmarkFig6FairnessMixed reproduces Fig. 6: fairness under mixed
// request sizes and read/write interference.
func BenchmarkFig6FairnessMixed(b *testing.B) {
	for _, mix := range []isolbench.FairnessMix{isolbench.MixSizes, isolbench.MixReadWrite} {
		for _, k := range isolbench.AllKnobs() {
			b.Run(mix.String()+"/"+k.String(), func(b *testing.B) {
				var jain, agg float64
				for i := 0; i < b.N; i++ {
					r, err := isolbench.Fairness(isolbench.FairnessConfig{
						Knob: k, Groups: 2, Mix: mix, Repeats: 1,
						Measure: 900 * sim.Millisecond, Seed: uint64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					jain, agg = r.Jain.Mean(), r.AggBW.Mean()
				}
				b.ReportMetric(jain, "jain")
				b.ReportMetric(gib(agg), "GiB/s")
			})
		}
	}
}

// BenchmarkFig7Tradeoffs reproduces Fig. 7: the prioritization /
// utilization Pareto front per knob; reports the front's extreme
// points.
func BenchmarkFig7Tradeoffs(b *testing.B) {
	for _, kind := range []isolbench.PriorityKind{isolbench.PriorityBatch, isolbench.PriorityLC} {
		for _, k := range isolbench.ControlKnobs() {
			b.Run(kind.String()+"/"+k.String(), func(b *testing.B) {
				var pts []isolbench.TradeoffPoint
				for i := 0; i < b.N; i++ {
					var err error
					pts, err = isolbench.Tradeoff(isolbench.TradeoffConfig{
						Knob: k, Kind: kind, Steps: 5,
						Measure: 700 * sim.Millisecond, Seed: uint64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				minP, maxP, maxAgg := pts[0].PrioBW, pts[0].PrioBW, 0.0
				bestP99 := pts[0].PrioP99
				for _, p := range pts {
					if p.PrioBW < minP {
						minP = p.PrioBW
					}
					if p.PrioBW > maxP {
						maxP = p.PrioBW
					}
					if p.AggregateBW > maxAgg {
						maxAgg = p.AggregateBW
					}
					if p.PrioP99 < bestP99 {
						bestP99 = p.PrioP99
					}
				}
				if kind == isolbench.PriorityBatch {
					b.ReportMetric(gib(minP), "prio-min-GiB/s")
					b.ReportMetric(gib(maxP), "prio-max-GiB/s")
				} else {
					b.ReportMetric(bestP99.Micros(), "prio-best-p99us")
				}
				b.ReportMetric(gib(maxAgg), "agg-max-GiB/s")
			})
		}
	}
}

// BenchmarkQ10BurstResponse reproduces the §VI-C burst experiment:
// time for a priority burst to reach steady performance per knob.
func BenchmarkQ10BurstResponse(b *testing.B) {
	for _, k := range isolbench.ControlKnobs() {
		b.Run(k.String(), func(b *testing.B) {
			var r *isolbench.BurstResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = isolbench.Burst(isolbench.BurstConfig{
					Knob: k, Kind: isolbench.PriorityBatch,
					Lead: 1 * sim.Second, Tail: 8 * sim.Second, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			if r.Achieved {
				b.ReportMetric(r.Response.Millis(), "response-ms")
			} else {
				b.ReportMetric(-1, "response-ms")
			}
			b.ReportMetric(gib(r.SteadyBW), "steady-GiB/s")
		})
	}
}

// BenchmarkTable1 derives the paper's Table I verdicts from fresh
// (quick-mode) measurements. Verdicts are reported as metrics:
// 2 = achieved, 1 = partial, 0 = not achieved.
func BenchmarkTable1(b *testing.B) {
	var rows []isolbench.DesiderataRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = isolbench.TableI(isolbench.TableIConfig{Quick: true, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Overhead), r.Knob.String()+"-overhead")
		b.ReportMetric(float64(r.Fairness), r.Knob.String()+"-fairness")
		b.ReportMetric(float64(r.Tradeoffs), r.Knob.String()+"-tradeoffs")
		b.ReportMetric(float64(r.Bursts), r.Knob.String()+"-bursts")
	}
}

// --- Ablations: the design choices DESIGN.md calls out. ---

// BenchmarkAblationSliceIdle quantifies BFQ's slice_idle on a
// workload with submission gaps (rate-limited apps, where idling
// actually engages): with slice_idle on, the device sits idle inside
// each exclusive slice; off, other queues fill the gaps.
func BenchmarkAblationSliceIdle(b *testing.B) {
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				cl, err := core.NewFleet(core.Options{
					Knob: core.KnobBFQ, BFQSliceIdleOff: off, Seed: uint64(i + 1), Cores: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				bw = runRateLimited(b, cl)
			}
			b.ReportMetric(gib(bw), "GiB/s")
		})
	}
}

// BenchmarkAblationIocostQoS compares io.cost with QoS latency
// control enabled vs a pure model-based configuration.
func BenchmarkAblationIocostQoS(b *testing.B) {
	for _, qos := range []struct {
		name string
		cfg  string
	}{
		{"enabled", ""}, // cluster default: P95 targets, min 50%
		{"disabled", "enable=0 min=100.00 max=100.00"},
	} {
		b.Run(qos.name, func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				cl, err := core.NewFleet(core.Options{
					Knob: core.KnobIOCost, IOCostQoS: qos.cfg, Seed: uint64(i + 1), Cores: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				bw = runSaturating(b, cl)
			}
			b.ReportMetric(gib(bw), "GiB/s")
		})
	}
}

// BenchmarkAblationBatching quantifies io_uring submission/reap
// batching: without it the QD1 path cost applies to every request and
// batch apps lose throughput.
func BenchmarkAblationBatching(b *testing.B) {
	for _, batch := range []int{1, 16} {
		name := "off"
		if batch > 1 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				costs := hostCosts()
				costs.MaxBatch = batch
				// Two cores make the submission path the bottleneck,
				// which is where batching matters.
				cl, err := core.NewFleet(core.Options{
					Knob: core.KnobNone, Costs: costs, Seed: uint64(i + 1), Cores: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				bw = runSaturating(b, cl)
			}
			b.ReportMetric(gib(bw), "GiB/s")
		})
	}
}

// BenchmarkAblationUseDelay measures io.latency's burst response with
// the use_delay recovery damping in its default form vs a long
// pre-throttled history (more use_delay debt, slower recovery).
func BenchmarkAblationUseDelay(b *testing.B) {
	for _, lead := range []sim.Duration{1 * sim.Second, 6 * sim.Second} {
		name := "short-history"
		if lead > 2*sim.Second {
			name = "long-history"
		}
		b.Run(name, func(b *testing.B) {
			var r *isolbench.BurstResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = isolbench.Burst(isolbench.BurstConfig{
					Knob: isolbench.KnobIOLatency, Kind: isolbench.PriorityBatch,
					Lead: lead, Tail: 8 * sim.Second, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			if r.Achieved {
				b.ReportMetric(r.Response.Millis(), "response-ms")
			} else {
				b.ReportMetric(-1, "response-ms")
			}
		})
	}
}

// BenchmarkAblationPipeBlend quantifies the device model's read/write
// interference term: with it (flash980 default), a mixed read/write
// workload collapses toward the paper's <0.7 GiB/s; without it (naive
// shared-rate pipe), the mix retains most of the read bandwidth and
// none of the knobs' write-related findings would reproduce.
func BenchmarkAblationPipeBlend(b *testing.B) {
	for _, blend := range []bool{true, false} {
		name := "blend"
		if !blend {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			var agg float64
			for i := 0; i < b.N; i++ {
				prof := device.Flash980Profile()
				if !blend {
					prof.RWInterference = 0
					prof.WriteAmpSteady = 1
				}
				cl, err := core.NewFleet(core.Options{
					Knob: core.KnobNone, Profile: prof,
					Precondition: true, Seed: uint64(i + 1), Cores: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				agg = runMixedRW(b, cl)
			}
			b.ReportMetric(gib(agg), "GiB/s")
		})
	}
}

// BenchmarkEngineThroughput measures raw simulator speed (events/sec)
// on the standard saturating workload, the figure that bounds how fast
// every experiment above can run.
func BenchmarkEngineThroughput(b *testing.B) {
	var events, span float64
	for i := 0; i < b.N; i++ {
		cl, err := core.NewFleet(core.Options{Knob: core.KnobNone, Seed: uint64(i + 1), Cores: 10})
		if err != nil {
			b.Fatal(err)
		}
		runSaturating(b, cl)
		events = float64(cl.Eng.Processed())
		span = 0.7
	}
	_ = span
	b.ReportMetric(events, "events/run")
}
