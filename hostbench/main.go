// Command hostbench measures what it costs the host to run the
// isolbench simulator. It assembles each workload's fleets directly
// through the core API, times the set-up, run and result calls from
// outside, reads every layer's public counters, and checks the
// simulated outputs against the paper's anchors and against
// themselves.
//
//	go run . --workload paper-cells --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: the
// end-to-end metrics with --trace 0, the per-layer metrics (counters
// plus a CPU profile bucketed by layer) with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"isolbench/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// minReps is the fewest repetitions of a workload a measurement phase
// runs, however long each takes, so every reported time is a median.
// setupPasses is how many times an untraced run sets every cell up
// once more, without running it, after each repetition: set-up takes
// between half a millisecond and 20 ms, so one sample per repetition
// would be noisy, and spreading the passes over the run keeps one slow
// spell of the host from deciding the median. The reference kernel
// runs after each repetition and after every refEvery passes.
// minCoveragePct is the least share of a traced run's CPU profile the
// named layers must account for.
const (
	minReps        = 3
	setupPasses    = 12
	refEvery       = 4
	minCoveragePct = 50
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-cells, fleet-churn or observed-replay")
	seedFlag := fs.Int64("seed", 1, "simulation seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "host seconds to spend repeating the workload")
	traced := fs.Int("trace", 0, "1: report per-layer metrics from a profiled run instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cellsFor, ok := workloads[*name]
	if !ok || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "hostbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames)
		return 2
	}

	seed := uint64(*seedFlag) // negative seeds wrap; any integer is a valid seed
	env, err := json.Marshal(environment(*name, seed))
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# env %s\n", env)

	budget := time.Duration(*seconds * float64(time.Second))
	b := &bench{cells: func() []cell { return cellsFor(seed) }, digests: map[string]string{}}
	// One repetition before any timing lets the heap grow to its working
	// size and the caches fill. It is checked like every other.
	b.rep()
	var m []metric
	if *traced == 0 {
		plain := b.repeat(budget)
		m = endToEnd(plain, b.setupTimes, b.refTimes, 1-float64(b.failed)/float64(b.attempted), peakRSSMiB())
	} else {
		plain, withProf, profiles, err := b.traced(budget)
		defer func() {
			for _, p := range profiles {
				os.Remove(p)
			}
		}()
		if err != nil {
			fmt.Fprintln(stderr, "hostbench: cpu profile:", err)
			return 1
		}
		self, err := selfTimes(profiles)
		if err != nil {
			fmt.Fprintln(stderr, "hostbench: reading the cpu profiles:", err)
			return 1
		}
		m = perLayer(plain, withProf, self, b.refTimes)
		// The per-layer split is only meaningful if the layers account
		// for most of the profile.
		if c := layerCoverage(self); c < minCoveragePct {
			b.problems = append(b.problems, fmt.Sprintf("profile: named layers cover %.1f%% of it, want >= %d%%", c, minCoveragePct))
		}
	}

	b.report(stdout, *name)
	for _, r := range b.reps {
		fmt.Fprintf(stdout, "rep wall %.4fs setup %.5fs run %.4fs result %.4fs ref %.5fs\n",
			r.wall.Seconds(), r.setup.Seconds(), r.run.Seconds(), r.result.Seconds(), r.ref.Seconds())
	}
	ref := medianOf(secondsOf(b.refTimes))
	fmt.Fprintf(stdout, "reference kernel median %.5fs of %d, nominal %.5fs: host times scaled by %.4f\n",
		ref, len(b.refTimes), refNominal.Seconds(), refNominal.Seconds()/ref)
	for _, x := range m {
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", x.name, x.value, x.unit)
	}
	line, err := json.Marshal(result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   asJSON(m),
	})
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metric struct {
	name  string
	unit  string
	value float64
}

func asJSON(m []metric) map[string]metricValue {
	out := make(map[string]metricValue, len(m))
	for _, x := range m {
		out[x.name] = metricValue{x.value, x.unit}
	}
	return out
}

// bench runs repetitions of one workload and keeps the output checks'
// tallies across them.
type bench struct {
	cells     func() []cell
	digests   map[string]string // cell -> digest of the first repetition
	attempted int
	failed    int
	problems  []string
	reps      []*repOut
	// setupTimes are the set-up-only passes' times.
	setupTimes []time.Duration
	// refTimes are the reference kernel's times, taken between
	// repetitions and passes; refHeap and refBuf are its work space.
	refTimes []time.Duration
	refHeap  []uint64
	refBuf   []byte
}

// repOut is one repetition of a workload: every cell once, in order.
type repOut struct {
	wall, setup, run, result time.Duration
	// ref is the reference kernel's time right after the repetition.
	ref                 time.Duration
	cells               []*cellOut
	counters            counters
	mallocs, allocBytes uint64
	gcCycles            uint32
	anchors             []anchorResult
}

// repeat runs repetitions until budget has passed, and at least
// minReps of them, with setupPasses set-up-only passes after each. The
// reference kernel's samples spread over the run like the work they
// scale.
func (b *bench) repeat(budget time.Duration) []*repOut {
	var reps []*repOut
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		r := b.rep()
		r.ref = b.sampleRef()
		reps = append(reps, r)
		for i := 1; i <= setupPasses; i++ {
			b.setupOnly()
			if i%refEvery == 0 {
				b.sampleRef()
			}
		}
	}
	return reps
}

// traced runs pairs of repetitions until budget has passed, and at
// least minReps pairs: one without profiling, then one under a CPU
// profile written to a temporary file of its own. Alternating lets both
// kinds see the same spells of host speed, so their difference is what
// profiling costs. It returns the profile files made, also on error.
func (b *bench) traced(budget time.Duration) (plain, profiled []*repOut, files []string, err error) {
	start := time.Now()
	for len(profiled) < minReps || time.Since(start) < budget {
		r := b.rep()
		r.ref = b.sampleRef()
		plain = append(plain, r)

		f, err := os.CreateTemp("", "hostbench-cpu-*.pprof")
		if err != nil {
			return plain, profiled, files, err
		}
		files = append(files, f.Name())
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return plain, profiled, files, err
		}
		r = b.rep()
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return plain, profiled, files, err
		}
		r.ref = b.sampleRef()
		profiled = append(profiled, r)
	}
	return plain, profiled, files, nil
}

// sampleRef times the reference kernel once, on a collected heap so
// that no garbage collection runs beside it.
func (b *bench) sampleRef() time.Duration {
	if b.refHeap == nil {
		b.refHeap = make([]uint64, refHeapSize)
		b.refBuf = make([]byte, 256<<10)
	}
	runtime.GC()
	d := refKernel(b.refHeap, b.refBuf)
	b.refTimes = append(b.refTimes, d)
	return d
}

// setupOnly sets every cell of the workload up once without running
// it, and records how long that took. These cells are neither run nor
// checked, so they are not counted as attempted; a set-up error is
// still a problem that makes the result incorrect.
func (b *bench) setupOnly() {
	runtime.GC()
	var total time.Duration
	for _, c := range b.cells() {
		t0 := time.Now()
		f, err := core.NewFleet(c.opts)
		if err == nil {
			err = c.populate(f, &cellState{})
		}
		total += time.Since(t0)
		if err != nil {
			b.problems = append(b.problems, c.name+": set-up-only pass: "+err.Error())
		}
	}
	b.setupTimes = append(b.setupTimes, total)
}

// rep runs every cell of the workload once and checks the outputs.
func (b *bench) rep() *repOut {
	cells := b.cells()
	// Start each repetition from a collected heap, so garbage left by
	// the previous one is not charged to this one.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := &repOut{}
	t0 := time.Now()
	for _, c := range cells {
		out := runCell(c)
		r.cells = append(r.cells, out)
		r.setup += out.setup
		r.run += out.run
		r.result += out.result
	}
	tr := time.Now()
	checkDigests(b.digests, r.cells)
	r.anchors = evalAnchors(anchors, r.cells)
	r.result += time.Since(tr)
	r.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC

	for _, c := range r.cells {
		r.counters.add(c.counters)
		b.tally(c.name, c.problems)
	}
	b.reps = append(b.reps, r)
	return r
}

// tally counts one attempted cell and records its problems.
func (b *bench) tally(cell string, problems []string) {
	b.attempted++
	if len(problems) > 0 {
		b.failed++
		for _, p := range problems {
			b.problems = append(b.problems, cell+": "+p)
		}
	}
}

// report prints the first repetition's cell digests and anchor table
// and every problem any repetition found.
func (b *bench) report(w io.Writer, name string) {
	first := b.reps[0]
	var all []byte
	for _, c := range first.cells {
		fmt.Fprintf(w, "digest %s %-26s %s\n", name, c.name, c.digest)
		all = append(all, c.digest...)
	}
	fmt.Fprintf(w, "digest %s %-26s %s\n", name, "*", hashHex(all))
	for _, a := range first.anchors {
		fmt.Fprintf(w, "anchor %-32s sim %9.4g paper %7.4g band [%g, %g] %s err %.2f%%\n",
			a.name, a.sim, a.paper, a.lo, a.hi, a.unit, a.errPct)
	}
	for _, p := range b.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	fmt.Fprintf(w, "cells attempted %d failed %d\n", b.attempted, b.failed)
}

// median of the values f picks from the repetitions.
func median(reps []*repOut, f func(*repOut) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	v = slices.Clone(v)
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func secondsOf(ds []time.Duration) []float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return v
}

// endToEnd computes the metrics a user of the simulator sees, from
// untraced repetitions. Host times are scaled to reference speed by
// the median of the reference kernel's times refs.
func endToEnd(reps []*repOut, setups, refs []time.Duration, passRatio, rssMiB float64) []metric {
	scale := refNominal.Seconds() / medianOf(secondsOf(refs))
	first := reps[0]
	c := first.counters
	var errSum float64
	for _, a := range first.anchors {
		errSum += a.errPct
	}
	return []metric{
		{"wall_s", "s", scale * median(reps, func(r *repOut) float64 { return r.wall.Seconds() })},
		{"setup_s", "s", scale * medianOf(secondsOf(setups))},
		{"sim_ios_per_s", "1/s", median(reps, func(r *repOut) float64 {
			return float64(r.counters.devIOs) / r.run.Seconds()
		}) / scale},
		{"events_per_io", "count", ratio(float64(c.events), float64(c.devIOs))},
		{"peak_rss_mib", "MiB", rssMiB},
		{"pass_ratio", "ratio", passRatio},
		{"anchor_err_pct", "%", errSum / float64(max(len(first.anchors), 1))},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
