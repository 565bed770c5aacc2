// Command isolbench regenerates the paper's tables and figures from
// the simulated testbed. Each experiment prints the same rows/series
// the paper reports.
//
// Usage:
//
//	isolbench -exp fig3 [-knob io.cost] [-quick] [-seed 1]
//	isolbench -exp all -quick
//
// Experiments: fig2 (illustrative timelines), fig3 (latency/CPU
// scaling), fig4 (bandwidth scalability), fig5 (fairness scalability),
// fig6 (fairness under mixed workloads), fig7 (priority/utilization
// trade-offs), q10 (burst response), tab1 (Table I verdicts),
// resilience (isolation verdicts under injected device faults),
// attribution (wait-for-whom blame matrices explaining WHY isolation
// failed, with SLO burn-rate incidents), fleetscale (opt-in: fleet
// capacity/churn sweeps), tracereplay (opt-in: generative
// production-shaped traces streamed through the open-loop replayer,
// solo vs contended, per load phase).
//
// A run is a list of independently rendered units (one per panel or
// table block). Completed units are journaled to a JSONL manifest
// under results/ as they finish; Ctrl-C drains in-flight units, emits
// the completed prefix as a partial report, and a later -resume of the
// same run skips everything journaled, producing output byte-identical
// to an uninterrupted run. -unit-timeout bounds each unit's wall-clock
// time, and -paranoid verifies conservation-law invariants at the end
// of every unit. -shards N runs each multi-device fleet on per-device
// engines advanced in conservative time windows — faster on multi-core
// hosts, byte-identical output.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"isolbench"
	"isolbench/internal/core"
	"isolbench/internal/device"
	"isolbench/internal/fault"
	"isolbench/internal/harness"
	"isolbench/internal/obs"
	"isolbench/internal/runpool"
	"isolbench/internal/sim"
	"isolbench/internal/trace"
)

var (
	expFlag     = flag.String("exp", "all", "experiment id: fig2|fig3|fig4|fig5|fig6|fig7|q10|tab1|resilience|attribution|fleetscale|tracereplay|all (fleetscale and tracereplay are opt-in: not part of all)")
	knobFlag    = flag.String("knob", "", "restrict to one knob ("+strings.Join(core.KnobNames(), "|")+"); adaptive is the opt-in closed-loop shaper, never part of the default five-knob sweeps")
	quickFlag   = flag.Bool("quick", false, "short runs and coarse sweeps (fast, noisier)")
	seedFlag    = flag.Uint64("seed", 1, "simulation seed")
	profFlag    = flag.String("profile", "flash980", "device profile ("+strings.Join(device.ProfileNames(), "|")+"); flash980 and optane model the paper's two SSDs")
	workersFlag = flag.Int("workers", runpool.DefaultWorkers(), "parallel simulation units per sweep (1 = fully sequential; output is identical at any width)")
	jobFlag     = flag.String("job", "", "run a fio-style job file instead of a canned experiment")
	recordFlag  = flag.String("record", "", "with -job: write the run's device trace (JSONL) to this file")
	replayFlag  = flag.String("replay", "", "replay a JSONL trace under -knob instead of a canned experiment")

	unitTimeoutFlag = flag.Duration("unit-timeout", 0, "wall-clock budget per simulation unit; an exceeded unit is aborted with a diagnostic, its siblings keep running (0 = none)")
	shardsFlag      = flag.Int("shards", 0, "run each fleet on up to this many per-device engines advanced in conservative time windows (0/1 = single engine, as is every one-device fleet; output is byte-identical at any setting; observed runs keep each cgroup in one shard; observed runs with a cgroup cap, i.e. -obs-cap or -paranoid fleetscale, use one engine)")
	paranoidFlag    = flag.Bool("paranoid", false, "verify conservation-law invariants (submitted vs completed, byte accounting, histogram counts) at the end of every unit")
	resumeFlag      = flag.String("resume", "", "resume from a run manifest: units it records are folded in from cache instead of rerunning")
	manifestFlag    = flag.String("manifest", "", `run manifest path for checkpoint/resume (default results/manifest-<run>.jsonl, "none" disables journaling)`)

	attrFlag   = flag.Bool("attr", false, "enable interference attribution: with -job prints the wait-for-whom blame matrix, with -exp resilience adds the blame_shift column")
	sloFlag    = flag.String("slo", "", `burn-rate SLO monitor as "p99=500us[,budget=0.01][,burn=14][,fast=100ms][,slow=1s]" (implies observability)`)
	obsCapFlag = flag.String("obs-cap", "", `observer ring capacities as "spans=N[,series=M][,cgroups=K]" (defaults 65536/8192/unbounded; ring overflow evicts oldest, cgroups past K fold into one aggregate bucket)`)

	setFlags     knobFileFlags
	statFlag     = flag.Bool("stat", false, "with -job: print each cgroup's io.stat after the run")
	pressureFlag = flag.Bool("pressure", false, "with -job: print each cgroup's io.pressure (PSI) after the run")
	traceEvFlag  = flag.String("trace-events", "", "with -job: write a Chrome trace-event file (load in Perfetto/chrome://tracing)")
	spansFlag    = flag.String("spans", "", "with -job: write per-request stage spans (JSONL) to this file")

	cpuProfFlag = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
	memProfFlag = flag.String("memprofile", "", "write a heap profile (runtime/pprof) to this file at exit")
)

// knobFileFlags collects repeatable -set "cgroup:file=value" options
// into the KnobFiles map applied before a -job run.
type knobFileFlags map[string]map[string]string

func (k *knobFileFlags) String() string { return fmt.Sprint(map[string]map[string]string(*k)) }

func (k *knobFileFlags) Set(s string) error {
	ci := strings.IndexByte(s, ':')
	if ci <= 0 {
		return fmt.Errorf("want cgroup:file=value, got %q", s)
	}
	cg := s[:ci]
	fv := s[ci+1:]
	ei := strings.IndexByte(fv, '=')
	if ei <= 0 {
		return fmt.Errorf("want cgroup:file=value, got %q", s)
	}
	if *k == nil {
		*k = make(map[string]map[string]string)
	}
	if (*k)[cg] == nil {
		(*k)[cg] = make(map[string]string)
	}
	(*k)[cg][fv[:ei]] = fv[ei+1:]
	return nil
}

func main() {
	flag.Var(&setFlags, "set", `with -job: write a cgroup control file before the run, as "cgroup:file=value" (repeatable), e.g. -set "tenant-batch:io.max=rbps=104857600"`)
	flag.Parse()
	if *cpuProfFlag != "" {
		f, err := os.Create(*cpuProfFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "isolbench: -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "isolbench: -cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	// The first signal cancels the run context for a graceful drain; a
	// second one hits the restored default handler and kills us.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx)
	stop()
	if *memProfFlag != "" {
		f, merr := os.Create(*memProfFlag)
		if merr == nil {
			runtime.GC() // settle the heap so the profile reflects live objects
			merr = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if merr != nil {
			fmt.Fprintln(os.Stderr, "isolbench: -memprofile:", merr)
		}
	}
	if err != nil {
		if *cpuProfFlag != "" {
			pprof.StopCPUProfile()
		}
		fmt.Fprintln(os.Stderr, "isolbench:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130) // the shell's code for death by SIGINT
		}
		os.Exit(1)
	}
}

func knobs(withBaseline bool) ([]core.Knob, error) {
	if *knobFlag != "" {
		k, err := isolbench.ParseKnob(*knobFlag)
		if err != nil {
			return nil, err
		}
		return []core.Knob{k}, nil
	}
	if withBaseline {
		return core.AllKnobs(), nil
	}
	return core.ControlKnobs(), nil
}

// control builds the RunControl for one unit: the run-wide cancel
// context, the -paranoid toggle, and a fresh wall-clock deadline so
// -unit-timeout bounds each unit separately, not the whole sweep.
func control(ctx context.Context) core.RunControl {
	ctl := core.RunControl{Ctx: ctx, Paranoid: *paranoidFlag, Shards: *shardsFlag}
	if *unitTimeoutFlag > 0 {
		ctl.Deadline = time.Now().Add(*unitTimeoutFlag)
	}
	return ctl
}

func run(ctx context.Context) error {
	// Fail fast on a bad -profile instead of erroring per unit deep in
	// a sweep.
	if _, err := device.ProfileByName(*profFlag); err != nil {
		return err
	}
	if *jobFlag != "" {
		return runJob(ctx, *jobFlag)
	}
	if *replayFlag != "" {
		return runReplay(*replayFlag)
	}
	exps := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		exps = []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "q10", "tab1", "resilience", "attribution"}
	}
	var units []harness.Unit
	for _, e := range exps {
		us, err := unitsFor(strings.TrimSpace(e))
		if err != nil {
			return err
		}
		// Each experiment's report ends with a blank line; the last
		// unit carries it so concatenated unit outputs reproduce the
		// pre-harness byte stream exactly.
		us[len(us)-1] = withTrailingBlank(us[len(us)-1])
		units = append(units, us...)
	}

	runner := &harness.Runner{Workers: *workersFlag, Out: os.Stdout}
	header := harness.Header{Exp: *expFlag, Knob: *knobFlag, Profile: *profFlag, Seed: *seedFlag, Quick: *quickFlag}
	manifestPath := *manifestFlag
	switch {
	case *resumeFlag != "":
		cache, j, err := harness.Resume(*resumeFlag, header)
		if err != nil {
			return err
		}
		runner.Cache, runner.Journal = cache, j
		manifestPath = *resumeFlag
	case manifestPath == "none":
		manifestPath = ""
	default:
		if manifestPath == "" {
			manifestPath = defaultManifestPath()
		}
		j, err := harness.Create(manifestPath, header)
		if err != nil {
			// Journaling is best-effort: an unwritable results/ dir
			// loses resumability, it shouldn't stop the run.
			fmt.Fprintf(os.Stderr, "isolbench: journaling disabled: %v\n", err)
			manifestPath = ""
		} else {
			runner.Journal = j
		}
	}
	if runner.Journal != nil {
		defer runner.Journal.Close()
	}

	sum, err := runner.Run(ctx, units)
	harness.WriteSummary(os.Stderr, sum)
	if errors.Is(err, context.Canceled) && manifestPath != "" {
		fmt.Fprintf(os.Stderr, "# interrupted; resume with: -resume %s\n", manifestPath)
	}
	return err
}

// defaultManifestPath derives a manifest name that distinguishes runs
// whose cached outputs must not be mixed.
func defaultManifestPath() string {
	name := "manifest-" + strings.ReplaceAll(*expFlag, ",", "+")
	if *knobFlag != "" {
		name += "-" + *knobFlag
	}
	name += fmt.Sprintf("-seed%d", *seedFlag)
	if *quickFlag {
		name += "-quick"
	}
	return filepath.Join("results", name+".jsonl")
}

// withTrailingBlank appends the inter-experiment blank line to a
// unit's output.
func withTrailingBlank(u harness.Unit) harness.Unit {
	run := u.Run
	u.Run = func(ctx context.Context) (string, error) {
		out, err := run(ctx)
		if err != nil {
			return "", err
		}
		return out + "\n", nil
	}
	return u
}

func unitsFor(exp string) ([]harness.Unit, error) {
	switch exp {
	case "fig2":
		return fig2Units()
	case "fig3":
		return fig3Units()
	case "fig4":
		return fig4Units()
	case "fig5":
		return fig5Units()
	case "fig6":
		return fig6Units()
	case "fig7":
		return fig7Units()
	case "q10":
		return q10Units()
	case "tab1":
		return tab1Units()
	case "resilience":
		return resilienceUnits()
	case "attribution":
		return attributionUnits()
	case "fleetscale":
		return fleetscaleUnits()
	case "tracereplay":
		return tracereplayUnits()
	default:
		return nil, fmt.Errorf("unknown experiment %q", exp)
	}
}

func measure(full sim.Duration) sim.Duration {
	if *quickFlag {
		return full / 4
	}
	return full
}

func fig2Units() ([]harness.Unit, error) {
	ks, err := knobs(true)
	if err != nil {
		return nil, err
	}
	// Full runs use the paper's real 70 s schedule so the 500 ms
	// control windows of io.latency resolve properly; quick runs
	// compress time 10x.
	scale := 1.0
	if *quickFlag {
		scale = 0.1
	}
	var units []harness.Unit
	for _, k := range ks {
		variants := []bool{false}
		if k.WeightedFig2() {
			variants = []bool{false, true} // uniform + weighted panels
		}
		for _, weighted := range variants {
			k, weighted := k, weighted
			key := "fig2/" + k.String()
			if weighted {
				key += "+weighted"
			}
			units = append(units, harness.Unit{Key: key, Run: func(ctx context.Context) (string, error) {
				series, err := core.RunIllustrate(core.IllustrateConfig{
					Knob: k, Profile: *profFlag, Weighted: weighted, TimeScale: scale,
					Seed: *seedFlag, Control: control(ctx),
				})
				if err != nil {
					return "", err
				}
				var buf bytes.Buffer
				core.WriteTimelines(&buf, k, series)
				return buf.String(), nil
			}})
		}
	}
	return units, nil
}

func fig3Units() ([]harness.Unit, error) {
	ks, err := knobs(true)
	if err != nil {
		return nil, err
	}
	counts := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	if *quickFlag {
		counts = []int{1, 8, 16, 64, 256}
	}
	// Knob panels are independent units; each fans its app counts out
	// across the worker pool in turn.
	var units []harness.Unit
	for _, k := range ks {
		k := k
		units = append(units, harness.Unit{Key: "fig3/" + k.String(), Run: func(ctx context.Context) (string, error) {
			pts, err := core.RunLatencyScaling(core.LatencyScalingConfig{
				Knob: k, Profile: *profFlag, AppCounts: counts,
				Measure: measure(2 * sim.Second), Seed: *seedFlag, Workers: *workersFlag,
				Control: control(ctx),
			})
			if err != nil {
				return "", err
			}
			var buf bytes.Buffer
			core.WriteLatencyScaling(&buf, k, pts)
			for i, n := range counts {
				if n == 1 || n == 16 || n == 256 {
					core.WriteCDF(&buf, k, n, pts[i])
				}
			}
			return buf.String(), nil
		}})
	}
	return units, nil
}

func fig4Units() ([]harness.Unit, error) {
	ks, err := knobs(true)
	if err != nil {
		return nil, err
	}
	counts := []int{1, 2, 3, 5, 9, 13, 17}
	if *quickFlag {
		counts = []int{1, 5, 17}
	}
	var units []harness.Unit
	for _, devs := range []int{1, 7} {
		devs := devs
		for _, k := range ks {
			k := k
			key := fmt.Sprintf("fig4/devs%d/%s", devs, k)
			units = append(units, harness.Unit{Key: key, Run: func(ctx context.Context) (string, error) {
				pts, err := core.RunBandwidthScaling(core.BandwidthScalingConfig{
					Knob: k, Profile: *profFlag, AppCounts: counts, Devices: devs,
					Measure: measure(1 * sim.Second), Seed: *seedFlag, Workers: *workersFlag,
					Control: control(ctx),
				})
				if err != nil {
					return "", err
				}
				var buf bytes.Buffer
				core.WriteBandwidthScaling(&buf, k, pts)
				return buf.String(), nil
			}})
		}
	}
	return units, nil
}

func fig5Units() ([]harness.Unit, error) {
	ks, err := knobs(true)
	if err != nil {
		return nil, err
	}
	repeats := 5
	groupCounts := []int{2, 4, 8, 16}
	if *quickFlag {
		repeats = 1
		groupCounts = []int{2, 16}
	}
	// One unit per weighted block, not per knob: the fairness table's
	// column widths span every knob's rows, so the block is the
	// smallest independently renderable slice.
	var units []harness.Unit
	for _, weighted := range []bool{false, true} {
		weighted := weighted
		key := "fig5/uniform"
		if weighted {
			key = "fig5/weighted"
		}
		units = append(units, harness.Unit{Key: key, Run: func(ctx context.Context) (string, error) {
			byKnob, err := runpool.MapCtx(ctx, *workersFlag, len(ks), func(i int) ([]*core.FairnessResult, error) {
				return core.FairnessScalability(core.FairnessSweepConfig{
					Knob: ks[i], Profile: *profFlag, GroupCounts: groupCounts, Weighted: weighted,
					Repeats: repeats, Seed: *seedFlag, Workers: *workersFlag, Control: control(ctx),
				})
			})
			if err != nil {
				return "", err
			}
			var all []*core.FairnessResult
			for _, rs := range byKnob {
				all = append(all, rs...)
			}
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "# Fig.5 fairness scalability (weighted=%v)\n", weighted)
			core.WriteFairness(&buf, all)
			return buf.String(), nil
		}})
	}
	return units, nil
}

func fig6Units() ([]harness.Unit, error) {
	ks, err := knobs(true)
	if err != nil {
		return nil, err
	}
	repeats := 5
	if *quickFlag {
		repeats = 1
	}
	// One unit per mix (the fairness table spans every knob's rows).
	var units []harness.Unit
	for _, mix := range []core.FairnessMix{core.MixSizes, core.MixPatterns, core.MixReadWrite} {
		mix := mix
		units = append(units, harness.Unit{Key: fmt.Sprintf("fig6/%s", mix), Run: func(ctx context.Context) (string, error) {
			all, err := runpool.MapCtx(ctx, *workersFlag, len(ks), func(i int) (*core.FairnessResult, error) {
				return core.RunFairness(core.FairnessConfig{
					Knob: ks[i], Profile: *profFlag, Groups: 2, Mix: mix, Repeats: repeats,
					Seed: *seedFlag, Workers: *workersFlag, Control: control(ctx),
				})
			})
			if err != nil {
				return "", err
			}
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "# Fig.6 fairness, mixed workloads (%s)\n", mix)
			core.WriteFairness(&buf, all)
			return buf.String(), nil
		}})
	}
	return units, nil
}

func fig7Units() ([]harness.Unit, error) {
	ks, err := knobs(false)
	if err != nil {
		return nil, err
	}
	steps := 12
	variants := core.AllBEVariants()
	if *quickFlag {
		steps = 5
		variants = []core.BEVariant{core.BE4KRand}
	}
	// One unit per knob x kind x variant panel, in grid order.
	var units []harness.Unit
	for _, k := range ks {
		for _, kind := range []core.PriorityKind{core.PriorityBatch, core.PriorityLC} {
			// The paper only sweeps BE variants for the throttling
			// knobs; the schedulers' trade-offs are too limited (Q6).
			vs := variants
			if k.UsesScheduler() {
				vs = []core.BEVariant{core.BE4KRand}
			}
			for _, v := range vs {
				k, kind, v := k, kind, v
				key := fmt.Sprintf("fig7/%s/%s/%s", k, kind, v)
				units = append(units, harness.Unit{Key: key, Run: func(ctx context.Context) (string, error) {
					cfg := core.TradeoffConfig{
						Knob: k, Profile: *profFlag, Kind: kind, Variant: v, Steps: steps,
						Measure: measure(1500 * sim.Millisecond), Seed: *seedFlag, Workers: *workersFlag,
						Control: control(ctx),
					}
					pts, err := core.RunTradeoff(cfg)
					if err != nil {
						return "", err
					}
					var buf bytes.Buffer
					core.WriteTradeoff(&buf, cfg, pts)
					return buf.String(), nil
				}})
			}
		}
	}
	return units, nil
}

func q10Units() ([]harness.Unit, error) {
	ks, err := knobs(false)
	if err != nil {
		return nil, err
	}
	var units []harness.Unit
	for _, k := range ks {
		for _, kind := range []core.PriorityKind{core.PriorityBatch, core.PriorityLC} {
			k, kind := k, kind
			key := fmt.Sprintf("q10/%s/%s", k, kind)
			units = append(units, harness.Unit{Key: key, Run: func(ctx context.Context) (string, error) {
				r, err := core.RunBurst(core.BurstConfig{
					Knob: k, Profile: *profFlag, Kind: kind, Seed: *seedFlag, Control: control(ctx),
				})
				if err != nil {
					return "", err
				}
				var buf bytes.Buffer
				core.WriteBurst(&buf, r)
				return buf.String(), nil
			}})
		}
	}
	return units, nil
}

func tab1Units() ([]harness.Unit, error) {
	// -knob narrows the table to that row (the only way the opt-in
	// adaptive shaper gets a Table-I verdict); the default stays the
	// paper's five control knobs.
	var override []core.Knob
	if *knobFlag != "" {
		k, err := isolbench.ParseKnob(*knobFlag)
		if err != nil {
			return nil, err
		}
		override = []core.Knob{k}
	}
	return []harness.Unit{{Key: "tab1", Run: func(ctx context.Context) (string, error) {
		rows, err := core.RunTableI(core.TableIConfig{
			Quick: *quickFlag, Seed: *seedFlag, Workers: *workersFlag, Control: control(ctx),
			Knobs: override,
		})
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		fmt.Fprintln(&buf, "# Table I: performance isolation desiderata for cgroups")
		core.WriteTableI(&buf, rows, true)
		return buf.String(), nil
	}}}, nil
}

func resilienceUnits() ([]harness.Unit, error) {
	ks, err := knobs(false)
	if err != nil {
		return nil, err
	}
	return []harness.Unit{{Key: "resilience", Run: func(ctx context.Context) (string, error) {
		results, err := core.RunResilienceGrid(ks, fault.BuiltinProfiles(), core.ResilienceConfig{
			Measure: measure(2 * sim.Second),
			Seed:    *seedFlag,
			Control: control(ctx),
			Attr:    *attrFlag,
		}, *workersFlag)
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		core.WriteResilience(&buf, results)
		return buf.String(), nil
	}}}, nil
}

func attributionUnits() ([]harness.Unit, error) {
	ks, err := knobs(false)
	if err != nil {
		return nil, err
	}
	slo, err := parseSLO(*sloFlag)
	if err != nil {
		return nil, err
	}
	// The unit's observer lives inside each cell; drops are surfaced in
	// the report body and echoed as a run-end note.
	var note string
	return []harness.Unit{{
		Key: "attribution",
		Run: func(ctx context.Context) (string, error) {
			results, err := core.RunAttributionGrid(ks, core.AttributionConfig{
				Measure: measure(2 * sim.Second),
				Seed:    *seedFlag,
				Control: control(ctx),
				SLO:     slo,
			}, *workersFlag)
			if err != nil {
				return "", err
			}
			var spans, series uint64
			for _, r := range results {
				spans += r.SpansDropped
				series += r.SeriesDropped
			}
			if spans > 0 || series > 0 {
				note = fmt.Sprintf("telemetry dropped: spans=%d series_points=%d", spans, series)
			}
			var buf bytes.Buffer
			core.WriteAttribution(&buf, results)
			return buf.String(), nil
		},
		Note: func() string { return note },
	}}, nil
}

func fleetscaleUnits() ([]harness.Unit, error) {
	ks, err := knobs(true)
	if err != nil {
		return nil, err
	}
	counts := []int{10, 32, 100, 316, 1000, 3162, 10000}
	if *quickFlag {
		counts = []int{10, 100, 1000}
	}
	obsCap, err := parseObsCap(*obsCapFlag)
	if err != nil {
		return nil, err
	}
	// One unit per knob x {steady, churn} panel; tenant counts fan out
	// across the worker pool inside each unit. WallMS is the only
	// nondeterministic column.
	var units []harness.Unit
	for _, k := range ks {
		for _, churn := range []bool{false, true} {
			k, churn := k, churn
			key := "fleetscale/" + k.String()
			if churn {
				key += "+churn"
			}
			units = append(units, harness.Unit{Key: key, Run: func(ctx context.Context) (string, error) {
				cfg := core.FleetScaleConfig{
					Knob: k, Profile: *profFlag, Tenants: counts, Churn: churn,
					Measure: measure(1 * sim.Second), MaxCgroups: obsCap.MaxCgroups,
					Seed: *seedFlag, Workers: *workersFlag, Control: control(ctx),
				}
				pts, err := core.RunFleetScale(cfg)
				if err != nil {
					return "", err
				}
				var buf bytes.Buffer
				core.WriteFleetScale(&buf, cfg, pts)
				return buf.String(), nil
			}})
		}
	}
	return units, nil
}

func tracereplayUnits() ([]harness.Unit, error) {
	ks, err := knobs(false)
	if err != nil {
		return nil, err
	}
	slo, err := parseSLO(*sloFlag)
	if err != nil {
		return nil, err
	}
	// One unit per knob; the shape x fault cells fan out across the
	// worker pool inside each unit. Healthy and gcstorm columns cover
	// the paper's "does it hold when the device misbehaves" axis
	// without re-running the whole resilience grid.
	profiles := []fault.Profile{{}, fault.GCStormProfile()}
	var units []harness.Unit
	for _, k := range ks {
		k := k
		units = append(units, harness.Unit{Key: "tracereplay/" + k.String(), Run: func(ctx context.Context) (string, error) {
			results, err := core.RunTraceReplayGrid(core.TraceReplayShapes(), profiles, core.TraceReplayConfig{
				Knob:     k,
				PhaseDur: measure(500 * sim.Millisecond),
				Seed:     *seedFlag,
				SLO:      slo,
				Control:  control(ctx),
			}, *workersFlag)
			if err != nil {
				return "", err
			}
			var buf bytes.Buffer
			core.WriteTraceReplay(&buf, results)
			return buf.String(), nil
		}})
	}
	return units, nil
}

// parseSLO parses the -slo flag ("p99=500us,budget=0.01,burn=14,
// fast=100ms,slow=1s"); empty input returns the zero config (off).
func parseSLO(s string) (obs.SLOConfig, error) {
	var cfg obs.SLOConfig
	if s == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return cfg, fmt.Errorf("-slo: want key=value, got %q", part)
		}
		switch kv[0] {
		case "p99":
			d, err := time.ParseDuration(kv[1])
			if err != nil {
				return cfg, fmt.Errorf("-slo p99: %w", err)
			}
			cfg.P99 = sim.Duration(d.Nanoseconds())
		case "budget":
			if _, err := fmt.Sscanf(kv[1], "%g", &cfg.Budget); err != nil {
				return cfg, fmt.Errorf("-slo budget: %w", err)
			}
		case "burn":
			v := strings.TrimSuffix(kv[1], "x")
			if _, err := fmt.Sscanf(v, "%g", &cfg.Burn); err != nil {
				return cfg, fmt.Errorf("-slo burn: %w", err)
			}
		case "fast":
			d, err := time.ParseDuration(kv[1])
			if err != nil {
				return cfg, fmt.Errorf("-slo fast: %w", err)
			}
			cfg.FastWindow = sim.Duration(d.Nanoseconds())
		case "slow":
			d, err := time.ParseDuration(kv[1])
			if err != nil {
				return cfg, fmt.Errorf("-slo slow: %w", err)
			}
			cfg.SlowWindow = sim.Duration(d.Nanoseconds())
		default:
			return cfg, fmt.Errorf("-slo: unknown key %q", kv[0])
		}
	}
	if cfg.P99 <= 0 {
		return cfg, fmt.Errorf("-slo: p99=<duration> is required")
	}
	return cfg, nil
}

// parseObsCap parses the -obs-cap flag ("spans=N,series=M").
func parseObsCap(s string) (obs.Config, error) {
	var cfg obs.Config
	if s == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return cfg, fmt.Errorf("-obs-cap: want key=value, got %q", part)
		}
		var n int
		if _, err := fmt.Sscanf(kv[1], "%d", &n); err != nil || n <= 0 {
			return cfg, fmt.Errorf("-obs-cap %s: want a positive integer, got %q", kv[0], kv[1])
		}
		switch kv[0] {
		case "spans":
			cfg.SpanCap = n
		case "series":
			cfg.SeriesCap = n
		case "cgroups":
			cfg.MaxCgroups = n
		default:
			return cfg, fmt.Errorf("-obs-cap: unknown key %q", kv[0])
		}
	}
	return cfg, nil
}

func runJob(ctx context.Context, path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	knob := core.KnobNone
	if *knobFlag != "" {
		if knob, err = isolbench.ParseKnob(*knobFlag); err != nil {
			return err
		}
	}
	var rec *trace.Recorder
	if *recordFlag != "" {
		rec = trace.NewRecorder(0)
	}
	slo, err := parseSLO(*sloFlag)
	if err != nil {
		return err
	}
	obsCap, err := parseObsCap(*obsCapFlag)
	if err != nil {
		return err
	}
	observe := *statFlag || *pressureFlag || *traceEvFlag != "" || *spansFlag != "" ||
		*attrFlag || slo.P99 > 0
	res, err := core.RunJobFile(core.JobRunConfig{
		Knob: knob, Profile: *profFlag, Source: string(src), Seed: *seedFlag,
		Recorder: rec, Observe: observe, ObsConfig: obsCap,
		Attr: *attrFlag, SLO: slo,
		KnobFiles: setFlags, Control: control(ctx),
	})
	if err != nil {
		return err
	}
	if rec != nil {
		f, err := os.Create(*recordFlag)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteJSONL(f, rec.Entries()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# recorded %d requests to %s\n", rec.Len(), *recordFlag)
		if d := rec.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "# recorder limit reached: %d requests dropped\n", d)
		}
	}
	fmt.Printf("# job file %s, knob=%s, %v measured\n", path, knob, res.Span)
	fmt.Println("cgroup\tbandwidth\tIOs\tP50\tP99")
	for _, g := range res.Groups {
		fmt.Printf("%s\t%s\t%d\t%v\t%v\n", g.Name, core.GiB(g.BW), g.IOs, g.P50, g.P99)
	}
	fmt.Printf("aggregate\t%s\tcpu=%.1f%%\n", core.GiB(res.AggregateBW), res.CPUUtil*100)
	if observe {
		core.WriteObsSummary(os.Stdout, res.Obs)
		core.WriteBlameMatrix(os.Stdout, res.Obs)
		for _, in := range res.Obs.Incidents() {
			fmt.Printf("# incident %s at %v: %s\n", in.Kind, in.At, in.Detail)
		}
		core.WriteObsFiles(os.Stdout, res.Obs, *statFlag, *pressureFlag)
		if *traceEvFlag != "" {
			if err := writeObsFile(*traceEvFlag, res.Obs.WriteChromeTrace); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "# wrote Chrome trace events to %s (%d spans", *traceEvFlag, len(res.Obs.Spans()))
			if d := res.Obs.SpansDropped(); d > 0 {
				fmt.Fprintf(os.Stderr, ", %d older spans evicted", d)
			}
			fmt.Fprintln(os.Stderr, ")")
		}
		if *spansFlag != "" {
			if err := writeObsFile(*spansFlag, res.Obs.WriteSpansJSONL); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "# wrote stage spans to %s\n", *spansFlag)
		}
	}
	return nil
}

// writeObsFile creates path and streams one observer export into it.
func writeObsFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runReplay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	entries, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	knob := core.KnobNone
	if *knobFlag != "" {
		if knob, err = isolbench.ParseKnob(*knobFlag); err != nil {
			return err
		}
	}
	st, err := core.ReplayTrace(knob, *profFlag, entries, *seedFlag)
	if err != nil {
		return err
	}
	sum := trace.Summarize(entries)
	fmt.Printf("# replayed %d requests (%.0f IOPS offered) under knob=%s\n",
		sum.Requests, sum.MeanIOPS, knob)
	fmt.Printf("P50=%.1fus P90=%.1fus P99=%.1fus max=%.1fus\n",
		float64(st.P50Ns)/1e3, float64(st.P90Ns)/1e3, float64(st.P99Ns)/1e3, float64(st.MaxNs)/1e3)
	if st.Errors > 0 || st.Retries > 0 {
		fmt.Printf("errors=%d retries=%d (failed attempts are excluded from the latency figures)\n",
			st.Errors, st.Retries)
	}
	return nil
}
