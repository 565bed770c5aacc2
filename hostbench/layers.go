package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// perLayer computes the per-layer metrics: the layers' counters (the
// same on every repetition of a seed), Go runtime costs, each layer's
// CPU self time from the profiled repetitions, hostbench's own spans
// around the set-up, run and result calls, and what profiling cost.
// selfNs holds the profile's CPU nanoseconds per layer.
func perLayer(plain, profiled []*repOut, selfNs map[string]float64, refs []time.Duration) []metric {
	c := profiled[0].counters
	kio := float64(c.devIOs) / 1000
	perIO := func(x float64) float64 { return ratio(x, float64(c.hostIOs)) }
	m := []metric{
		{"sim.events", "count", float64(c.events)},
		{"sim.pending_peak", "count", float64(c.pendingPeak)},
		{"device.ios", "count", float64(c.devIOs)},
		{"device.gc_events", "count", float64(c.gcEvents)},
		{"device.pipe_busy_frac", "ratio", ratio(c.pipeBusyNs, c.devSpanNs)},
		{"device.fault_errors", "count", float64(c.faultErrors)},
		{"device.fault_drops", "count", float64(c.faultDrops)},
		{"blk.submitted", "count", float64(c.blkSubmitted)},
		{"blk.retries", "count", float64(c.blkRetries)},
		{"blk.timeouts", "count", float64(c.blkTimeouts)},
		{"blk.failures", "count", float64(c.blkFailures)},
		{"host.cpu_util", "ratio", perIO(c.cpuUtilIOs)},
		{"host.cycles_per_io", "cycles", perIO(c.cyclesIOs)},
		{"host.ctx_per_io", "count", perIO(c.ctxIOs)},
		{"workload.ios", "count", float64(c.appIOs)},
		{"workload.errors", "count", float64(c.appErrors)},
		{"workload.replay_retries", "count", float64(c.replayRetries)},
		{"core.tenant_adds", "count", float64(c.tenantAdds)},
		{"core.tenant_removals", "count", float64(c.tenantRemovals)},
		{"core.shards_effective", "count", float64(c.shards)},
		{"obs.spans_dropped", "count", float64(c.spansDropped)},
		{"obs.incidents", "count", float64(c.incidents)},
		{"go.mallocs_per_kio", "count", median(plain, func(r *repOut) float64 { return ratio(float64(r.mallocs), kio) })},
		{"go.alloc_mib", "MiB", median(plain, func(r *repOut) float64 { return float64(r.allocBytes) / (1 << 20) })},
		{"go.gc_cycles", "count", median(plain, func(r *repOut) float64 { return float64(r.gcCycles) })},
	}

	var total float64
	for _, l := range layers {
		total += selfNs[l]
	}
	reps := float64(len(profiled))
	for _, l := range layers {
		m = append(m,
			metric{l + ".self_s", "s", selfNs[l] / 1e9 / reps},
			metric{l + ".self_pct", "%", 100 * ratio(selfNs[l], total)})
	}
	wall := func(r *repOut) float64 { return r.wall.Seconds() }
	return append(m,
		metric{"profile.layer_coverage_pct", "%", layerCoverage(selfNs)},
		metric{"bench.setup_s", "s", median(profiled, func(r *repOut) float64 { return r.setup.Seconds() })},
		metric{"bench.run_s", "s", median(profiled, func(r *repOut) float64 { return r.run.Seconds() })},
		metric{"bench.result_s", "s", median(profiled, func(r *repOut) float64 { return r.result.Seconds() })},
		metric{"bench.ref_s", "s", medianOf(secondsOf(refs))},
		metric{"trace_overhead_pct", "%", 100 * (median(profiled, wall)/median(plain, wall) - 1)},
	)
}

// layerCoverage is the share of profiled CPU time, in percent, whose
// leaf frame is in a named isolbench layer.
func layerCoverage(selfNs map[string]float64) float64 {
	var total, named float64
	for _, l := range layers {
		total += selfNs[l]
	}
	for _, l := range namedLayers {
		named += selfNs[l]
	}
	return 100 * ratio(named, total)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if rest, ok := strings.CutPrefix(s.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// env describes the host and the source, so results from different
// machines or trees are never compared blindly.
type env struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	GoVersion  string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GitRev     string `json:"git_rev"`
	Source     string `json:"src_sha256"`
}

func environment(workload string, seed uint64) env {
	return env{
		Workload:   workload,
		Seed:       seed,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		GitRev:     gitRev("."),
		Source:     sourceHash("."),
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

func cpuModel() string {
	for _, l := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitRev reads HEAD's commit from a .git directory under root, or
// returns "" when the tree is not a git checkout.
func gitRev(root string) string {
	head := strings.TrimSpace(readFile(filepath.Join(root, ".git", "HEAD")))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		return strings.TrimSpace(readFile(filepath.Join(root, ".git", filepath.FromSlash(ref))))
	}
	return head
}

// sourceHash hashes every Go source and go.mod file under root, by
// path, skipping hidden directories (build outputs, VCS data).
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		h.Write([]byte(p + "\n" + readFile(p)))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
