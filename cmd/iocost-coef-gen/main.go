// Command iocost-coef-gen reproduces the kernel's
// tools/cgroup/iocost_coef_gen.py for the simulated devices: it probes
// a device profile with fio-style micro-benchmarks (sequential and
// random, read and write, at high queue depth) and emits an
// io.cost.model line ready to write into the root cgroup.
//
// Like the real script, it measures a preconditioned device, so the
// generated model reflects steady-state (post-GC) write performance —
// the "achievable" model the paper uses (§III: a 2.3 GiB/s read
// saturation point on the 980 PRO).
//
// Usage:
//
//	iocost-coef-gen [-profile name] [-dev 259:0] [-runtime 2]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"isolbench/internal/device"
	"isolbench/internal/sim"
)

var (
	profileFlag = flag.String("profile", "flash980", "device profile to probe ("+strings.Join(device.ProfileNames(), "|")+")")
	devFlag     = flag.String("dev", "259:0", "device name to prefix the model line with")
	runtimeFlag = flag.Float64("runtime", 2.0, "virtual seconds per probe")
	qdFlag      = flag.Int("qd", 256, "probe queue depth")
	seedFlag    = flag.Uint64("seed", 42, "probe seed")
)

// probe drives a closed-loop workload against a fresh device and
// returns (bytes/sec, IOPS).
func probe(prof device.Profile, op device.Op, seq bool, size int64, qd int, dur sim.Duration, seed uint64) (float64, float64, error) {
	eng := sim.NewEngine()
	dev, err := device.New(eng, prof, seed)
	if err != nil {
		return 0, 0, err
	}
	dev.Precondition()
	var (
		bytes int64
		ios   uint64
		next  uint64
		seqAt int64
	)
	rng := sim.NewRNG(seed + 1)
	inflight := 0
	var issue func()
	issue = func() {
		for inflight < qd && dev.CanAccept() {
			next++
			inflight++
			off := rng.Int63n(prof.CapacityByte - size)
			if seq {
				off = seqAt
				seqAt += size
			}
			r := &device.Request{ID: next, Op: op, Size: size, Seq: seq, Offset: off}
			r.Submit = eng.Now()
			r.OnComplete = func(r *device.Request) {
				bytes += r.Size
				ios++
				inflight--
				issue()
			}
			dev.Submit(r)
		}
	}
	issue()
	eng.RunUntil(sim.Time(dur))
	sec := dur.Seconds()
	return float64(bytes) / sec, float64(ios) / sec, nil
}

func main() {
	flag.Parse()
	prof, err := device.ProfileByName(*profileFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	dur := sim.Duration(*runtimeFlag * float64(sim.Second))

	type probeSpec struct {
		name string
		op   device.Op
		seq  bool
		size int64
	}
	probes := []probeSpec{
		{"rbps", device.Read, true, 1 << 20},    // sequential read bandwidth
		{"rseqiops", device.Read, true, 4096},   // sequential 4k read IOPS
		{"rrandiops", device.Read, false, 4096}, /* random 4k read IOPS */
		{"wbps", device.Write, true, 1 << 20},
		{"wseqiops", device.Write, true, 4096},
		{"wrandiops", device.Write, false, 4096},
	}
	results := map[string]float64{}
	for _, p := range probes {
		bps, iops, err := probe(prof, p.op, p.seq, p.size, *qdFlag, dur, *seedFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iocost-coef-gen:", err)
			os.Exit(1)
		}
		switch p.name {
		case "rbps", "wbps":
			results[p.name] = bps
		default:
			results[p.name] = iops
		}
		fmt.Fprintf(os.Stderr, "# probe %-10s %-5s seq=%-5v size=%-8d -> %.0f B/s, %.0f IOPS\n",
			p.name, p.op, p.seq, p.size, bps, iops)
	}

	fmt.Printf("%s ctrl=user model=linear rbps=%.0f rseqiops=%.0f rrandiops=%.0f wbps=%.0f wseqiops=%.0f wrandiops=%.0f\n",
		*devFlag,
		results["rbps"], results["rseqiops"], results["rrandiops"],
		results["wbps"], results["wseqiops"], results["wrandiops"])
}
