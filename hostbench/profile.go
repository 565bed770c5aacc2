package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the profile buckets: the isolbench/internal packages
// (iosched and ioctl fold their sub-packages; trace takes
// workload/gen; attr is obs/attr), then runtime frames (scheduler,
// allocator, GC) and everything else.
var layers = []string{
	"sim", "device", "blk", "iosched", "ioctl", "host", "workload", "trace",
	"metrics", "core", "cgroup", "obs", "attr", "shaper", "fault", "runtime", "other",
}

// namedLayers are the buckets that are isolbench layers.
var namedLayers = layers[:len(layers)-2]

// layerOf maps a leaf frame's function name to its bucket.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop generic type arguments
	}
	if rest, ok := strings.CutPrefix(fn, "isolbench/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		switch pkg {
		case "obs/attr":
			return "attr"
		case "workload/gen":
			return "trace"
		}
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, l := range namedLayers {
			if pkg == l {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// selfTimes runs `go tool pprof -top` on the CPU profiles at paths,
// which it merges, and sums each function's flat (self) CPU nanoseconds
// under its layer. pprof's flat time belongs to the innermost frame,
// inlined or not.
func selfTimes(paths []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=0", "-unit=ns"}, paths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(top)
}

// parseTop reads pprof's -top table: after the header row, each line
// is flat, flat%, sum%, cum, cum% and the function name, optionally
// followed by "(inline)".
func parseTop(top []byte) (map[string]float64, error) {
	out := make(map[string]float64, len(layers))
	table := false
	for _, line := range strings.Split(string(top), "\n") {
		f := strings.Fields(line)
		if !table {
			table = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		out[layerOf(strings.Join(f[5:], " "))] += ns
	}
	if !table {
		return nil, errors.New("pprof printed no -top table")
	}
	return out, nil
}
