// Package device implements a discrete-event performance model of an
// NVMe SSD: parallel flash channels bound the IOPS/latency envelope, a
// shared-medium pipe (processor-sharing) bounds aggregate bandwidth,
// and a write-amplification + garbage-collection model reproduces the
// flash idiosyncrasies the paper's knobs trip over (read/write
// asymmetry, request-size sensitivity, GC tail latency).
//
// The model is calibrated against the two SSDs of the paper's testbed:
// a Samsung 980 PRO-class flash drive and an Intel Optane-class drive
// (see Flash980Profile and OptaneProfile).
package device

import (
	"fmt"
	"strings"

	"isolbench/internal/sim"
)

// Op is the I/O operation type.
type Op uint8

// Operation kinds.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// Profile is a device performance model. All rates are bytes per
// second; all times are virtual durations.
type Profile struct {
	Name string

	// Channels is the number of parallel service units (flash channels
	// x planes). Together with access times it bounds IOPS:
	// max IOPS ~= Channels / access.
	Channels int

	// MaxQD is the device-internal queue depth (nr_requests): how many
	// requests the device accepts before the block layer must hold
	// them back.
	MaxQD int

	// Access times model the medium latency component per request.
	ReadAccess     sim.Duration // random read (flash page read + FTL)
	SeqReadAccess  sim.Duration // sequential read (readahead-friendly)
	WriteAccess    sim.Duration // write into the SLC/DRAM buffer
	SeqWriteAccess sim.Duration

	// AccessJitter scales access times by U[1-j, 1+j].
	AccessJitter float64
	// CollisionFactor models die-level contention: with probability
	// busy/Channels an arriving request waits behind another request
	// on the same die for an exponential extra delay with mean
	// CollisionFactor * access. This is what makes latency grow with
	// utilization well before bandwidth saturates — the latency knee
	// that io.latency and io.cost.qos react to.
	CollisionFactor float64
	// TailProb is the probability a request suffers a slow-path access
	// (FTL miss, die collision) of TailFactor x the base access time.
	TailProb   float64
	TailFactor float64

	// Pipe rates: the shared-medium bandwidth for each traffic kind.
	ReadRate     float64 // random read aggregate ceiling
	SeqReadRate  float64 // sequential read ceiling (>= ReadRate)
	WriteRate    float64 // write burst ceiling (SLC), before amplification
	SeqWriteRate float64

	// RWInterference inflates the pipe cost of reads while writes are
	// active (flash programs block die reads): readCost *= 1 +
	// RWInterference * writeShare.
	RWInterference float64

	// Write amplification: fresh devices absorb writes at WriteAmpFresh
	// (~1, SLC cache); once cumulative writes exceed FreshBytes the
	// device behaves preconditioned and uses WriteAmpSteady.
	WriteAmpFresh  float64
	WriteAmpSteady float64
	FreshBytes     int64

	// Garbage collection: each amplified write byte adds debt; when
	// debt exceeds GCHighBytes the device seizes GCChannels channels
	// and drains debt at GCDrainRate until below GCLowBytes. While GC
	// is active, writes occasionally stall by GCStall.
	GCHighBytes  int64
	GCLowBytes   int64
	GCChannels   int
	GCDrainRate  float64 // debt bytes retired per second
	GCStallProb  float64
	GCStall      sim.Duration
	CapacityByte int64
}

// Validate reports whether the profile is internally consistent.
func (p *Profile) Validate() error {
	switch {
	case p.Channels <= 0:
		return errField("Channels")
	case p.MaxQD <= 0:
		return errField("MaxQD")
	case p.ReadAccess <= 0 || p.WriteAccess <= 0:
		return errField("access times")
	case p.ReadRate <= 0 || p.WriteRate <= 0:
		return errField("pipe rates")
	case p.WriteAmpFresh < 1 || p.WriteAmpSteady < 1:
		return errField("write amplification")
	case p.GCChannels < 0 || p.GCChannels >= p.Channels:
		return errField("GCChannels")
	}
	return nil
}

type errField string

func (e errField) Error() string { return "device: invalid profile field: " + string(e) }

// Flash980Profile models a Samsung 980 PRO-class 1 TB flash SSD, the
// paper's primary device: ~80 us 4 KiB random-read latency at QD1,
// ~2.9 GiB/s 4 KiB random-read saturation, fast but amplifying writes,
// and heavy read/write interference once preconditioned.
func Flash980Profile() Profile {
	return Profile{
		Name:            "flash980",
		Channels:        64,
		MaxQD:           1024,
		ReadAccess:      75 * sim.Microsecond,
		SeqReadAccess:   30 * sim.Microsecond,
		WriteAccess:     22 * sim.Microsecond,
		SeqWriteAccess:  18 * sim.Microsecond,
		AccessJitter:    0.08,
		CollisionFactor: 0.45,
		TailProb:        0.004,
		TailFactor:      4.0,
		ReadRate:        3.5e9,
		SeqReadRate:     6.4e9,
		WriteRate:       2.6e9,
		SeqWriteRate:    4.0e9,
		RWInterference:  8.0,
		WriteAmpFresh:   1.0,
		WriteAmpSteady:  3.0,
		FreshBytes:      80 << 30, // ~80 GiB SLC-ish region
		GCHighBytes:     256 << 20,
		GCLowBytes:      64 << 20,
		GCChannels:      12,
		GCDrainRate:     2.0e9,
		GCStallProb:     0.02,
		GCStall:         1800 * sim.Microsecond,
		CapacityByte:    1 << 40,
	}
}

// OptaneProfile models an Intel Optane 900P-class SSD: a non-flash
// device with a flat performance model — low symmetric access latency,
// no write amplification, no GC, and no read/write interference. The
// paper uses it to confirm results on a different device model.
func OptaneProfile() Profile {
	return Profile{
		Name:            "optane",
		Channels:        7,
		MaxQD:           1024,
		ReadAccess:      11 * sim.Microsecond,
		SeqReadAccess:   10 * sim.Microsecond,
		WriteAccess:     11 * sim.Microsecond,
		SeqWriteAccess:  10 * sim.Microsecond,
		AccessJitter:    0.05,
		CollisionFactor: 0.12,
		TailProb:        0.001,
		TailFactor:      2.5,
		ReadRate:        2.5e9,
		SeqReadRate:     2.6e9,
		WriteRate:       2.2e9,
		SeqWriteRate:    2.3e9,
		RWInterference:  0.3,
		WriteAmpFresh:   1.0,
		WriteAmpSteady:  1.0,
		FreshBytes:      1 << 40,
		GCHighBytes:     1 << 62,
		GCLowBytes:      1 << 61,
		GCChannels:      0,
		GCDrainRate:     1,
		GCStallProb:     0,
		GCStall:         0,
		CapacityByte:    280 << 30,
	}
}

// builtinProfiles holds the built-in profiles' constructors, in the
// order ProfileNames lists them; each profile's Name is its lookup key.
var builtinProfiles = []func() Profile{Flash980Profile, OptaneProfile}

// ProfileByName returns a named built-in profile. Unknown names are an
// error — a typoed -profile must fail loudly, not silently measure the
// wrong device.
func ProfileByName(name string) (Profile, error) {
	for _, mk := range builtinProfiles {
		if p := mk(); p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("device: unknown profile %q (known: %s)", name, strings.Join(ProfileNames(), ", "))
}

// ProfileNames lists the built-in profile names accepted by
// ProfileByName.
func ProfileNames() []string {
	out := make([]string, len(builtinProfiles))
	for i, mk := range builtinProfiles {
		out[i] = mk().Name
	}
	return out
}
