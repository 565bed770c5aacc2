// Package isolbench is a Go reproduction of isol-bench, the storage
// performance-isolation benchmark from "Does Linux Provide Performance
// Isolation for NVMe SSDs? Configuring cgroups for I/O Control in the
// NVMe Era" (IISWC 2025).
//
// The package evaluates the four performance-isolation desiderata the
// paper distills from its survey — (D1) low overhead and scalability,
// (D2) proportional fairness, (D3) prioritization/utilization
// trade-offs, and (D4) priority-burst support — for every cgroups I/O
// control knob: io.prio.class + MQ-Deadline, io.bfq.weight + BFQ,
// io.max, io.latency, and io.cost + io.weight.
//
// Because the original benchmark drives real NVMe SSDs through the
// Linux kernel, this reproduction ships its own testbed: a
// discrete-event NVMe device model, a host CPU model, a cgroup-v2
// hierarchy, and from-scratch implementations of all five I/O control
// mechanisms. Everything runs in deterministic virtual time; no root,
// no hardware.
//
// Quick start:
//
//	res, err := isolbench.Fairness(isolbench.FairnessConfig{
//		Knob:   isolbench.KnobIOCost,
//		Groups: 4,
//	})
//
// The cmd/isolbench CLI regenerates every table and figure of the
// paper's evaluation; see EXPERIMENTS.md for paper-vs-measured values.
package isolbench

import (
	"io"

	"isolbench/internal/core"
)

// Knob identifies a cgroups I/O control configuration.
type Knob = core.Knob

// The evaluated knobs (KnobNone is the no-control baseline).
const (
	KnobNone       = core.KnobNone
	KnobMQDeadline = core.KnobMQDeadline
	KnobBFQ        = core.KnobBFQ
	KnobIOMax      = core.KnobIOMax
	KnobIOLatency  = core.KnobIOLatency
	KnobIOCost     = core.KnobIOCost
	// KnobAdaptive is the closed-loop shaper (opt-in sixth knob; not
	// part of AllKnobs/ControlKnobs).
	KnobAdaptive = core.KnobAdaptive
)

// AllKnobs returns every knob including the baseline.
func AllKnobs() []Knob { return core.AllKnobs() }

// ControlKnobs returns the five control knobs (no baseline).
func ControlKnobs() []Knob { return core.ControlKnobs() }

// ParseKnob resolves a knob name ("io.cost", "bfq", "mq-deadline", ...).
func ParseKnob(s string) (Knob, error) { return core.ParseKnob(s) }

// Re-exported experiment configuration and result types. See the
// internal/core package documentation for field details.
type (
	// LatencyScalingConfig parameterizes the Fig. 3 experiment
	// (LC-app latency/CPU scaling on one core).
	LatencyScalingConfig = core.LatencyScalingConfig
	// LatencyScalingPoint is one Fig. 3 sample.
	LatencyScalingPoint = core.LatencyScalingPoint
	// BandwidthScalingConfig parameterizes the Fig. 4 experiment
	// (batch-app bandwidth scaling over 1..N SSDs).
	BandwidthScalingConfig = core.BandwidthScalingConfig
	// BandwidthScalingPoint is one Fig. 4 sample.
	BandwidthScalingPoint = core.BandwidthScalingPoint
	// FairnessConfig parameterizes a Fig. 5/6 fairness cell.
	FairnessConfig = core.FairnessConfig
	// FairnessResult is a fairness cell outcome with repeat stats.
	FairnessResult = core.FairnessResult
	// FairnessMix selects the fairness workload heterogeneity.
	FairnessMix = core.FairnessMix
	// TradeoffConfig parameterizes a Fig. 7 panel.
	TradeoffConfig = core.TradeoffConfig
	// TradeoffPoint is one point in the priority/utilization plane.
	TradeoffPoint = core.TradeoffPoint
	// PriorityKind selects the prioritized app type (batch or LC).
	PriorityKind = core.PriorityKind
	// BEVariant selects the best-effort apps' workload.
	BEVariant = core.BEVariant
	// BurstConfig parameterizes the Q10 burst-response experiment.
	BurstConfig = core.BurstConfig
	// BurstResult is a Q10 outcome.
	BurstResult = core.BurstResult
	// IllustrateConfig parameterizes the Fig. 2 timelines.
	IllustrateConfig = core.IllustrateConfig
	// TimelineSeries is one app's bandwidth-over-time series.
	TimelineSeries = core.TimelineSeries
	// TableIConfig parameterizes the Table I derivation.
	TableIConfig = core.TableIConfig
	// DesiderataRow is one knob's Table I row.
	DesiderataRow = core.DesiderataRow
	// Verdict is one Table I cell.
	Verdict = core.Verdict

	// Options assembles a custom testbed; Fleet gives full control
	// over groups, apps, and knob files for scenarios beyond the
	// paper's.
	Options = core.Options
	// Fleet is an assembled testbed.
	Fleet = core.Fleet
)

// Fairness workload mixes.
const (
	MixUniform   = core.MixUniform
	MixSizes     = core.MixSizes
	MixPatterns  = core.MixPatterns
	MixReadWrite = core.MixReadWrite
)

// Priority app kinds and BE variants.
const (
	PriorityBatch = core.PriorityBatch
	PriorityLC    = core.PriorityLC
	BE4KRand      = core.BE4KRand
	BE4KSeq       = core.BE4KSeq
	BE256K        = core.BE256K
	BE4KWrite     = core.BE4KWrite
)

// Verdict levels.
const (
	Bad     = core.Bad
	Partial = core.Partial
	Good    = core.Good
)

// NewFleet assembles a custom testbed for scenarios beyond the
// paper's canned experiments.
func NewFleet(opts Options) (*Fleet, error) { return core.NewFleet(opts) }

// LatencyScaling runs the Fig. 3 experiment (D1): LC-apps scaling on a
// single CPU core.
func LatencyScaling(cfg LatencyScalingConfig) ([]LatencyScalingPoint, error) {
	return core.RunLatencyScaling(cfg)
}

// BandwidthScaling runs the Fig. 4 experiment (D1): batch-app
// bandwidth scalability across SSDs.
func BandwidthScaling(cfg BandwidthScalingConfig) ([]BandwidthScalingPoint, error) {
	return core.RunBandwidthScaling(cfg)
}

// Fairness runs one Fig. 5/6 fairness cell (D2).
func Fairness(cfg FairnessConfig) (*FairnessResult, error) {
	return core.RunFairness(cfg)
}

// Tradeoff sweeps one knob's configuration space for a Fig. 7 panel
// (D3).
func Tradeoff(cfg TradeoffConfig) ([]TradeoffPoint, error) {
	return core.RunTradeoff(cfg)
}

// Burst measures a knob's response time to a priority burst (D4, Q10).
func Burst(cfg BurstConfig) (*BurstResult, error) {
	return core.RunBurst(cfg)
}

// Illustrate reproduces one Fig. 2 panel: three staggered rate-limited
// apps under a knob.
func Illustrate(cfg IllustrateConfig) ([]TimelineSeries, error) {
	return core.RunIllustrate(cfg)
}

// TableI derives the paper's Table I desiderata summary from fresh
// measurements.
func TableI(cfg TableIConfig) ([]DesiderataRow, error) {
	return core.RunTableI(cfg)
}

// WriteTableI renders Table I rows.
func WriteTableI(w io.Writer, rows []DesiderataRow, withEvidence bool) {
	core.WriteTableI(w, rows, withEvidence)
}
