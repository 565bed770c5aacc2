// Package obs is the observability layer threaded through the request
// path: stage-resolved latency spans (blktrace/biolatency-style),
// kernel-style per-cgroup io.stat counters and io.pressure PSI
// averages, and time series of controller internals (io.cost vrate and
// hweights, io.latency queue-depth decisions, io.max token balances,
// BFQ slice state).
//
// The layer is disabled by default: every component holds a *Observer
// that is nil unless the user asked for observability, and every
// exported method nil-checks its receiver, so the disabled path costs
// one predictable branch per hook site. When enabled, spans and series
// live in bounded ring buffers (oldest entries are overwritten and
// counted as dropped) so memory stays flat on long runs.
//
// The observer never schedules engine events, never draws random
// numbers, and never feeds anything back into the simulation, so a run
// produces bit-identical results with observability on or off — the
// property TestObsDeterminism pins down.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"isolbench/internal/device"
	"isolbench/internal/metrics"
	"isolbench/internal/obs/attr"
	"isolbench/internal/sim"
)

// Default ring capacities.
const (
	DefaultSpanCap   = 1 << 16 // completed-request spans kept
	DefaultSeriesCap = 1 << 13 // points kept per controller series
)

// Config bounds the observer's buffers.
type Config struct {
	SpanCap   int // max spans kept (0 = DefaultSpanCap)
	SeriesCap int // max points per series (0 = DefaultSeriesCap)

	// MaxCgroups bounds how many distinct cgroups get individual
	// accounting (io.stat counters, PSI, stage histograms, per-cgroup
	// series); 0 = unbounded. Once the bound is reached, further
	// cgroups aggregate into the FoldedCgroup bucket: totals (and the
	// paranoid byte-conservation checks built on them) stay exact,
	// only per-group detail is lost for the overflow. This is what
	// keeps a 10k-tenant fleet run's observer memory flat.
	MaxCgroups int
}

// FoldedCgroup is the reserved cgroup id under which cgroups beyond
// Config.MaxCgroups aggregate. (-1 is taken by device/controller-global
// series.)
const FoldedCgroup = -2

// Observer is the per-cluster observability hub. The zero of the
// *pointer* type — nil — is the disabled fast path; all methods are
// safe to call on a nil receiver and return immediately.
type Observer struct {
	cfg Config
	eng *sim.Engine

	// CgroupName, when set, resolves a cgroup id to a printable path
	// for exports (the cluster wires it; a func avoids importing the
	// cgroup package).
	CgroupName func(id int) string

	// Attr, when set, is the wait-for-whom tracker whose blame matrix
	// rides along in the JSONL export and names the dominant layer in
	// SLO incidents. The observer never writes to it.
	Attr *attr.Tracker

	spans spanRing

	groups map[int]*groupState   // per-cgroup accounting
	fold   map[int]int           // cgroup id -> canonical id under MaxCgroups
	folded int                   // distinct cgroup ids folded so far
	series map[seriesKey]*Series // controller internals
	order  []seriesKey           // stable series listing order
	devs   map[string]struct{}   // device names seen
	devsO  []string              // sorted device names
	psiWin [3]sim.Duration       // PSI averaging windows

	incidents []Incident // run-level aborts and invariant violations

	slo *sloMonitor // burn-rate SLO monitor (nil = off)

	// parts, when set, makes this observer a read-only merged view over
	// per-shard observers (NewMerged); its own state then holds only
	// the coordinator's incidents.
	parts []*Observer
}

// Incident kinds recorded by the resilience layer.
const (
	IncidentWatchdog  = "watchdog"  // engine watchdog aborted the unit
	IncidentCancel    = "cancel"    // the run context was canceled
	IncidentInvariant = "invariant" // paranoid conservation check failed
	IncidentSLO       = "slo-burn"  // multi-window burn-rate alert fired
	IncidentTelemetry = "telemetry" // span/series/trace rings dropped data
	IncidentShaper    = "shaper"    // adaptive shaper mode transition (freeze/fallback/resume)
)

// Incident is a run-level fault of the harness itself — a watchdog
// abort, a cancellation, or an invariant violation — stamped with the
// virtual time it was observed. Incidents ride along in the JSONL span
// export so aborted units stay diagnosable from their traces.
type Incident struct {
	Kind   string
	Detail string
	At     sim.Time
}

// psiWindows are the kernel's PSI averaging horizons.
var psiWindows = [3]sim.Duration{10 * sim.Second, 60 * sim.Second, 300 * sim.Second}

// New returns an enabled observer bound to the engine's virtual clock.
func New(eng *sim.Engine) *Observer { return NewWithConfig(eng, Config{}) }

// NewWithConfig returns an enabled observer with explicit buffer bounds.
func NewWithConfig(eng *sim.Engine, cfg Config) *Observer {
	if cfg.SpanCap <= 0 {
		cfg.SpanCap = DefaultSpanCap
	}
	if cfg.SeriesCap <= 0 {
		cfg.SeriesCap = DefaultSeriesCap
	}
	return &Observer{
		cfg:    cfg,
		eng:    eng,
		spans:  spanRing{cap: cfg.SpanCap},
		groups: make(map[int]*groupState),
		series: make(map[seriesKey]*Series),
		devs:   make(map[string]struct{}),
		psiWin: psiWindows,
	}
}

// Enabled reports whether the observer is collecting (non-nil).
func (o *Observer) Enabled() bool { return o != nil }

// groupState is everything tracked per cgroup.
type groupState struct {
	stat   map[string]*IOStat // per device name
	gauges map[string]map[string]float64
	psi    PSI
	hists  [NumStages]metrics.Histogram
	e2e    metrics.Histogram
}

// IOStat mirrors the kernel's per-device io.stat counters, extended
// with fault/recovery counters (zero on healthy runs, and omitted from
// StatFile lines while zero so healthy output is unchanged).
type IOStat struct {
	RBytes int64
	WBytes int64
	RIOs   uint64
	WIOs   uint64

	Errors   uint64 // requests failed up to the application
	Retries  uint64 // attempts resubmitted by the recovery path
	Timeouts uint64 // attempts the watchdog gave up on
}

// foldID canonicalizes a cgroup id under the MaxCgroups bound: the
// first MaxCgroups distinct ids keep themselves, every later id maps to
// FoldedCgroup. The mapping is sticky — once an id is assigned a
// canonical id it keeps it forever — so a cgroup's counters never split
// across buckets. Negative ids (global series, the fold bucket itself)
// pass through untouched.
func (o *Observer) foldID(id int) int {
	if o.cfg.MaxCgroups <= 0 || id < 0 {
		return id
	}
	if c, ok := o.fold[id]; ok {
		return c
	}
	if o.fold == nil {
		o.fold = make(map[int]int)
	}
	if len(o.fold)-o.folded < o.cfg.MaxCgroups {
		o.fold[id] = id
		return id
	}
	o.fold[id] = FoldedCgroup
	o.folded++
	return FoldedCgroup
}

// FoldedCgroups reports how many distinct cgroup ids were aggregated
// into the FoldedCgroup bucket because of Config.MaxCgroups.
func (o *Observer) FoldedCgroups() int {
	if o == nil {
		return 0
	}
	n := o.folded
	for _, p := range o.parts {
		n += p.folded
	}
	return n
}

func (o *Observer) groupFor(id int) *groupState {
	id = o.foldID(id)
	g, ok := o.groups[id]
	if !ok {
		g = &groupState{
			stat:   make(map[string]*IOStat),
			gauges: make(map[string]map[string]float64),
		}
		g.psi.init(o.eng.Now(), o.psiWin)
		o.groups[id] = g
	}
	return g
}

func (o *Observer) statFor(g *groupState, dev string) *IOStat {
	s, ok := g.stat[dev]
	if !ok {
		s = &IOStat{}
		g.stat[dev] = s
		if _, seen := o.devs[dev]; !seen {
			o.devs[dev] = struct{}{}
			o.devsO = append(o.devsO, dev)
			sort.Strings(o.devsO)
		}
	}
	return s
}

// --- request-path hooks -------------------------------------------------

// ThrottleBegin marks one request of the cgroup entering a controller's
// throttle queue (PSI stall pressure rises).
func (o *Observer) ThrottleBegin(cg int) {
	if o == nil {
		return
	}
	g := o.groupFor(cg)
	g.psi.fold(o.eng.Now())
	g.psi.throttled++
}

// ThrottleEnd marks one throttled request released toward the
// scheduler.
func (o *Observer) ThrottleEnd(cg int) {
	if o == nil {
		return
	}
	g := o.groupFor(cg)
	g.psi.fold(o.eng.Now())
	if g.psi.throttled > 0 {
		g.psi.throttled--
	}
}

// RunBegin marks one request of the cgroup making progress past the
// controllers (scheduler queue, device). While at least one request
// runs, a concurrently throttled cgroup is in "some" but not "full"
// pressure.
func (o *Observer) RunBegin(cg int) {
	if o == nil {
		return
	}
	g := o.groupFor(cg)
	g.psi.fold(o.eng.Now())
	g.psi.running++
}

// Completed observes a finished request on the named device: it closes
// the PSI running interval, bumps io.stat counters, and records the
// request's stage decomposition.
func (o *Observer) Completed(dev string, r *device.Request) {
	if o == nil {
		return
	}
	g := o.groupFor(r.Cgroup)
	g.psi.fold(o.eng.Now())
	if g.psi.running > 0 {
		g.psi.running--
	}
	st := o.statFor(g, dev)
	if r.Failed || r.TimedOut {
		// A permanently failed request moved no data: count it as an
		// error, keep it out of the latency histograms (its "latency"
		// is retry budget, not service time), but keep its span so the
		// failure is visible in traces.
		st.Errors++
		stages := stagesOf(r)
		o.spans.push(r, o.eng.Now(), &stages)
		return
	}
	if r.Op == device.Write {
		st.WBytes += r.Size
		st.WIOs++
	} else {
		st.RBytes += r.Size
		st.RIOs++
	}
	stages := stagesOf(r)
	for i := 0; i < int(NumStages); i++ {
		g.hists[i].Record(int64(stages[i]))
	}
	g.e2e.Record(int64(r.Latency()))
	o.spans.push(r, o.eng.Now(), &stages)
	if o.slo != nil {
		o.observeSLO(r.Cgroup, r.Latency())
	}
}

// RunEnd closes one PSI running interval without a completion — the
// recovery path uses it when an attempt failed and the request goes
// back through the path (which will RunBegin again), keeping the
// running counter balanced across retries.
func (o *Observer) RunEnd(cg int) {
	if o == nil {
		return
	}
	g := o.groupFor(cg)
	g.psi.fold(o.eng.Now())
	if g.psi.running > 0 {
		g.psi.running--
	}
}

// Retry counts one recovery resubmission for the cgroup on the device.
func (o *Observer) Retry(dev string, cg int) {
	if o == nil {
		return
	}
	o.statFor(o.groupFor(cg), dev).Retries++
}

// Timeout counts one watchdog expiry for the cgroup on the device.
func (o *Observer) Timeout(dev string, cg int) {
	if o == nil {
		return
	}
	o.statFor(o.groupFor(cg), dev).Timeouts++
}

// SetGauge publishes a controller-owned per-cgroup value (debt, delay,
// queue depth, ...) shown on the cgroup's io.stat line for the device.
func (o *Observer) SetGauge(dev string, cg int, key string, v float64) {
	if o == nil {
		return
	}
	g := o.groupFor(cg)
	m, ok := g.gauges[dev]
	if !ok {
		m = make(map[string]float64)
		g.gauges[dev] = m
	}
	m[key] = v
	o.statFor(g, dev) // register the device for formatting
}

// RecordIncident notes a run-level abort or invariant violation.
func (o *Observer) RecordIncident(kind, detail string) {
	if o == nil {
		return
	}
	o.incidents = append(o.incidents, Incident{Kind: kind, Detail: detail, At: o.eng.Now()})
}

// Incidents returns the recorded run-level incidents in order. A
// merged view orders them by (time, shard), the coordinator's own
// after the shards' at the same instant.
func (o *Observer) Incidents() []Incident {
	if o == nil {
		return nil
	}
	if o.parts != nil {
		return o.mergedIncidents()
	}
	return o.incidents
}

// --- spans --------------------------------------------------------------

// Spans returns the newest SpanCap spans in completion order; spans
// that completed at the same instant are ordered by cgroup, then by
// recording order. Neither the order nor the choice of spans depends
// on how the fleet was sharded: a cgroup's spans are all recorded by
// one engine, in the same order as on the single engine.
func (o *Observer) Spans() []Span {
	if o == nil {
		return nil
	}
	var ts []timedSpan
	if o.parts == nil {
		ts = o.spans.appendTo(make([]timedSpan, 0, o.spans.n))
	} else {
		for _, p := range o.parts {
			ts = p.spans.appendTo(ts)
		}
	}
	if len(ts) == 0 {
		return nil
	}
	sort.SliceStable(ts, func(i, j int) bool {
		if ts[i].at != ts[j].at {
			return ts[i].at < ts[j].at
		}
		return ts[i].sp.Cgroup < ts[j].sp.Cgroup
	})
	if n := len(ts) - o.cfg.SpanCap; n > 0 {
		ts = ts[n:]
	}
	out := make([]Span, len(ts))
	for i := range ts {
		out[i] = ts[i].sp
	}
	return out
}

// SpansDropped reports how many recorded spans Spans no longer
// returns: those older than the newest SpanCap, across every shard for
// a merged view.
func (o *Observer) SpansDropped() uint64 {
	if o == nil {
		return 0
	}
	pushed := o.spans.pushed
	for _, p := range o.parts {
		pushed += p.spans.pushed
	}
	return pushed - min(pushed, uint64(o.cfg.SpanCap))
}

// SeriesDropped reports the total points evicted across every series.
func (o *Observer) SeriesDropped() uint64 {
	if o == nil {
		return 0
	}
	var n uint64
	if o.parts != nil {
		for _, s := range o.AllSeries() {
			n += s.dropped
		}
		return n
	}
	for _, s := range o.series {
		n += s.dropped
	}
	return n
}

// NoteTelemetryDrops records a telemetry incident when any ring
// dropped data during the run, so truncated exports are flagged in
// the same stream they truncate. traceDropped covers an external
// recorder (the trace package); pass 0 when none is attached.
func (o *Observer) NoteTelemetryDrops(traceDropped uint64) {
	if o == nil {
		return
	}
	spans, series := o.SpansDropped(), o.SeriesDropped()
	if spans == 0 && series == 0 && traceDropped == 0 {
		return
	}
	o.RecordIncident(IncidentTelemetry,
		fmt.Sprintf("dropped spans=%d series_points=%d trace_events=%d", spans, series, traceDropped))
}

// Cgroups returns the ids of every cgroup that produced traffic,
// sorted.
func (o *Observer) Cgroups() []int {
	if o == nil {
		return nil
	}
	ids := make([]int, 0, len(o.groups))
	for id := range o.groups {
		ids = append(ids, id)
	}
	for _, p := range o.parts {
		for id := range p.groups {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// Devices returns every device name seen, sorted.
func (o *Observer) Devices() []string {
	if o == nil {
		return nil
	}
	if o.parts != nil {
		return o.mergedDevices()
	}
	return o.devsO
}

func (o *Observer) nameOf(id int) string {
	if id == FoldedCgroup {
		return "(folded)"
	}
	if o.CgroupName != nil {
		if n := o.CgroupName(id); n != "" {
			return n
		}
	}
	return "cgroup-" + strconv.Itoa(id)
}

// --- kernel-style files -------------------------------------------------

// StatFile renders the cgroup's io.stat: one line per device with the
// kernel's rbytes/wbytes/rios/wios (dbytes/dios are always 0 — the
// simulator has no discard path) followed by any controller gauges.
// ok is false when the cgroup produced no traffic.
func (o *Observer) StatFile(cg int) (string, bool) {
	if o == nil {
		return "", false
	}
	o = o.owner(cg)
	g, ok := o.groups[cg]
	if !ok {
		return "", false
	}
	var b strings.Builder
	for _, dev := range o.devsO {
		s, ok := g.stat[dev]
		if !ok {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s rbytes=%d wbytes=%d rios=%d wios=%d dbytes=0 dios=0",
			dev, s.RBytes, s.WBytes, s.RIOs, s.WIOs)
		// Recovery counters appear only once nonzero, so healthy runs
		// render the exact kernel io.stat shape.
		if s.Errors > 0 {
			fmt.Fprintf(&b, " errs=%d", s.Errors)
		}
		if s.Retries > 0 {
			fmt.Fprintf(&b, " retries=%d", s.Retries)
		}
		if s.Timeouts > 0 {
			fmt.Fprintf(&b, " timeouts=%d", s.Timeouts)
		}
		if m := g.gauges[dev]; len(m) > 0 {
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%s", k, strconv.FormatFloat(m[k], 'f', -1, 64))
			}
		}
	}
	return b.String(), true
}

// Stat returns a copy of the cgroup's io.stat counters for one device.
func (o *Observer) Stat(cg int, dev string) (IOStat, bool) {
	if o == nil {
		return IOStat{}, false
	}
	o = o.owner(cg)
	g, ok := o.groups[cg]
	if !ok {
		return IOStat{}, false
	}
	s, ok := g.stat[dev]
	if !ok {
		return IOStat{}, false
	}
	return *s, true
}

// PressureFile renders the cgroup's io.pressure in the kernel's PSI
// format: some/full lines with avg10/avg60/avg300 percentages and the
// cumulative stall total in microseconds.
func (o *Observer) PressureFile(cg int) (string, bool) {
	if o == nil {
		return "", false
	}
	o = o.owner(cg)
	g, ok := o.groups[cg]
	if !ok {
		return "", false
	}
	g.psi.fold(o.eng.Now())
	return g.psi.format(), true
}

// PSISnapshot exposes the cgroup's current PSI state (tests,
// summaries).
func (o *Observer) PSISnapshot(cg int) (PSI, bool) {
	if o == nil {
		return PSI{}, false
	}
	o = o.owner(cg)
	g, ok := o.groups[cg]
	if !ok {
		return PSI{}, false
	}
	g.psi.fold(o.eng.Now())
	return g.psi, true
}

// StageHistogram returns the cgroup's latency histogram for one stage
// (nil when the cgroup is unknown).
func (o *Observer) StageHistogram(cg int, st Stage) *metrics.Histogram {
	if o == nil {
		return nil
	}
	o = o.owner(cg)
	g, ok := o.groups[cg]
	if !ok {
		return nil
	}
	return &g.hists[st]
}

// --- summaries ----------------------------------------------------------

// StageSummary is one (cgroup, stage) row of the latency decomposition.
type StageSummary struct {
	Cgroup int
	Name   string
	Stage  Stage
	Count  uint64
	MeanNs float64
	P50Ns  int64
	P99Ns  int64
}

// Summary returns the per-cgroup per-stage latency decomposition plus
// an end-to-end row (Stage == NumStages) per cgroup, ordered by cgroup
// id then stage.
func (o *Observer) Summary() []StageSummary {
	if o == nil {
		return nil
	}
	var out []StageSummary
	for _, id := range o.Cgroups() {
		g := o.owner(id).groups[id]
		if g.e2e.Count() == 0 {
			continue
		}
		name := o.nameOf(id)
		for st := 0; st < int(NumStages); st++ {
			h := &g.hists[st]
			out = append(out, StageSummary{
				Cgroup: id, Name: name, Stage: Stage(st),
				Count: h.Count(), MeanNs: h.Mean(),
				P50Ns: h.Percentile(50), P99Ns: h.Percentile(99),
			})
		}
		out = append(out, StageSummary{
			Cgroup: id, Name: name, Stage: NumStages,
			Count: g.e2e.Count(), MeanNs: g.e2e.Mean(),
			P50Ns: g.e2e.Percentile(50), P99Ns: g.e2e.Percentile(99),
		})
	}
	return out
}
