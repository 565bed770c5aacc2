// Package attr implements wait-for-whom accounting: every place a
// request waits in the simulated stack charges the wait interval to
// the cgroup(s) occupying the contended resource, so a run explains
// *why* isolation failed, not just that it did.
//
// The model has three pieces:
//
//   - ReqBlame: a per-request critical-path breakdown. Each charge is
//     (layer, aggressor cgroup, duration); by construction the charges
//     exactly tile every recorded wait interval, so their sum equals
//     the request's total measured wait to the nanosecond.
//   - Ledger: a bounded ring of resource-occupancy segments
//     (who held the CPU core, the dispatch lock, the scheduler's
//     dispatch stream, the device's service slots, and when). Waits
//     are charged by overlapping the wait interval against the
//     segments; uncovered gaps fall back to the victim itself.
//   - Tracker: the per-run aggregate — an N×N blame matrix
//     (victim × aggressor × layer) bounded to the top-K distinct
//     aggressors per victim with an explicit `other` bucket, plus the
//     ReqBlame free list and strict conservation checking.
//
// The tracker never schedules engine events and never draws from any
// RNG: with attribution off every hook is a nil-receiver no-op, so the
// event stream is byte-identical either way.
package attr

import (
	"fmt"
	"sort"

	"isolbench/internal/sim"
)

// Layer identifies the queueing point a wait was measured at.
type Layer int8

// The attribution layers. They refine the obs stage tiling: a span's
// sched stage may split into sched (behind other streams) and
// sched-idle (a BFQ slice-idle hold), and its devqueue stage into
// devqueue (channel contention) and gc (collection stalls).
const (
	// LayerCPU: host CPU FIFO wait on the submission or reap path.
	LayerCPU Layer = iota
	// LayerThrottle: cgroup-controller hold (io.max tokens, io.latency
	// queue-depth gate, io.cost vtime debt).
	LayerThrottle
	// LayerSched: scheduler queue residency behind other streams.
	LayerSched
	// LayerSchedIdle: BFQ slice idling — the device kept deliberately
	// idle on behalf of the owning queue.
	LayerSchedIdle
	// LayerDispatch: dispatch-lock serialization.
	LayerDispatch
	// LayerDevQueue: in-device wait for a free flash channel.
	LayerDevQueue
	// LayerGC: device garbage collection seizing channels.
	LayerGC
	// LayerRetry: recovery-path backoff between attempts.
	LayerRetry
	// LayerShaper: a hold imposed by the closed-loop adaptive shaper's
	// io.max rewrites (so adaptive throttling is blamed on the shaper's
	// decisions, not conflated with static io.max configuration).
	LayerShaper
	// NumLayers counts the layers.
	NumLayers
)

func (l Layer) String() string {
	switch l {
	case LayerCPU:
		return "cpu"
	case LayerThrottle:
		return "throttle"
	case LayerSched:
		return "sched"
	case LayerSchedIdle:
		return "sched-idle"
	case LayerDispatch:
		return "dispatch"
	case LayerDevQueue:
		return "devqueue"
	case LayerGC:
		return "gc"
	case LayerRetry:
		return "retry"
	case LayerShaper:
		return "shaper"
	default:
		return "?"
	}
}

// Other is the aggressor id of the per-victim overflow bucket: once a
// victim has TopK distinct non-self aggressors, further ones aggregate
// here so the matrix stays bounded at fleet scale.
const Other = -1

// FoldedVictim is the victim id of the row-overflow bucket: once the
// tracker holds MaxVictims distinct victim rows, later victims
// aggregate here. Together with Other this bounds the matrix in both
// dimensions, so attribution memory stays flat at thousands of cgroups.
const FoldedVictim = -2

// Charge is one attributed slice of a request's wait.
type Charge struct {
	Layer Layer
	Aggr  int // aggressor cgroup id; Other = aggregated overflow
	D     sim.Duration
}

// ReqBlame accumulates one request's wait decomposition. Charges are
// merged per (layer, aggressor); Waited is the total wait recorded, and
// the invariant sum(Charges) == Waited holds exactly by construction.
type ReqBlame struct {
	charges []Charge
	waited  sim.Duration
	mark    sim.Time // hold start stamped by Tracker.HoldBegin
}

// Waited returns the total wait recorded so far.
func (b *ReqBlame) Waited() sim.Duration {
	if b == nil {
		return 0
	}
	return b.waited
}

// Charges returns the live merged charge list (valid until Finish).
func (b *ReqBlame) Charges() []Charge {
	if b == nil {
		return nil
	}
	return b.charges
}

// add merges d into the (layer, aggr) charge. The per-request list is
// short (layers × distinct aggressors seen on this request's path), so
// a linear scan beats a map.
func (b *ReqBlame) add(l Layer, aggr int, d sim.Duration) {
	if d <= 0 {
		return
	}
	for i := range b.charges {
		if b.charges[i].Layer == l && b.charges[i].Aggr == aggr {
			b.charges[i].D += d
			return
		}
	}
	b.charges = append(b.charges, Charge{Layer: l, Aggr: aggr, D: d})
}

// AggrWeight is one aggressor's share weight in a proportional split.
type AggrWeight struct {
	Aggr int
	W    float64
}

// Cell is one blame-matrix entry: victim waited D at Layer because of
// Aggr.
type Cell struct {
	Victim int
	Layer  Layer
	Aggr   int
	D      sim.Duration
}

// Config bounds and hardens a Tracker.
type Config struct {
	// TopK is the number of distinct non-self aggressors tracked per
	// victim before folding into the Other bucket (default 8).
	TopK int
	// Strict records a violation whenever a finished request's charges
	// do not sum to its measured wait (armed by -paranoid).
	Strict bool
	// LedgerCap bounds each occupancy ledger's segment ring
	// (default 4096).
	LedgerCap int
	// MaxVictims bounds the number of distinct victim rows before later
	// victims fold into the FoldedVictim row (0 = unbounded). Blame
	// conservation is unaffected — every charge still lands somewhere.
	MaxVictims int
}

func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = 8
	}
	if c.LedgerCap <= 0 {
		c.LedgerCap = 4096
	}
	return c
}

// victimState is one matrix row group: per-aggressor per-layer totals.
type victimState struct {
	total    sim.Duration
	agg      map[int]*[NumLayers]sim.Duration
	aggOrder []int
	distinct int // non-self, non-Other aggressors tracked
}

// Tracker is the per-run attribution aggregate. A nil *Tracker is the
// disabled state: every method no-ops, so call sites need no flag.
type Tracker struct {
	eng *sim.Engine
	cfg Config

	victims map[int]*victimState
	order   []int
	foldedV int // distinct victim ids folded into FoldedVictim
	foldMap map[int]struct{}

	free       []*ReqBlame
	finished   uint64
	violations []string

	// parts, when set, makes this tracker a read-only merged view over
	// per-shard trackers (NewMerged).
	parts []*Tracker
}

// NewTracker returns an enabled tracker on the given engine.
func NewTracker(eng *sim.Engine, cfg Config) *Tracker {
	return &Tracker{
		eng:     eng,
		cfg:     cfg.withDefaults(),
		victims: make(map[int]*victimState),
	}
}

// NewMerged returns a read-only view over per-shard trackers. The
// fleet binds each cgroup to one shard, so every victim row lives in
// exactly one part: victim reads route to that part, the matrix is the
// union of the parts' rows, and the finished and folded counts are
// summed. Reads are safe only while no shard runs.
func NewMerged(parts []*Tracker) *Tracker { return &Tracker{parts: parts} }

// owner returns the tracker holding victim's row: t itself, or for a
// merged view the part that finished the victim's requests.
func (t *Tracker) owner(victim int) *Tracker {
	for _, p := range t.parts {
		if _, ok := p.victims[victim]; ok {
			return p
		}
	}
	return t
}

// LedgerCap returns the configured per-ledger segment capacity.
func (t *Tracker) LedgerCap() int {
	if t == nil {
		return 0
	}
	return t.cfg.LedgerCap
}

// NewLedger returns a ledger sized by the tracker's config, or nil when
// the tracker is disabled — wiring code can call it unconditionally.
func (t *Tracker) NewLedger(def Layer) *Ledger {
	if t == nil {
		return nil
	}
	return NewLedger(def, t.cfg.LedgerCap)
}

// NewReq returns a fresh (pooled) per-request blame record, or nil when
// the tracker is disabled.
func (t *Tracker) NewReq() *ReqBlame {
	if t == nil {
		return nil
	}
	if n := len(t.free); n > 0 {
		b := t.free[n-1]
		t.free = t.free[:n-1]
		b.charges = b.charges[:0]
		b.waited = 0
		b.mark = 0
		return b
	}
	return &ReqBlame{charges: make([]Charge, 0, 8)}
}

// HoldBegin stamps the start of a controller hold on b.
func (t *Tracker) HoldBegin(b *ReqBlame) {
	if t == nil || b == nil {
		return
	}
	b.mark = t.eng.Now()
}

// ChargeHold charges the interval since HoldBegin wholly to aggr.
func (t *Tracker) ChargeHold(b *ReqBlame, l Layer, aggr int) {
	if t == nil || b == nil {
		return
	}
	d := t.eng.Now().Sub(b.mark)
	if d <= 0 {
		return
	}
	b.waited += d
	b.add(l, aggr, d)
}

// ChargeHoldSplit splits the interval since HoldBegin across ws in
// proportion to their weights; any integer remainder (and the whole
// hold when ws is empty or weightless) goes to self. The split is
// deterministic: callers pass ws in a deterministic order.
func (t *Tracker) ChargeHoldSplit(b *ReqBlame, l Layer, ws []AggrWeight, self int) {
	if t == nil || b == nil {
		return
	}
	t.ChargeSplit(b, l, ws, self, t.eng.Now().Sub(b.mark))
}

// ChargeSplit splits duration d across ws proportionally to weight,
// assigning the integer remainder (and the whole of d when ws carries
// no weight) to self. Exactly d is charged in total.
func (t *Tracker) ChargeSplit(b *ReqBlame, l Layer, ws []AggrWeight, self int, d sim.Duration) {
	if t == nil || b == nil || d <= 0 {
		return
	}
	b.waited += d
	var wsum float64
	for _, w := range ws {
		if w.W > 0 {
			wsum += w.W
		}
	}
	if wsum <= 0 {
		b.add(l, self, d)
		return
	}
	var assigned sim.Duration
	for _, w := range ws {
		if w.W <= 0 {
			continue
		}
		di := sim.Duration(float64(d) * w.W / wsum)
		if di > d-assigned {
			di = d - assigned
		}
		b.add(l, w.Aggr, di)
		assigned += di
	}
	if rem := d - assigned; rem > 0 {
		b.add(l, self, rem)
	}
}

// ChargeInterval charges a known duration d (e.g. a retry backoff) at
// layer l to aggr.
func (t *Tracker) ChargeInterval(b *ReqBlame, l Layer, aggr int, d sim.Duration) {
	if t == nil || b == nil || d <= 0 {
		return
	}
	b.waited += d
	b.add(l, aggr, d)
}

// Finish folds b into victim's matrix row, checks conservation, and
// returns b to the pool. b must not be used afterwards.
func (t *Tracker) Finish(victim int, b *ReqBlame) {
	if t == nil || b == nil {
		return
	}
	t.finished++
	if t.cfg.Strict {
		var sum sim.Duration
		for _, c := range b.charges {
			sum += c.D
		}
		if sum != b.waited {
			if len(t.violations) < 16 {
				t.violations = append(t.violations, fmt.Sprintf(
					"attr: cgroup %d request blame sum %d ns != measured wait %d ns",
					victim, int64(sum), int64(b.waited)))
			}
		}
	}
	// Row-overflow fold: a victim without a row of its own folds into
	// FoldedVictim once the tracker is at capacity. The choice is
	// sticky by construction — a victim that got a row before the cap
	// keeps it, one that didn't never will.
	if t.cfg.MaxVictims > 0 && victim != FoldedVictim {
		if _, ok := t.victims[victim]; !ok && len(t.victims) >= t.cfg.MaxVictims {
			if t.foldMap == nil {
				t.foldMap = make(map[int]struct{})
			}
			if _, seen := t.foldMap[victim]; !seen {
				t.foldMap[victim] = struct{}{}
				t.foldedV++
			}
			victim = FoldedVictim
		}
	}
	v := t.victims[victim]
	if v == nil {
		v = &victimState{agg: make(map[int]*[NumLayers]sim.Duration)}
		t.victims[victim] = v
		t.order = append(t.order, victim)
	}
	for _, c := range b.charges {
		aggr := c.Aggr
		row, ok := v.agg[aggr]
		if !ok {
			if aggr != victim && aggr != Other && v.distinct >= t.cfg.TopK {
				aggr = Other
				row, ok = v.agg[Other]
			}
		}
		if !ok {
			row = new([NumLayers]sim.Duration)
			v.agg[aggr] = row
			v.aggOrder = append(v.aggOrder, aggr)
			if aggr != victim && aggr != Other {
				v.distinct++
			}
		}
		row[c.Layer] += c.D
		v.total += c.D
	}
	if len(t.free) < 1024 {
		t.free = append(t.free, b)
	}
}

// FoldedVictims reports how many distinct victim ids were aggregated
// into the FoldedVictim row because of Config.MaxVictims.
func (t *Tracker) FoldedVictims() int {
	if t == nil {
		return 0
	}
	n := t.foldedV
	for _, p := range t.parts {
		n += p.foldedV
	}
	return n
}

// Finished returns how many blame records were folded into the matrix.
func (t *Tracker) Finished() uint64 {
	if t == nil {
		return 0
	}
	n := t.finished
	for _, p := range t.parts {
		n += p.finished
	}
	return n
}

// Violations returns the strict-mode conservation failures recorded so
// far (empty on a healthy run).
func (t *Tracker) Violations() []string {
	if t == nil {
		return nil
	}
	if t.parts == nil {
		return t.violations
	}
	var out []string
	for _, p := range t.parts {
		out = append(out, p.violations...)
	}
	return out
}

// Victims returns the victim cgroup ids in sorted order.
func (t *Tracker) Victims() []int {
	if t == nil {
		return nil
	}
	out := make([]int, len(t.order))
	copy(out, t.order)
	for _, p := range t.parts {
		out = append(out, p.order...)
	}
	sort.Ints(out)
	return out
}

// VictimTotal returns the victim's total attributed wait.
func (t *Tracker) VictimTotal(victim int) sim.Duration {
	if t == nil {
		return 0
	}
	v := t.owner(victim).victims[victim]
	if v == nil {
		return 0
	}
	return v.total
}

// Cells returns the full blame matrix sorted by (victim, aggressor,
// layer), zero cells omitted — a deterministic export regardless of
// map iteration order.
func (t *Tracker) Cells() []Cell {
	if t == nil {
		return nil
	}
	var out []Cell
	for _, vid := range t.Victims() {
		v := t.owner(vid).victims[vid]
		aggs := make([]int, len(v.aggOrder))
		copy(aggs, v.aggOrder)
		sort.Ints(aggs)
		for _, a := range aggs {
			row := v.agg[a]
			for l := Layer(0); l < NumLayers; l++ {
				if row[l] > 0 {
					out = append(out, Cell{Victim: vid, Layer: l, Aggr: a, D: row[l]})
				}
			}
		}
	}
	return out
}

// TopCell returns the victim's largest single blame cell and its share
// of the victim's total wait (ok=false when the victim has none).
func (t *Tracker) TopCell(victim int) (c Cell, share float64, ok bool) {
	if t == nil {
		return Cell{}, 0, false
	}
	v := t.owner(victim).victims[victim]
	if v == nil || v.total <= 0 {
		return Cell{}, 0, false
	}
	aggs := make([]int, len(v.aggOrder))
	copy(aggs, v.aggOrder)
	sort.Ints(aggs)
	for _, a := range aggs {
		row := v.agg[a]
		for l := Layer(0); l < NumLayers; l++ {
			if row[l] > c.D {
				c = Cell{Victim: victim, Layer: l, Aggr: a, D: row[l]}
			}
		}
	}
	if c.D <= 0 {
		return Cell{}, 0, false
	}
	return c, float64(c.D) / float64(v.total), true
}

// TopLayer returns the victim's dominant wait layer (summed over
// aggressors) and its share of the victim's total wait.
func (t *Tracker) TopLayer(victim int) (l Layer, share float64, ok bool) {
	if t == nil {
		return 0, 0, false
	}
	v := t.owner(victim).victims[victim]
	if v == nil || v.total <= 0 {
		return 0, 0, false
	}
	var layers [NumLayers]sim.Duration
	for _, row := range v.agg {
		for i := Layer(0); i < NumLayers; i++ {
			layers[i] += row[i]
		}
	}
	var best sim.Duration
	for i := Layer(0); i < NumLayers; i++ {
		if layers[i] > best {
			best, l = layers[i], i
		}
	}
	if best <= 0 {
		return 0, 0, false
	}
	return l, float64(best) / float64(v.total), true
}
