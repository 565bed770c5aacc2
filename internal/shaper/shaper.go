package shaper

import (
	"fmt"
	"sort"

	"isolbench/internal/cgroup"
	"isolbench/internal/obs"
	"isolbench/internal/sim"
)

// Shaper is the impure half of the adaptive knob: one instance per
// device column. It owns a persistent self-rescheduling engine callback
// that fires every Config.Window, reduces the observer's cumulative
// counters to a Window of per-group deltas (estimate), advances the
// pure controller (Decide), and writes the resulting io.max lines
// through the cgroup layer (apply). All three steps run on the engine
// clock — the shaper never reads wall time — so adaptive runs are
// byte-identical across -workers, -shards, and interrupt/resume.
type Shaper struct {
	eng  *sim.Engine
	tree *cgroup.Tree
	dev  string
	cfg  Config
	st   State

	// Obs is the signal source. The shaper is estimate-only with
	// respect to observability: a nil observer means no signals, and
	// the loop idles fully open rather than guessing.
	Obs *obs.Observer

	groups  map[int]*cgroup.Group
	prev    map[int]prevSig
	applied map[int]float64 // last io.max bps written per group (0 = open)

	tickCB sim.Callback
}

// prevSig is the cumulative-counter snapshot used to form per-window
// deltas.
type prevSig struct {
	bytes int64
	ios   uint64
	some  sim.Duration
	full  sim.Duration
}

// New builds a shaper for one device and starts its window tick on the
// engine. Groups must be added with Register before they are shaped.
func New(eng *sim.Engine, tree *cgroup.Tree, dev string, cfg Config) *Shaper {
	cfg = cfg.withDefaults()
	s := &Shaper{
		eng:     eng,
		tree:    tree,
		dev:     dev,
		cfg:     cfg,
		st:      NewState(cfg),
		groups:  make(map[int]*cgroup.Group),
		prev:    make(map[int]prevSig),
		applied: make(map[int]float64),
	}
	s.tickCB = func(any) { s.tick() }
	s.eng.AfterCall(cfg.Window, s.tickCB, nil)
	return s
}

// Mode returns the controller's current ladder position.
func (s *Shaper) Mode() Mode { return s.st.Mode }

// State returns a copy of the controller state (for tests and reports).
func (s *Shaper) State() State { return s.st.clone() }

// Register adds a cgroup to the shaped set. Registration is idempotent;
// groups with no traffic on this shaper's device are carried but never
// capped, so registering every group with every column's shaper is
// safe in multi-device fleets.
func (s *Shaper) Register(g *cgroup.Group) {
	if g == nil || g.ID() == 0 {
		return
	}
	s.groups[g.ID()] = g
}

// Forget drops a removed cgroup: its signal snapshots, applied cap,
// and controller memory are all released so a recycled id starts
// clean.
func (s *Shaper) Forget(id int) {
	delete(s.groups, id)
	delete(s.prev, id)
	delete(s.applied, id)
	delete(s.st.Targets, id)
	delete(s.st.LastGood, id)
}

// tick is the per-window control step: estimate → decide → apply, then
// re-arm.
func (s *Shaper) tick() {
	w := s.estimate()
	before := s.st.Mode
	st, targets := Decide(s.cfg, s.st, w)
	s.st = st
	if st.Mode != before {
		s.Obs.RecordIncident(obs.IncidentShaper,
			fmt.Sprintf("%s: %s -> %s (%s)", s.dev, before, st.Mode, st.Reason))
	}
	s.apply(targets)
	s.sample()
	s.eng.AfterCall(s.cfg.Window, s.tickCB, nil)
}

// estimate reduces the observer's cumulative io.stat / io.pressure /
// SLO state to one Window of per-group deltas. Groups that have never
// moved a byte on this device are excluded (they belong to another
// column, or haven't started); groups folded away by the observer's
// cgroup cap report no signal and are likewise excluded — with
// -obs-cap only the first MaxCgroups groups are shaped.
func (s *Shaper) estimate() Window {
	w := Window{Dur: s.cfg.Window}
	if s.Obs == nil {
		return w
	}
	ids := make([]int, 0, len(s.groups))
	for id := range s.groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st, ok := s.Obs.Stat(id, s.dev)
		if !ok {
			continue
		}
		cum := prevSig{bytes: st.RBytes + st.WBytes, ios: st.RIOs + st.WIOs}
		if psi, ok := s.Obs.PSISnapshot(id); ok {
			cum.some, cum.full = psi.SomeTotal, psi.FullTotal
		}
		if cum.bytes == 0 && cum.ios == 0 {
			continue // no traffic on this device yet
		}
		p := s.prev[id]
		s.prev[id] = cum
		g := s.groups[id]
		weight := float64(g.Knobs().Weight)
		if weight <= 0 {
			weight = 100
		}
		_, _, firing := s.Obs.SLOBurn(id)
		secs := s.cfg.Window.Seconds()
		w.Groups = append(w.Groups, GroupSignal{
			ID:       id,
			Weight:   weight,
			Bytes:    cum.bytes - p.bytes,
			IOs:      cum.ios - p.ios,
			SomeFrac: clampF((cum.some-p.some).Seconds()/secs, 0, 1),
			FullFrac: clampF((cum.full-p.full).Seconds()/secs, 0, 1),
			Firing:   firing,
		})
	}
	return w
}

// apply writes the decided caps as per-device io.max lines, diffed
// against what is already applied so unchanged windows write nothing.
func (s *Shaper) apply(targets []Target) {
	for _, t := range targets {
		bps := t.Bps
		if bps == s.applied[t.ID] {
			continue
		}
		g := s.groups[t.ID]
		if g == nil {
			continue
		}
		var line string
		if bps <= 0 {
			line = s.dev + " max"
		} else {
			line = fmt.Sprintf("%s rbps=%d wbps=%d", s.dev, int64(bps), int64(bps))
		}
		if err := g.SetFile("io.max", line); err != nil {
			// The group raced away (deleted mid-window); drop it.
			s.Forget(t.ID)
			continue
		}
		s.applied[t.ID] = bps
	}
}

// sample publishes the shaper's time series: device-wide controller
// state on cgroup 0, per-group targets on their own ids.
func (s *Shaper) sample() {
	if s.Obs == nil {
		return
	}
	s.Obs.Sample("shaper.mode."+s.dev, 0, float64(s.st.Mode))
	s.Obs.Sample("shaper.capest."+s.dev, 0, s.st.CapEst)
	s.Obs.Sample("shaper.headroom."+s.dev, 0, s.st.Headroom)
	ids := make([]int, 0, len(s.applied))
	for id := range s.applied {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		s.Obs.Sample("shaper.target."+s.dev, id, s.applied[id])
	}
}
