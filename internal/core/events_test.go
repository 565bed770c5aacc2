package core

import (
	"fmt"
	"testing"

	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// eventCell is one fixed, deterministic fleet whose engine events per
// completed device I/O scripts/event_gate.sh gates.
type eventCell struct {
	name     string
	knob     Knob
	cores    int
	populate func(f *Fleet) error
	warmup   sim.Duration
	measure  sim.Duration
}

// eventCells are the gated cells: the Fig. 4 saturation cell under
// none (device pipe and blk hot path), the Fig. 3 QD1 cell under
// io.cost (per-I/O controller path), and two batch apps on one SSD
// with one capped by io.max (the release timer under a binding limit).
func eventCells() []eventCell {
	batch := func(n int, limit string) func(f *Fleet) error {
		return func(f *Fleet) error {
			for i := 0; i < n; i++ {
				g, err := f.NewGroup(fmt.Sprintf("batch%d", i))
				if err != nil {
					return err
				}
				if i == 0 && limit != "" {
					if err := g.SetFile("io.max", limit); err != nil {
						return err
					}
				}
				spec := workload.BatchApp(g.Name(), g)
				spec.Core = i
				if _, err := f.AddApp(spec, 0); err != nil {
					return err
				}
			}
			return nil
		}
	}
	lc := func(f *Fleet) error {
		g, err := f.NewGroup("lc0")
		if err != nil {
			return err
		}
		_, err = f.AddApp(workload.LCApp("lc0", g), 0)
		return err
	}
	return []eventCell{
		{name: "fig4-none", knob: KnobNone, cores: 10, populate: batch(17, ""),
			warmup: 20 * sim.Millisecond, measure: 50 * sim.Millisecond},
		{name: "fig3-qd1-iocost", knob: KnobIOCost, cores: 1, populate: lc,
			warmup: 20 * sim.Millisecond, measure: 300 * sim.Millisecond},
		{name: "iomax-throttled", knob: KnobIOMax, cores: 2, populate: batch(2, "rbps=104857600"),
			warmup: 20 * sim.Millisecond, measure: 100 * sim.Millisecond},
	}
}

// run builds the cell's fleet, runs it, and returns engine events per
// completed device I/O over the whole run.
func (c eventCell) run() (float64, error) {
	opts, err := overheadOptions(c.knob, "", c.cores, 1, 7)
	if err != nil {
		return 0, err
	}
	f, err := NewFleet(opts)
	if err != nil {
		return 0, err
	}
	if err := c.populate(f); err != nil {
		return 0, err
	}
	if err := f.RunPhase(c.warmup, c.measure); err != nil {
		return 0, err
	}
	var ios uint64
	for _, d := range f.Devices {
		s := d.Stats()
		ios += s.ReadsCompleted + s.WritesCompleted
	}
	if ios == 0 {
		return 0, fmt.Errorf("%s completed no I/O", c.name)
	}
	return float64(f.Eng.Processed()) / float64(ios), nil
}

// BenchmarkEventsPerIO reports each gated cell's engine events per
// completed device I/O as events/io. The count is deterministic, so
// unlike ns/op it compares exactly across machines.
func BenchmarkEventsPerIO(b *testing.B) {
	for _, c := range eventCells() {
		b.Run(c.name, func(b *testing.B) {
			var per float64
			for i := 0; i < b.N; i++ {
				var err error
				if per, err = c.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(per, "events/io")
		})
	}
}

// TestEventCellsDeterministic pins what the gate relies on: two runs
// of a cell report the same events/io.
func TestEventCellsDeterministic(t *testing.T) {
	c := eventCells()[2]
	a, err := c.run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.run()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("%s: events/io %v then %v", c.name, a, b)
	}
}
