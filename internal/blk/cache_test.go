package blk_test

import (
	"testing"

	"isolbench/internal/blk"
	"isolbench/internal/cgroup"
	"isolbench/internal/device"
	"isolbench/internal/host"
	"isolbench/internal/ioctl/iocost"
	"isolbench/internal/ioctl/iolatency"
	"isolbench/internal/ioctl/iomax"
	"isolbench/internal/iosched/bfq"
	"isolbench/internal/iosched/mqdeadline"
	"isolbench/internal/iosched/noop"
	"isolbench/internal/sim"
	"isolbench/internal/workload"
)

// TestQueueCachesPathConstants pins the contract that lets Pump use
// wiring-time constants: for every scheduler x controller pairing, after
// a short Fig. 4-style run (batch apps beside a QD1 LC app, dispatching
// through the full path) the queue's cached overheads, lock hold and
// dispatch limit still equal what fresh Overheads()/DispatchWindow()
// calls report.
func TestQueueCachesPathConstants(t *testing.T) {
	scheds := []struct {
		name string
		make func(*sim.Engine) blk.Scheduler
	}{
		{"none", func(*sim.Engine) blk.Scheduler { return noop.New() }},
		{"mq-deadline", func(e *sim.Engine) blk.Scheduler { return mqdeadline.New(e, mqdeadline.DefaultConfig()) }},
		{"bfq", func(e *sim.Engine) blk.Scheduler { return bfq.New(e, bfq.DefaultConfig()) }},
	}
	ctls := []struct {
		name string
		make func(*sim.Engine, *cgroup.Tree, int) blk.Controller
	}{
		{"none", func(*sim.Engine, *cgroup.Tree, int) blk.Controller { return nil }},
		{"io.max", func(e *sim.Engine, tr *cgroup.Tree, _ int) blk.Controller { return iomax.New(e, tr, "259:0") }},
		{"io.latency", func(e *sim.Engine, tr *cgroup.Tree, qd int) blk.Controller { return iolatency.New(e, tr, "259:0", qd) }},
		{"io.cost", func(e *sim.Engine, tr *cgroup.Tree, _ int) blk.Controller { return iocost.New(e, tr, "259:0") }},
	}
	for _, sc := range scheds {
		for _, cc := range ctls {
			t.Run(sc.name+"/"+cc.name, func(t *testing.T) {
				eng := sim.NewEngine()
				tree := cgroup.NewTree()
				prof := device.Flash980Profile()
				dev, err := device.New(eng, prof, 7)
				if err != nil {
					t.Fatal(err)
				}
				sched, ctl := sc.make(eng), cc.make(eng, tree, prof.MaxQD)
				q := blk.NewQueue(eng, dev, sched, ctl)
				m, err := tree.Root().Create("m")
				if err != nil {
					t.Fatal(err)
				}
				if err := m.EnableController("io"); err != nil {
					t.Fatal(err)
				}
				cpu := host.NewCPU(eng, 4)
				specs := []func(string, *cgroup.Group) workload.Spec{workload.LCApp, workload.BatchApp, workload.BatchApp}
				for i, spec := range specs {
					g, err := m.Create(string(rune('a' + i)))
					if err != nil {
						t.Fatal(err)
					}
					a, err := workload.NewApp(eng, cpu, host.DefaultCosts(), q, spec(g.Name(), g), uint64(i+1))
					if err != nil {
						t.Fatal(err)
					}
					a.Start()
				}
				eng.RunUntil(sim.Time(5 * sim.Millisecond))
				if q.Completed() == 0 {
					t.Fatal("no I/O completed")
				}

				want := sched.Overheads()
				if ctl != nil {
					want = want.Add(ctl.Overheads())
				}
				limit := prof.MaxQD
				if w := sched.DispatchWindow(); w > 0 && w < limit {
					limit = w
				}
				// The struct compare covers LockHold, the hold Pump charges.
				got, gotLimit := q.CachedPath()
				if got != want || q.PathOverheads() != want {
					t.Errorf("cached overheads %+v, PathOverheads %+v, fresh %+v", got, q.PathOverheads(), want)
				}
				if gotLimit != limit {
					t.Errorf("cached dispatch limit %d, fresh %d", gotLimit, limit)
				}
			})
		}
	}
}
