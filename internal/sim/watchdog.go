package sim

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Watchdog configures the engine's stall/budget/cancellation guard.
// The zero value disables every check; an armed watchdog only observes
// the event stream — it never schedules events, draws random numbers,
// or reorders anything, so a run that does not trip it is bit-identical
// to an unguarded run.
type Watchdog struct {
	// Ctx, when non-nil, is polled every CheckEvery events; once the
	// context is done the engine stops and Err returns ctx.Err(). This
	// is how whole-run cancellation (SIGINT) reaches a simulation that
	// would otherwise run to its horizon.
	Ctx context.Context

	// Deadline, when nonzero, is a wall-clock bound on the simulation
	// (the -unit-timeout flag): it is polled every CheckEvery events
	// and trips a WatchdogError when exceeded. Wall-clock aborts are
	// inherently nondeterministic; they exist to free a hung worker
	// slot, not to produce comparable results.
	Deadline time.Time

	// MaxEvents aborts the run after this many executed events
	// (0 = unlimited). An exceeded budget almost always means a
	// workload that resubmits faster than the clock advances.
	MaxEvents uint64

	// MaxClock aborts the run once an event is scheduled to execute
	// past this virtual time (0 = unlimited).
	MaxClock Time

	// StallEvents aborts the run after this many consecutive events
	// executing at the same virtual instant (0 = disabled): the
	// signature of a livelock, where callbacks reschedule each other
	// at t=now and the clock never advances.
	StallEvents uint64

	// CheckEvery is the cadence, in events, of the Ctx/Deadline polls
	// (0 = 4096). Budget and stall checks are exact and run on every
	// event regardless.
	CheckEvery uint64

	// Paranoid additionally asserts the event clock is monotonic —
	// a popped event timestamped before the current clock is a heap
	// corruption the engine should never produce.
	Paranoid bool
}

// ErrWatchdog is the sentinel matched by errors.Is for every abort the
// watchdog itself decided (budget, stall, deadline, clock). Context
// cancellation is deliberately NOT an ErrWatchdog: callers distinguish
// "this unit is sick, contain it" from "the whole run is being torn
// down, fail fast".
var ErrWatchdog = errors.New("sim: watchdog abort")

// WatchdogError reports why and where the watchdog stopped an engine.
type WatchdogError struct {
	Reason string
	Events uint64 // events executed when the watchdog tripped
	Now    Time   // virtual clock when the watchdog tripped
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim watchdog: %s (events=%d, t=%v)", e.Reason, e.Events, e.Now)
}

// Is makes errors.Is(err, ErrWatchdog) match any watchdog abort.
func (e *WatchdogError) Is(target error) bool { return target == ErrWatchdog }

// watchdogState is the armed watchdog plus its rolling counters.
type watchdogState struct {
	Watchdog
	stallRun   uint64 // consecutive events without clock advance
	sinceCheck uint64 // events since the last Ctx/Deadline poll
}

// SetWatchdog arms (or, with the zero value, disarms) the engine's
// watchdog. Arm it before running; counters reset on every call.
func (e *Engine) SetWatchdog(w Watchdog) {
	if w == (Watchdog{}) {
		e.wd = nil
		return
	}
	if w.CheckEvery == 0 {
		w.CheckEvery = 4096
	}
	e.wd = &watchdogState{Watchdog: w}
}

// Err reports why the engine stopped: nil while healthy, a
// *WatchdogError after a watchdog abort, or the context's error after
// cancellation. Once set, Step/RunUntil/Run refuse to execute further
// events.
func (e *Engine) Err() error { return e.stopErr }

// stop records the first abort reason; later events never run.
func (e *Engine) stop(reason string) {
	e.stopErr = &WatchdogError{Reason: reason, Events: e.nRun, Now: e.now}
}

// admit runs the armed watchdog's checks against the next pending
// event or timer, due at at; false means the engine has been stopped.
func (e *Engine) admit(at Time) bool {
	w := e.wd
	if w.Paranoid && at < e.now {
		e.stop(fmt.Sprintf("clock went backwards: next event at %v is before now %v", at, e.now))
		return false
	}
	if at == e.now {
		w.stallRun++
		if w.StallEvents > 0 && w.stallRun >= w.StallEvents {
			e.stop(fmt.Sprintf("livelock: %d consecutive events without the clock advancing past %v", w.stallRun, e.now))
			return false
		}
	} else {
		w.stallRun = 0
	}
	if w.MaxEvents > 0 && e.nRun >= w.MaxEvents {
		e.stop(fmt.Sprintf("event budget exhausted (%d events)", w.MaxEvents))
		return false
	}
	if w.MaxClock > 0 && at > w.MaxClock {
		e.stop(fmt.Sprintf("clock budget exhausted (next event at %v is past %v)", at, w.MaxClock))
		return false
	}
	w.sinceCheck++
	if w.sinceCheck >= w.CheckEvery {
		w.sinceCheck = 0
		if w.Ctx != nil {
			if err := w.Ctx.Err(); err != nil {
				e.stopErr = err
				return false
			}
		}
		if !w.Deadline.IsZero() && time.Now().After(w.Deadline) {
			e.stop("unit wall-clock deadline exceeded")
			return false
		}
	}
	return true
}
