package blk_test

import (
	"testing"

	"isolbench/internal/blk"
	"isolbench/internal/device"
	"isolbench/internal/fault"
	"isolbench/internal/obs"
	"isolbench/internal/sim"
)

func newFaultyQueue(t *testing.T, p fault.Profile, pol blk.RetryPolicy) (*sim.Engine, *blk.Queue, *device.Device) {
	t.Helper()
	eng, q, dev := newQueue(t, device.Flash980Profile())
	in, err := fault.NewInjector(p, 21)
	if err != nil {
		t.Fatal(err)
	}
	dev.AttachFaults(in)
	q.SetRetryPolicy(pol)
	return eng, q, dev
}

// TestRetryRecoversTransientErrors: a device failing every attempt
// until the retry budget is spent delivers a permanent failure; one
// failing nothing delivers success with zero recovery activity.
func TestRetryRecoversTransientErrors(t *testing.T) {
	pol := blk.RetryPolicy{MaxRetries: 3, Backoff: 100 * sim.Microsecond, BackoffMax: sim.Millisecond, Timeout: 50 * sim.Millisecond}
	eng, q, _ := newFaultyQueue(t, fault.Profile{ErrorProb: 1}, pol)

	var final *device.Request
	r := &device.Request{Op: device.Read, Size: 4096, OnComplete: func(r *device.Request) { final = r }}
	r.Submit = eng.Now()
	q.Submit(r)
	eng.RunUntil(sim.Time(sim.Second))

	if final == nil {
		t.Fatal("request never delivered")
	}
	if !final.Failed {
		t.Fatal("request delivered without Failed after exhausting retries")
	}
	if got := q.Retries(); got != uint64(pol.MaxRetries) {
		t.Fatalf("Retries = %d, want %d", got, pol.MaxRetries)
	}
	if q.Failures() != 1 {
		t.Fatalf("Failures = %d, want 1", q.Failures())
	}
	if final.Attempts != pol.MaxRetries {
		t.Fatalf("Attempts = %d, want %d", final.Attempts, pol.MaxRetries)
	}
}

// TestRetrySucceedsEventually: with a per-attempt error draw below 1,
// retries eventually push requests through; the app-visible result is a
// success and the latency includes the recovery delay.
func TestRetrySucceedsEventually(t *testing.T) {
	pol := blk.DefaultRetryPolicy()
	eng, q, _ := newFaultyQueue(t, fault.Profile{ErrorProb: 0.5}, pol)

	done, failed := 0, 0
	for i := 0; i < 200; i++ {
		r := &device.Request{ID: uint64(i), Op: device.Read, Size: 4096,
			OnComplete: func(r *device.Request) {
				if r.Failed || r.TimedOut {
					failed++
				} else {
					done++
				}
			}}
		r.Submit = eng.Now()
		q.Submit(r)
	}
	eng.RunUntil(sim.Time(2 * sim.Second))

	if done+failed != 200 {
		t.Fatalf("delivered %d+%d of 200", done, failed)
	}
	// P(fail 6 straight) = 0.5^6 ≈ 1.6%; most must succeed, and with
	// ErrorProb 0.5 over 200 requests some retries must have happened.
	if done < 180 {
		t.Fatalf("only %d/200 succeeded", done)
	}
	if q.Retries() == 0 {
		t.Fatal("no retries recorded at ErrorProb=0.5")
	}
}

// TestTimeoutReclaimsLostRequests: dropped commands hold queue-depth
// slots until the watchdog aborts them; the retry path must both free
// the slots and deliver every request (here: as failures, since every
// resubmission is dropped too).
func TestTimeoutReclaimsLostRequests(t *testing.T) {
	pol := blk.RetryPolicy{MaxRetries: 1, Backoff: 100 * sim.Microsecond, BackoffMax: sim.Millisecond, Timeout: 10 * sim.Millisecond}
	eng, q, dev := newFaultyQueue(t, fault.Profile{DropProb: 1}, pol)

	delivered := 0
	for i := 0; i < 8; i++ {
		r := &device.Request{ID: uint64(i), Op: device.Read, Size: 4096,
			OnComplete: func(r *device.Request) {
				if !r.TimedOut {
					t.Error("lost request delivered without TimedOut")
				}
				delivered++
			}}
		r.Submit = eng.Now()
		q.Submit(r)
	}
	eng.RunUntil(sim.Time(sim.Second))

	if delivered != 8 {
		t.Fatalf("delivered %d/8 lost requests", delivered)
	}
	if dev.Inflight() != 0 {
		t.Fatalf("device inflight = %d after aborts, want 0", dev.Inflight())
	}
	// Each request: initial attempt + 1 retry, both time out.
	if q.Timeouts() != 16 {
		t.Fatalf("Timeouts = %d, want 16", q.Timeouts())
	}
	if q.Failures() != 8 {
		t.Fatalf("Failures = %d, want 8", q.Failures())
	}
}

// TestZeroPolicyAddsNoEvents: without a retry policy the queue must
// schedule no watchdogs — event counts and results are identical to a
// build without the recovery path at all. An armed policy on a healthy
// device costs no events either: each watchdog is a per-request timer
// that the completion cancels in place, so none is ever popped. The
// armed run must still really arm them, and they must still fire when
// the device loses commands.
func TestZeroPolicyAddsNoEvents(t *testing.T) {
	run := func(pol blk.RetryPolicy, arm bool) (events, done uint64, peakArmed int) {
		eng, q, _ := newQueue(t, device.Flash980Profile())
		if arm {
			q.SetRetryPolicy(pol)
		}
		n := 0
		for i := 0; i < 100; i++ {
			q.Submit(&device.Request{ID: uint64(i), Op: device.Read, Size: 4096,
				OnComplete: func(*device.Request) { n++ }})
		}
		horizon := sim.Time(sim.Second)
		for {
			if a := q.ArmedWatchdogs(); a > peakArmed {
				peakArmed = a
			}
			if at, ok := eng.PeekNext(); !ok || at > horizon {
				break
			}
			eng.Step()
		}
		eng.RunUntil(horizon)
		if n != 100 {
			t.Fatalf("completed %d/100", n)
		}
		if a := q.ArmedWatchdogs(); a != 0 {
			t.Fatalf("%d watchdogs still armed after every request completed", a)
		}
		return eng.Processed(), q.Completed(), peakArmed
	}
	evBase, doneBase, _ := run(blk.RetryPolicy{}, false)
	evZero, doneZero, peakZero := run(blk.RetryPolicy{}, true)
	if evBase != evZero || doneBase != doneZero || peakZero != 0 {
		t.Fatalf("zero policy changed the event stream: events %d vs %d, peak armed %d",
			evBase, evZero, peakZero)
	}
	evArmed, doneArmed, peakArmed := run(blk.DefaultRetryPolicy(), true)
	if evArmed != evBase || doneArmed != doneBase {
		t.Fatalf("healthy armed run popped %d events, unarmed %d: a cancelled watchdog reached the engine",
			evArmed, evBase)
	}
	if peakArmed == 0 {
		t.Fatal("armed policy never armed a watchdog")
	}

	// The same policy under a device that drops every command must time
	// every attempt out.
	eng, q, _ := newFaultyQueue(t, fault.Profile{DropProb: 1}, blk.DefaultRetryPolicy())
	q.Submit(&device.Request{Op: device.Read, Size: 4096, OnComplete: func(*device.Request) {}})
	eng.RunUntil(sim.Time(10 * sim.Second))
	if q.Timeouts() == 0 {
		t.Fatal("armed watchdog never fired for a lost command")
	}
}

// TestRecoveryObservability: retries, timeouts, and errors must land in
// the cgroup's io.stat counters and on the final span.
func TestRecoveryObservability(t *testing.T) {
	pol := blk.RetryPolicy{MaxRetries: 2, Backoff: 100 * sim.Microsecond, BackoffMax: sim.Millisecond, Timeout: 50 * sim.Millisecond}
	eng, q, _ := newFaultyQueue(t, fault.Profile{ErrorProb: 1}, pol)
	o := obs.New(eng)
	q.SetObserver(o, "259:0")

	r := &device.Request{Op: device.Read, Size: 4096, Cgroup: 3, OnComplete: func(*device.Request) {}}
	r.Submit = eng.Now()
	q.Submit(r)
	eng.RunUntil(sim.Time(sim.Second))

	st, ok := o.Stat(3, "259:0")
	if !ok {
		t.Fatal("no io.stat for cgroup 3")
	}
	if st.Retries != 2 || st.Errors != 1 {
		t.Fatalf("io.stat retries=%d errs=%d, want 2/1", st.Retries, st.Errors)
	}
	if st.RIOs != 0 || st.RBytes != 0 {
		t.Fatalf("failed request accounted bytes: rios=%d rbytes=%d", st.RIOs, st.RBytes)
	}
	line, _ := o.StatFile(3)
	want := "259:0 rbytes=0 wbytes=0 rios=0 wios=0 dbytes=0 dios=0 errs=1 retries=2"
	if line != want {
		t.Fatalf("StatFile = %q, want %q", line, want)
	}
	spans := o.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if !spans[0].Failed || spans[0].Retries != 2 {
		t.Fatalf("final span failed=%v retries=%d, want true/2", spans[0].Failed, spans[0].Retries)
	}
	// PSI running intervals must be balanced after the full recovery
	// cycle (RunBegin per attempt, RunEnd per retry, Completed once).
	if psi, ok := o.PSISnapshot(3); !ok || psi.Running() != 0 {
		t.Fatalf("PSI running = %d after recovery, want 0", psi.Running())
	}
}
