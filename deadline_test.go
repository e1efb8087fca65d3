package rbcast

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// deadlineScenario is a small scenario both engines accept; the deadline
// tests run it under contexts that are already done, so its size only has
// to be valid, not slow.
func deadlineScenario() (Config, FaultPlan) {
	return Config{Width: 16, Height: 10, Radius: 1, Protocol: ProtocolBV4, T: 2, Value: 1},
		FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategySilent}
}

func TestRunContextExpiredDeadlineIsPartial(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		cfg, plan := deadlineScenario()
		cfg.Concurrent = concurrent

		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		res, err := RunContext(ctx, cfg, plan)
		if err == nil {
			t.Fatalf("concurrent=%v: expired deadline produced no error", concurrent)
		}
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("concurrent=%v: error does not wrap ErrDeadline: %v", concurrent, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("concurrent=%v: error does not wrap context.DeadlineExceeded: %v", concurrent, err)
		}
		// The partial result is still a scored Result over the full grid —
		// just one that never ran a round and never quiesced.
		if res.Honest == 0 || res.Rounds != 0 || res.Quiesced {
			t.Errorf("concurrent=%v: partial result not scored at round 0: honest=%d rounds=%d quiesced=%v",
				concurrent, res.Honest, res.Rounds, res.Quiesced)
		}
	}
}

func TestRunContextCancellationIsPartial(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		cfg, plan := deadlineScenario()
		cfg.Concurrent = concurrent

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := RunContext(ctx, cfg, plan)
		if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
			t.Errorf("concurrent=%v: cancelled run error = %v, want ErrDeadline wrapping context.Canceled",
				concurrent, err)
		}
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg, plan := deadlineScenario()
	want, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.Correct != want.Correct || got.Rounds != want.Rounds || got.Broadcasts != want.Broadcasts {
		t.Errorf("RunContext(Background) diverges from Run: %+v vs %+v", got, want)
	}
}

func TestRunBatchJobTimeout(t *testing.T) {
	cfg, plan := deadlineScenario()
	jobs := []Job{{Config: cfg, Plan: plan}}

	// A vanishing timeout deadlines the job; a generous one does not. Both
	// go through the same WithTimeout plumbing.
	out := RunBatch(jobs, BatchOptions{JobTimeout: time.Nanosecond})
	if len(out) != 1 || !errors.Is(out[0].Err, ErrDeadline) {
		t.Fatalf("1ns timeout: %+v, want ErrDeadline", out)
	}
	if out[0].Result.Honest == 0 || out[0].Result.Quiesced {
		t.Errorf("1ns timeout: partial result not scored: %+v", out[0].Result)
	}

	out = RunBatch(jobs, BatchOptions{JobTimeout: time.Minute})
	if out[0].Err != nil {
		t.Fatalf("1m timeout: unexpected error %v", out[0].Err)
	}
	if !out[0].Result.Quiesced {
		t.Error("1m timeout: run did not complete")
	}
}

// batchEntryPoints are the two public executors; both run on the sweep
// engine's unit loop, so every unit-level guarantee holds for each.
var batchEntryPoints = map[string]func([]Job, BatchOptions) []BatchResult{
	"RunBatch": RunBatch,
	"RunSweepJobs": func(jobs []Job, opts BatchOptions) []BatchResult {
		out, _ := RunSweepJobs(jobs, opts)
		return out
	},
}

// unitJobs is a grid of three execution units: a BV4 scenario (unit 0), a
// flood crash-round fork family over elements 1–3 (unit 1) and a CPA
// scenario (unit 2).
func unitJobs() []Job {
	cfg, plan := deadlineScenario()
	family := Job{
		Config: Config{Width: 16, Height: 12, Radius: 1, Protocol: ProtocolFlood, Value: 1},
		Plan:   FaultPlan{Placement: PlaceBand, Strategy: StrategyCrash},
	}
	jobs := []Job{{Config: cfg, Plan: plan}}
	for _, cr := range []int{1, 2, 3} {
		j := family
		j.Plan.CrashRound = cr
		jobs = append(jobs, j)
	}
	cpa := cfg
	cpa.Protocol = ProtocolCPA
	return append(jobs, Job{Config: cpa, Plan: plan})
}

// requireMatchesRun asserts the element completed exactly as an
// independent Run of its job.
func requireMatchesRun(t *testing.T, i int, job Job, got BatchResult) {
	t.Helper()
	if got.Err != nil {
		t.Errorf("element %d: unexpected err %v", i, got.Err)
		return
	}
	want, err := Run(job.Config, job.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if sweepHash(t, got.Result) != sweepHash(t, want) {
		t.Errorf("element %d: result diverges from an independent Run", i)
	}
}

// TestRunBatchPanicIsolation panics inside the fork family's unit: every
// element of that unit fails with its own *PanicError, and the units
// around it complete as independent runs would.
func TestRunBatchPanicIsolation(t *testing.T) {
	jobs := unitJobs()
	// The dispatch hook runs inside each unit's recover scope, so a panic
	// here is indistinguishable from a panicking scenario.
	unitDispatched = func(unit int) {
		if unit == 1 {
			panic("synthetic job bug")
		}
	}
	defer func() { unitDispatched = nil }()

	for name, run := range batchEntryPoints {
		out := run(jobs, BatchOptions{})
		for _, i := range []int{1, 2, 3} {
			var pe *PanicError
			if !errors.As(out[i].Err, &pe) {
				t.Fatalf("%s: element %d error = %v, want *PanicError", name, i, out[i].Err)
			}
			if pe.Index != i || pe.Value != "synthetic job bug" || len(pe.Stack) == 0 {
				t.Errorf("%s: PanicError = index %d value %v stack %d bytes", name, pe.Index, pe.Value, len(pe.Stack))
			}
			if want := fmt.Sprintf("job %d panicked", i); !strings.Contains(pe.Error(), want) {
				t.Errorf("%s: PanicError message = %q, want %q", name, pe.Error(), want)
			}
		}
		for _, i := range []int{0, 4} {
			requireMatchesRun(t, i, jobs[i], out[i])
		}
	}
}

func TestPanicErrorSyncRendering(t *testing.T) {
	pe := &PanicError{Index: -1, Value: "boom"}
	if got := pe.Error(); !strings.Contains(got, "scenario panicked") || strings.Contains(got, "job") {
		t.Errorf("sync PanicError message = %q", got)
	}
}
