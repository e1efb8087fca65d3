package rbcast

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// sweepJobs builds the threshold-sweep workload: every protocol × t cell at
// r = 1 against the strongest band adversary the budget admits.
func sweepJobs() []Job {
	var jobs []Job
	r := 1
	for t := 0; t <= MinImpossibleCrashLinf(r); t++ {
		for _, proto := range []Protocol{ProtocolBV4, ProtocolBV2, ProtocolCPA} {
			cfg := Config{Width: 16, Height: 10, Radius: r, Protocol: proto, T: t, Value: 1}
			plan := FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategySilent, Budget: t}
			if t >= MinImpossibleByzantineLinf(r) {
				plan.Placement = PlaceCheckerboardBand
			}
			if t == 0 {
				plan = FaultPlan{}
			}
			jobs = append(jobs, Job{Config: cfg, Plan: plan})
		}
		cfg := Config{Width: 16, Height: 10, Radius: r, Protocol: ProtocolFlood, T: t, Value: 1}
		plan := FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategyCrash, Budget: t}
		if t >= MinImpossibleCrashLinf(r) {
			plan.Placement = PlaceBand
		}
		if t == 0 {
			plan = FaultPlan{}
		}
		jobs = append(jobs, Job{Config: cfg, Plan: plan})
	}
	return jobs
}

// stripWall zeroes the only nondeterministic Result field so runs compare
// with reflect.DeepEqual.
func stripWall(r Result) Result {
	r.Metrics.Wall = 0
	return r
}

func TestRunBatchMatchesSequentialLoop(t *testing.T) {
	jobs := sweepJobs()
	batch := RunBatch(jobs, BatchOptions{Workers: 4})
	if len(batch) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(batch), len(jobs))
	}
	for i, job := range jobs {
		want, err := Run(job.Config, job.Plan)
		if err != nil {
			t.Fatalf("job %d sequential: %v", i, err)
		}
		if batch[i].Err != nil {
			t.Fatalf("job %d batch: %v", i, batch[i].Err)
		}
		if !reflect.DeepEqual(stripWall(batch[i].Result), stripWall(want)) {
			t.Errorf("job %d: batch result diverges from sequential run", i)
		}
	}
}

func TestRunBatchWorkerCountInvariance(t *testing.T) {
	jobs := sweepJobs()[:8]
	base := RunBatch(jobs, BatchOptions{Workers: 1})
	for _, workers := range []int{0, 2, 7, 32} {
		got := RunBatch(jobs, BatchOptions{Workers: workers})
		for i := range jobs {
			if got[i].Err != nil || base[i].Err != nil {
				t.Fatalf("workers=%d job %d: err %v / %v", workers, i, got[i].Err, base[i].Err)
			}
			if !reflect.DeepEqual(stripWall(got[i].Result), stripWall(base[i].Result)) {
				t.Errorf("workers=%d: job %d result depends on worker count", workers, i)
			}
		}
	}
}

func TestRunBatchPerJobErrorCapture(t *testing.T) {
	good := Config{Width: 12, Height: 12, Radius: 1, Protocol: ProtocolFlood, Value: 1}
	bad := good
	bad.Metric = Metric(99)
	jobs := []Job{{Config: good}, {Config: bad}, {Config: good}}
	results := RunBatch(jobs, BatchOptions{Workers: 2})
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("good jobs failed: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("bad job must carry its error")
	}
	if !results[0].Result.AllCorrect() || !results[2].Result.AllCorrect() {
		t.Error("good jobs must still complete around the failing one")
	}
}

func TestRunBatchCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := sweepJobs()[:5]
	results := RunBatch(jobs, BatchOptions{Workers: 2, Context: ctx})
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestRunBatchMidBatchCancellation cancels the context from the Progress
// callback once unit 1 has settled, with Workers=1 so units run in order.
// The split must be exact: units 0 and 1 (the BV4 scenario and the whole
// fork family) keep their results, and unit 2 is marked context.Canceled
// without running.
func TestRunBatchMidBatchCancellation(t *testing.T) {
	jobs := unitJobs()
	const settled = 4 // elements in units 0 and 1
	for name, run := range batchEntryPoints {
		ctx, cancel := context.WithCancel(context.Background())
		results := run(jobs, BatchOptions{Workers: 1, Context: ctx, Progress: func(up ProgressUpdate) {
			if up.Done == settled {
				cancel()
			}
		}})
		cancel()
		for i, r := range results[:settled] {
			requireMatchesRun(t, i, jobs[i], r)
		}
		for i, r := range results[settled:] {
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("%s: element %d: err = %v, want context.Canceled", name, settled+i, r.Err)
			}
			if r.Result.Honest != 0 || r.Result.Decisions != nil {
				t.Errorf("%s: element %d: cancelled element carries a result", name, settled+i)
			}
		}
	}
}

func TestRunBatchEmpty(t *testing.T) {
	if got := RunBatch(nil, BatchOptions{}); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}
