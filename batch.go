package rbcast

import (
	"context"
	"sync"
	"time"
)

// Job pairs one scenario with its adversary for batch execution. Its
// canonical identity is Fingerprint (encode.go), which keys the rbcastd
// result cache.
type Job struct {
	Config Config    `json:"config"`
	Plan   FaultPlan `json:"plan"`
}

// BatchResult is the outcome of one batch job.
type BatchResult struct {
	// Result is the job's outcome. It is valid when Err is nil, and also —
	// as a partial result — when Err wraps ErrDeadline (see RunContext).
	// For any other error it is the zero Result.
	Result Result
	// Err captures the job's own failure: an invalid config, a cancelled
	// or expired context (wrapping ErrDeadline), or a panic (a
	// *PanicError carrying the stack). A failure reaches only the jobs of
	// its own execution unit.
	Err error
}

// ProgressUpdate is one live snapshot of a batch or sweep execution,
// delivered through BatchOptions.Progress. Snapshots are cumulative and
// monotone: each reflects all work settled so far.
type ProgressUpdate struct {
	// Done counts jobs resolved so far; Total is the batch size.
	Done, Total int
	// NodeRounds is the simulated work performed so far: Σ rounds ×
	// network size over completed executions.
	NodeRounds int64
	// SharedResults counts jobs resolved by sharing another job's
	// execution instead of simulating.
	SharedResults int
}

// BatchOptions configures RunBatch and RunSweepJobs. The zero value runs
// with GOMAXPROCS workers, no cancellation and no deadline.
type BatchOptions struct {
	// Workers caps the worker pool; ≤ 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Context optionally cancels the batch: jobs whose execution unit has
	// not started when it is done complete immediately with Err =
	// Context.Err(), and units in flight stop at their next round
	// boundary with partial Results and an Err wrapping ErrDeadline. It
	// also carries the optional request trace (internal/obs): when armed,
	// workers record per-unit spans under the span the context names.
	Context context.Context
	// JobTimeout optionally bounds each execution unit's wall-clock time
	// (one shared execution, or a whole crash-round fork family),
	// independent of Config.MaxRounds. A unit that exceeds it stops at the
	// next round boundary with partial Results and an Err wrapping
	// ErrDeadline for each of its jobs; other units are unaffected. ≤ 0
	// means no bound.
	JobTimeout time.Duration
	// Progress, when non-nil, receives a cumulative ProgressUpdate after
	// each execution unit settles. Calls are serialized and snapshots
	// monotone, so callers can publish them directly; the callback must
	// be fast — it runs on the worker that finished the unit.
	Progress func(ProgressUpdate)
}

// progressTracker serializes Progress callbacks and keeps the cumulative
// snapshot monotone across concurrently finishing workers.
type progressTracker struct {
	mu sync.Mutex
	up ProgressUpdate
	fn func(ProgressUpdate)
}

// newProgressTracker returns nil when no callback is armed — the nil
// tracker's add is a no-op, mirroring the repo's nil-sink tap pattern.
func newProgressTracker(fn func(ProgressUpdate), total int) *progressTracker {
	if fn == nil {
		return nil
	}
	return &progressTracker{up: ProgressUpdate{Total: total}, fn: fn}
}

// add folds one settled job into the snapshot and delivers it.
func (p *progressTracker) add(done int, nodeRounds int64, shared int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.up.Done += done
	p.up.NodeRounds += nodeRounds
	p.up.SharedResults += shared
	up := p.up
	p.mu.Unlock()
	p.fn(up)
}

// RunBatch executes the jobs and returns one result per job, in job order —
// each byte-identical (Metrics.Wall aside) to calling Run on that job,
// independent of worker count and scheduling. It is RunSweepJobs without
// the statistics: jobs that share an execution (dead parameters, crash
// rounds past a trunk's horizon, wavefront-prefix forks) are simulated
// once, and such jobs share one Result value, so treat results as
// read-only. This is the substrate the threshold sweeps, experiment drivers
// and the rbcastd batch endpoint fan out on.
//
// RunBatch bounds the damage any one execution can do: a panic fails the
// jobs of that execution unit with a *PanicError instead of crashing the
// process, and a unit that exceeds JobTimeout (or an expired batch
// Context) fails with ErrDeadline, in both cases leaving every other unit
// to complete normally.
func RunBatch(jobs []Job, opts BatchOptions) []BatchResult {
	results, _ := RunSweepJobs(jobs, opts)
	return results
}
