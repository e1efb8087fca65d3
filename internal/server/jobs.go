package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	rbcast "repro"
	"repro/internal/obs"
	"repro/internal/wire"
)

// BatchRequest is the /v1/batch payload.
type BatchRequest struct {
	Jobs []RunRequest `json:"jobs"`
	// Workers optionally caps this job's worker pool below the server
	// default (≤ 0: server default).
	Workers int `json:"workers,omitempty"`
}

// BatchResponse acknowledges an accepted batch job.
type BatchResponse struct {
	ID        string `json:"id"`
	Jobs      int    `json:"jobs"`
	StatusURL string `json:"status_url"`
}

// JobStatus is the /v1/jobs/{id} response body.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // "running" or "done"
	Jobs  int    `json:"jobs"`
	// Results is populated once State is "done", in job order.
	Results []JobResult `json:"results,omitempty"`
}

// JobResult is one batch element's outcome.
type JobResult struct {
	Fingerprint string         `json:"fingerprint"`
	Result      *rbcast.Result `json:"result,omitempty"`
	Error       string         `json:"error,omitempty"`
	// Cached reports the result came from the result cache (or from a
	// duplicate fingerprint earlier in the same batch) rather than a
	// fresh execution.
	Cached bool `json:"cached,omitempty"`
	// Partial reports the element was stopped by the server's job
	// deadline: Error carries the deadline error and Result holds the
	// partial state at the round where the run was cut (never cached).
	Partial bool `json:"partial,omitempty"`
}

// ProgressEvent is one GET /v1/jobs/{id}/events NDJSON line: a cumulative
// snapshot of a batch job's execution. Snapshots are monotone — each
// field only grows — and the stream ends with exactly one terminal event
// (State "done", JobsDone == JobsTotal).
type ProgressEvent struct {
	// State is "running" until the job finishes, then "done".
	State string `json:"state"`
	// JobsDone counts batch elements resolved so far (cache hits,
	// executions, failures and within-batch duplicates alike); JobsTotal
	// is the batch size.
	JobsDone  int `json:"jobs_done"`
	JobsTotal int `json:"jobs_total"`
	// NodeRounds is the simulated work performed so far: Σ rounds ×
	// network size over this job's fresh executions.
	NodeRounds int64 `json:"node_rounds"`
	// DedupHits counts elements resolved without an execution of their
	// own: result-cache hits, within-batch duplicate fingerprints, and
	// elements that shared another element's execution.
	DedupHits int `json:"dedup_hits"`
	// Errors counts elements that finished with an error (terminal event
	// only; partial deadline results are included).
	Errors int `json:"errors"`
}

// batchJob is one asynchronous batch execution.
type batchJob struct {
	id      string
	n       int
	created time.Time

	mu      sync.Mutex
	done    bool
	results []wire.Element // unindexed JobResult elements
	// progress is the latest cumulative snapshot; changed is closed and
	// replaced on every advance, waking /v1/jobs/{id}/events streams.
	progress ProgressEvent
	changed  chan struct{}
}

// newBatchJob opens a running job with a live progress snapshot.
func newBatchJob(id string, n int) *batchJob {
	return &batchJob{
		id:       id,
		n:        n,
		created:  time.Now(),
		progress: ProgressEvent{State: "running", JobsTotal: n},
		changed:  make(chan struct{}),
	}
}

// update advances the live progress snapshot and wakes watchers. Fields
// only move forward — progress callbacks race with the scan-time seed, so
// monotonicity is enforced here rather than trusted from callers. A
// finished job ignores updates.
func (j *batchJob) update(done int, nodeRounds int64, dedup int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return
	}
	was := j.progress
	j.progress.JobsDone = max(was.JobsDone, done)
	j.progress.NodeRounds = max(was.NodeRounds, nodeRounds)
	j.progress.DedupHits = max(was.DedupHits, dedup)
	if j.progress != was {
		j.wake()
	}
}

// finish publishes the results and the terminal progress event. The first
// finish wins (the panic path and the normal path cannot both land).
func (j *batchJob) finish(results []wire.Element) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return
	}
	j.results = results
	j.done = true
	j.progress.State = "done"
	j.progress.JobsDone = j.n
	for i := range results {
		if results[i].Error != "" {
			j.progress.Errors++
		}
	}
	j.wake()
}

// wake closes and replaces the changed channel. Callers hold j.mu.
func (j *batchJob) wake() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// snapshot returns the current progress event, the channel that closes on
// the next advance, and whether the job is terminal.
func (j *batchJob) snapshot() (ProgressEvent, chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.progress, j.changed, j.done
}

// handleBatch accepts a job list and executes it asynchronously on the
// sweep engine (rbcast.RunBatch), deduplicating against the result cache
// and within the batch itself. The response carries the id to poll.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch must contain at least one job"))
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	// Admission control: a full queue sheds with 429 + Retry-After — the
	// locally bounded failure discipline applied to load. The depth check
	// and increment share s.mu so concurrent submissions cannot overshoot
	// the bound.
	if int(s.queueDepth.Load()) >= s.opts.QueueDepth {
		s.mu.Unlock()
		s.shedQueueFull.Add(1)
		writeShed(w, fmt.Errorf("batch queue is full (%d jobs), retry later", s.opts.QueueDepth))
		return
	}
	s.queueDepth.Add(1)
	s.nextID++
	job := newBatchJob(fmt.Sprintf("job-%d", s.nextID), len(req.Jobs))
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.evictJobsLocked()
	s.wg.Add(1)
	s.mu.Unlock()

	// Async jobs get their own timeline in the flight recorder, keyed by
	// job id: the HTTP accept above records only decode + admission, while
	// the job trace attributes the execution (queue wait, slot wait,
	// engine). jtr is nil when the recorder is disarmed.
	var jtr *obs.Trace
	var queueSp obs.SpanID
	if s.rec.Enabled() {
		jtr = obs.NewTrace("batch-job", job.id)
		queueSp = jtr.Start(obs.Root, "queue_wait")
		jtr.AnnotateInt(obs.Root, "jobs", int64(job.n))
	}
	go func() {
		defer s.wg.Done()
		defer s.queueDepth.Add(-1)
		status := http.StatusOK
		defer func() {
			jtr.Finish(status)
			s.rec.Record(jtr)
			s.foldPhases(jtr)
		}()
		// Panic isolation for the stitching path itself: the sweep engine
		// already confines per-scenario panics to their execution unit, so
		// this recover only fires on a server bug — the job fails, the
		// daemon and its sibling jobs do not.
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			status = http.StatusInternalServerError
			s.panicsRecovered.Add(1)
			if s.opts.Logger != nil {
				s.opts.Logger.Error("batch job panicked", "job", job.id, "panic", r)
			}
			failed := make([]wire.Element, job.n)
			for i := range failed {
				failed[i].Error = fmt.Sprintf("batch execution panicked: %v", r)
			}
			job.finish(failed)
		}()
		jtr.End(queueSp)
		// An accepted job waits for an execution slot rather than shedding:
		// backpressure was applied at admission, MaxInflight paces the CPU.
		s.acquireSlot(jtr, obs.Root, true)
		defer s.releaseSlot()
		job.finish(s.runBatch(jtr, job, req.Jobs, req.Workers))
	}()

	writeJSON(w, http.StatusAccepted, BatchResponse{
		ID:        job.id,
		Jobs:      job.n,
		StatusURL: "/v1/jobs/" + job.id,
	})
}

// runBatch resolves a job list: within-batch duplicate fingerprints are
// answered from their first occurrence (reported cached), and the distinct
// jobs go through resolve on the batch runner. tr (nil when the flight
// recorder is disarmed) receives cache-scan and engine spans; job receives
// live progress snapshots.
func (s *Server) runBatch(tr *obs.Trace, job *batchJob, reqs []RunRequest, workers int) []wire.Element {
	results := make([]wire.Element, len(reqs))
	distinctOf := make([]int, len(reqs)) // request index → index into distinct
	first := make(map[string]int)
	var distinct []wire.Element
	var jobs []rbcast.Job
	for i, rr := range reqs {
		rj := rbcast.Job{Config: rr.Config, Plan: rr.Plan}
		fp := rj.Fingerprint()
		k, repeat := first[fp]
		if !repeat {
			k = len(distinct)
			first[fp] = k
			distinct = append(distinct, wire.Element{Fingerprint: fp})
			jobs = append(jobs, rj)
		}
		distinctOf[i] = k
		results[i].Cached = repeat // kept through the stitch below
	}
	repeats := len(reqs) - len(distinct)
	run := func(jobs []rbcast.Job, opts rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
		return s.opts.BatchRunner(jobs, opts), rbcast.SweepStats{}
	}
	// Elements resolved without an execution of their own — cache hits,
	// repeats and shared executions — count as dedup hits.
	s.resolve(tr, obs.Root, jobs, distinct, workers, run, func(hits int, up rbcast.ProgressUpdate) {
		job.update(hits+up.Done, up.NodeRounds, hits+repeats+up.SharedResults)
	})
	for i, k := range distinctOf {
		repeat := results[i].Cached
		results[i] = distinct[k]
		results[i].Cached = results[i].Cached || repeat
	}
	return results
}

// lookupJob returns the batch job the request's {id} names, or answers 404
// and returns nil.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *batchJob {
	id := r.PathValue("id")
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
	}
	return job
}

// handleJob reports a batch job's state and, once done, its results.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(w, r)
	if job == nil {
		return
	}
	status := wire.JobStatus{ID: job.id, Jobs: job.n, State: "running"}
	job.mu.Lock()
	if job.done {
		status.State, status.Results = "done", job.results
	}
	job.mu.Unlock()
	// The bytes writeJSON writes for a JobStatus, through the envelope
	// codec.
	body, err := wire.AppendJobStatus(nil, &status)
	writeEncoded(w, http.StatusOK, body, err)
}

// handleJobTrace streams one batch element's execution trace as JSON
// Lines (application/x-ndjson), exactly as rbcast.EncodeTrace renders it —
// the bytes round-trip through rbcast.DecodeTrace and repeated GETs are
// byte-identical. The element is selected with ?job=N (default 0, batch
// order). Traces exist only for elements whose Config.Trace was set.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(w, r)
	if job == nil {
		return
	}
	job.mu.Lock()
	done, results := job.done, job.results
	job.mu.Unlock()
	if !done {
		writeError(w, http.StatusConflict, fmt.Errorf("job %q is still running", job.id))
		return
	}
	idx := 0
	if q := r.URL.Query().Get("job"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid job index %q", q))
			return
		}
		idx = n
	}
	if idx < 0 || idx >= len(results) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("job index %d out of range [0,%d)", idx, len(results)))
		return
	}
	el := results[idx]
	switch {
	case el.Error != "":
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job element %d failed: %s", idx, el.Error))
		return
	case el.Result == nil || len(el.Result.Trace) == 0:
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job element %d recorded no trace — set config.trace", idx))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rbcast.EncodeTrace(w, el.Result.Trace)
}

// eventsHeartbeat bounds how long an unchanged /v1/jobs/{id}/events
// stream stays silent: the current snapshot is re-sent so idle proxies
// and client read deadlines see a live connection.
const eventsHeartbeat = 15 * time.Second

// handleJobEvents streams a batch job's progress as NDJSON
// (application/x-ndjson): the current cumulative snapshot immediately,
// one line per advance after that, and a final terminal line (State
// "done") before the stream closes. Unchanged snapshots are re-sent every
// eventsHeartbeat as keep-alives; watchers dedup by monotonicity. A job
// that is already done yields exactly one terminal line. Unknown ids 404.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(w, r)
	if job == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	hb := time.NewTicker(eventsHeartbeat)
	defer hb.Stop()
	var last ProgressEvent
	sent := false
	for {
		ev, changed, done := job.snapshot()
		if !sent || ev != last {
			if enc.Encode(ev) != nil {
				return // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
			last, sent = ev, true
		}
		if done {
			return
		}
		select {
		case <-changed:
		case <-hb.C:
			sent = false // force a keep-alive re-send
		case <-r.Context().Done():
			return
		}
	}
}

// evictJobsLocked drops the oldest *finished* jobs beyond MaxJobs so a
// long-running daemon's job table stays bounded. Running jobs are always
// retained. Callers hold s.mu.
func (s *Server) evictJobsLocked() {
	for i := 0; len(s.jobs) > s.opts.MaxJobs && i < len(s.order); {
		id := s.order[i]
		if job := s.jobs[id]; job != nil {
			job.mu.Lock()
			done := job.done
			job.mu.Unlock()
			if !done {
				i++
				continue
			}
			delete(s.jobs, id)
		}
		s.order = append(s.order[:i], s.order[i+1:]...)
	}
}
