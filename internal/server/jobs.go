package server

import (
	"context"
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
	// DedupHits counts elements resolved without a fresh execution:
	// result-cache hits plus within-batch duplicate fingerprints.
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
	results []JobResult
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
	if j.done {
		j.mu.Unlock()
		return
	}
	advanced := false
	if done > j.progress.JobsDone {
		j.progress.JobsDone = done
		advanced = true
	}
	if nodeRounds > j.progress.NodeRounds {
		j.progress.NodeRounds = nodeRounds
		advanced = true
	}
	if dedup > j.progress.DedupHits {
		j.progress.DedupHits = dedup
		advanced = true
	}
	if advanced {
		close(j.changed)
		j.changed = make(chan struct{})
	}
	j.mu.Unlock()
}

// finish publishes the results and the terminal progress event. The first
// finish wins (the panic path and the normal path cannot both land).
func (j *batchJob) finish(results []JobResult) {
	j.mu.Lock()
	if !j.done {
		j.results = results
		j.done = true
		j.progress.State = "done"
		j.progress.JobsDone = j.n
		errs := 0
		for i := range results {
			if results[i].Error != "" {
				errs++
			}
		}
		j.progress.Errors = errs
		close(j.changed)
		j.changed = make(chan struct{})
	}
	j.mu.Unlock()
}

// snapshot returns the current progress event, the channel that closes on
// the next advance, and whether the job is terminal.
func (j *batchJob) snapshot() (ProgressEvent, chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.progress, j.changed, j.done
}

// handleBatch accepts a job list and executes it asynchronously on the
// RunBatch worker substrate, deduplicating against the result cache and
// within the batch itself. The response carries the id to poll.
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

	workers := s.opts.Workers
	if req.Workers > 0 && (workers <= 0 || req.Workers < workers) {
		workers = req.Workers
	}
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
		// Panic isolation for the stitching path itself: rbcast.RunBatch
		// already confines per-scenario panics to their element, so this
		// recover only fires on a server bug — the job fails, the daemon
		// and its sibling jobs do not.
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			s.panicsRecovered.Add(1)
			if s.opts.Logger != nil {
				s.opts.Logger.Error("batch job panicked", "job", job.id, "panic", r)
			}
			failed := make([]JobResult, job.n)
			for i := range failed {
				failed[i].Error = fmt.Sprintf("batch execution panicked: %v", r)
			}
			job.finish(failed)
			jtr.Finish(http.StatusInternalServerError)
			s.rec.Record(jtr)
			s.foldPhases(jtr)
		}()
		jtr.End(queueSp)
		// An accepted job waits for an execution slot rather than shedding:
		// backpressure was applied at admission, MaxInflight paces the CPU.
		if s.runSlots != nil {
			slotSp := jtr.Start(obs.Root, "slot_wait")
			s.runSlots <- struct{}{}
			jtr.End(slotSp)
			defer func() { <-s.runSlots }()
		}
		results := s.runBatch(jtr, job, req.Jobs, workers)
		job.finish(results)
		jtr.Finish(http.StatusOK)
		s.rec.Record(jtr)
		s.foldPhases(jtr)
	}()

	writeJSON(w, http.StatusAccepted, BatchResponse{
		ID:        job.id,
		Jobs:      job.n,
		StatusURL: "/v1/jobs/" + job.id,
	})
}

// runBatch resolves a job list against the cache, executes the distinct
// misses via the batch runner (the rbcast.RunBatch pool substrate), stores
// fresh results, and stitches everything back in job order. tr (nil when
// the flight recorder is disarmed) receives cache-scan and engine spans;
// job receives live progress snapshots.
func (s *Server) runBatch(tr *obs.Trace, job *batchJob, reqs []RunRequest, workers int) []JobResult {
	results := make([]JobResult, len(reqs))
	firstIndex := make(map[string]int) // fingerprint → first miss index
	var missJobs []rbcast.Job
	var missIndex []int
	scanSp := tr.Start(obs.Root, "cache_scan")
	cached := 0
	for i, rr := range reqs {
		rj := rbcast.Job{Config: rr.Config, Plan: rr.Plan}
		fp := rj.Fingerprint()
		results[i].Fingerprint = fp
		if res, ok := s.cache.Get(fp); ok {
			res := res
			results[i].Result = &res
			results[i].Cached = true
			cached++
			continue
		}
		if _, dup := firstIndex[fp]; dup {
			results[i].Cached = true // resolved from the first occurrence below
			continue
		}
		firstIndex[fp] = i
		missJobs = append(missJobs, rj)
		missIndex = append(missIndex, i)
	}
	dups := len(reqs) - cached - len(missJobs)
	tr.AnnotateInt(scanSp, "hits", int64(cached))
	tr.AnnotateInt(scanSp, "dups", int64(dups))
	tr.AnnotateInt(scanSp, "misses", int64(len(missJobs)))
	tr.End(scanSp)
	// Seed the progress stream: everything dedup-resolved is already done
	// (duplicates stitch from their first occurrence, which the engine
	// completion below accounts for).
	job.update(cached, 0, cached+dups)

	if len(missJobs) > 0 {
		engSp := tr.Start(obs.Root, "engine")
		s.inflightRuns.Add(int64(len(missJobs)))
		batch := s.opts.BatchRunner(missJobs, rbcast.BatchOptions{
			Workers:    workers,
			JobTimeout: s.opts.JobTimeout,
			Context:    obs.ContextWith(context.Background(), tr, engSp),
			Progress: func(up rbcast.ProgressUpdate) {
				job.update(cached+up.Done, up.NodeRounds, cached+dups)
			},
		})
		s.inflightRuns.Add(-int64(len(missJobs)))
		tr.End(engSp)
		for k, br := range batch {
			i := missIndex[k]
			if br.Err != nil {
				results[i].Error = br.Err.Error()
				if errors.Is(br.Err, rbcast.ErrDeadline) {
					// The element was cut by the job deadline: surface the
					// partial state alongside the error, but never cache it.
					s.deadlineRuns.Add(1)
					res := br.Result
					results[i].Result = &res
					results[i].Partial = true
				}
				continue
			}
			res := br.Result
			results[i].Result = &res
			s.cache.Put(results[i].Fingerprint, res)
			s.observe(res)
		}
	}

	// Resolve within-batch duplicates from their first occurrence.
	for i := range results {
		if results[i].Result != nil || results[i].Error != "" {
			continue
		}
		first := results[firstIndex[results[i].Fingerprint]]
		results[i].Result = first.Result
		results[i].Error = first.Error
		results[i].Partial = first.Partial
	}
	return results
}

// handleJob reports a batch job's state and, once done, its results.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	status := wire.JobStatus{ID: job.id, Jobs: job.n, State: "running"}
	job.mu.Lock()
	if job.done {
		status.State = "done"
		status.Results = make([]wire.Element, len(job.results))
		for i, r := range job.results {
			status.Results[i] = wire.Element{Fingerprint: r.Fingerprint, Result: r.Result,
				Error: r.Error, Cached: r.Cached, Partial: r.Partial}
		}
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
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	job.mu.Lock()
	done, results := job.done, job.results
	job.mu.Unlock()
	if !done {
		writeError(w, http.StatusConflict, fmt.Errorf("job %q is still running", id))
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
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
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
	for len(s.jobs) > s.opts.MaxJobs {
		evicted := false
		for i, id := range s.order {
			job := s.jobs[id]
			if job == nil {
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
			job.mu.Lock()
			done := job.done
			job.mu.Unlock()
			if done {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is still running
		}
	}
}
