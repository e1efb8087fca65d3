package server

import (
	"encoding/json"
	"errors"
	"net/http"

	rbcast "repro"
	"repro/internal/obs"
	"repro/internal/wire"
)

// SweepRequest is the /v1/sweep payload: a base scenario plus axes. The
// server plans the grid — expansion order, the element cap, execution-key
// grouping and wavefront forking all happen daemon-side, so every client
// sees the same canonical plan for the same request.
type SweepRequest struct {
	Base RunRequest       `json:"base"`
	Axes rbcast.SweepAxes `json:"axes"`
	// Workers optionally caps the sweep's worker pool below the server
	// default (≤ 0: server default).
	Workers int `json:"workers,omitempty"`
}

// SweepHeader is the first NDJSON line of a /v1/sweep response: the planned
// element count, before any results.
type SweepHeader struct {
	Elements int `json:"elements"`
}

// SweepElement is one per-element NDJSON line, in grid order (the
// SweepSpec.Elements expansion: placements outermost, crash rounds
// innermost).
type SweepElement struct {
	Index       int            `json:"index"`
	Fingerprint string         `json:"fingerprint"`
	Result      *rbcast.Result `json:"result,omitempty"`
	Error       string         `json:"error,omitempty"`
	// Cached reports the element was served from the result cache without
	// simulating.
	Cached bool `json:"cached,omitempty"`
	// Partial marks an element cut by the server's job deadline: Error
	// carries the deadline error, Result the partial state (never cached).
	Partial bool `json:"partial,omitempty"`
}

// SweepTrailer is the final NDJSON line: the sweep engine's sharing
// statistics for the executed (non-cached) elements.
type SweepTrailer struct {
	Stats rbcast.SweepStats `json:"stats"`
}

// handleSweep plans a parameter grid server-side, serves cache hits without
// simulating, executes the misses through the incremental sweep engine
// (rbcast.RunSweepJobs: execution-key sharing plus wavefront-prefix forks),
// and streams per-element results as NDJSON — header, one line per element
// in grid order, stats trailer. Failure modes follow /v1/run: invalid grid
// 400, draining 503, all execution slots taken 429 (Retry-After), deadline
// elements marked partial inline.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	tr, root := obs.SpanFromContext(r.Context())
	var req SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	spec := rbcast.SweepSpec{
		Base: rbcast.Job{Config: req.Base.Config, Plan: req.Base.Plan},
		Axes: req.Axes,
	}
	elements, err := spec.Elements()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	// Sweeps are synchronous like /v1/run: shed rather than queue when
	// every execution slot is taken. One slot covers the whole sweep; the
	// engine's own worker pool paces the per-element parallelism.
	if !s.acquireSlot(tr, root, false) {
		s.shedBusy.Add(1)
		writeShed(w, errBusy)
		return
	}
	defer s.releaseSlot()

	// No within-sweep fingerprint dedup: the sweep engine's execution-key
	// grouping subsumes it (identical fingerprints have identical
	// execution keys) and shares more besides.
	results := make([]wire.Element, len(elements))
	for i, job := range elements {
		results[i] = wire.Element{Index: i, Fingerprint: job.Fingerprint()}
	}
	stats := s.resolve(tr, root, elements, results, req.Workers, s.opts.SweepRunner, nil)
	s.sweepsRun.Add(1)
	s.sweepElements.Add(int64(len(elements)))
	s.sweepSharedResults.Add(int64(stats.SharedResults))
	s.sweepNodeRounds.Add(stats.NodeRounds)
	s.sweepScalarNodeRounds.Add(stats.ScalarNodeRounds)

	encSp := tr.Start(root, "encode")
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Element lines go through the envelope codec, header and trailer
	// through encoding/json. A line that fails to encode is left out.
	flusher, _ := w.(http.Flusher)
	writeLine := func(line []byte, err error) {
		if err == nil {
			w.Write(append(line, '\n'))
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	writeLine(json.Marshal(SweepHeader{Elements: len(elements)}))
	var line []byte
	for i := range results {
		var err error
		line, err = wire.AppendElement(line[:0], &results[i], true)
		writeLine(line, err)
	}
	writeLine(json.Marshal(SweepTrailer{Stats: stats}))
	tr.End(encSp)
}
