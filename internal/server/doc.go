// Package server implements rbcastd's HTTP/JSON serving layer: scenario
// execution behind a fingerprint-keyed LRU result cache with single-flight
// deduplication, asynchronous batch jobs and streamed sweeps on the
// incremental sweep engine (one shared cache-scan → execute → store miss
// path), and Prometheus-text observability.
//
// Endpoints:
//
//	POST /v1/run             execute one scenario synchronously (cached)
//	POST /v1/batch           submit a job list; returns a job id immediately
//	POST /v1/sweep           plan + execute a parameter grid incrementally (NDJSON stream)
//	GET  /v1/jobs/{id}       poll a batch job's status and results
//	GET  /v1/jobs/{id}/trace stream a traced element's event log (NDJSON)
//	GET  /healthz            liveness
//	GET  /metrics            Prometheus text-format counters and gauges
//
// API.md at the repository root is the full route reference.
//
// Identical scenarios — same canonical fingerprint, see
// rbcast.Job.Fingerprint — are executed once and served from the cache
// thereafter; concurrent identical /v1/run requests coalesce onto a single
// execution and receive byte-identical bodies.
package server
