// Package obs is the request-level span tracer behind rbcastd's flight
// recorder: per-request timelines of parent/child spans with monotonic
// starts, durations and key=value annotations, answering "where did the
// time go" for one slow request the way /metrics answers it for the
// fleet.
//
// It follows the repository's tap discipline (internal/etrace): a nil
// *Trace and a nil *Recorder are valid no-op sinks, so the serving stack
// instruments unconditionally and pays one pointer check per tap when the
// flight recorder is disarmed — the allocation gates in alloc_test.go pin
// that the disarmed path allocates nothing.
//
// A Trace is created per request (or per asynchronous batch job) by the
// HTTP layer, carried through the execution stack either explicitly or
// via ContextWith/SpanFromContext, finished with the response status,
// and handed to a Recorder — a bounded ring buffer whose Snapshots feed
// GET /debug/requests (à la golang.org/x/net/trace). Span names double
// as phase labels: the server folds every completed span into the
// rbcastd_phase_seconds summaries on /metrics.
package obs
