// Package etrace is the engines' one per-run tap. It always counts
// broadcasts, deliveries, evidence evaluations and commits per round (the
// source of Result.Metrics), and, when built with tracing on, records
// structured execution events — broadcasts, deliveries, evidence
// evaluations, crashes, spoofed attributions and commits with their
// justifying certificates — so a run can answer the question the paper's
// staged-induction arguments answer on paper: *why* did node g commit
// value v at round k (Thm 1–3, §VI-B; Thm 6, §IX).
//
// A nil *Recorder is a valid no-op sink and every method begins with a nil
// check, so the engines tap unconditionally. Tracing off costs one
// predictable branch per event site and no per-event allocation, which the
// alloc-regression gates enforce.
//
// Determinism: on the sequential engine the event order is fully
// deterministic. On the concurrent runtime, broadcast and delivery events
// are recorded in the engine's deterministic fan-out loops, but evidence
// and commit events are recorded from node goroutines, so their
// interleaving *within a round* varies run to run. The set of events and
// every per-node subsequence are still deterministic; consumers needing a
// canonical order sort by (Round, Node, record order).
//
// etrace deliberately depends only on topology (sim imports etrace, not
// the reverse), so message kinds travel as raw uint8 and are re-interpreted
// by the public conversion layer in the root package.
package etrace
