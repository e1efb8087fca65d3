package etrace

import (
	"sync"

	"repro/internal/topology"
)

// Kind discriminates recorded event types.
type Kind uint8

const (
	// KindBroadcast is one local broadcast by a node.
	KindBroadcast Kind = iota + 1
	// KindDelivery is one per-receiver message delivery.
	KindDelivery
	// KindEvidenceEval is one commit-rule evidence evaluation by an
	// honest BV4/BV2 process.
	KindEvidenceEval
	// KindCrash marks a node silenced by the crash-stop adversary; Round
	// is its first silent round.
	KindCrash
	// KindSpoof marks a delivery whose receiver attributed the message to
	// a claimed identity different from the physical transmitter (§X).
	KindSpoof
	// KindCommit is a first-time decision, carrying its Certificate.
	KindCommit
)

// Rule identifies which commit rule a certificate satisfied.
type Rule uint8

const (
	// RuleSource: the node is the designated source and commits by fiat.
	RuleSource Rule = iota + 1
	// RuleDirect: the node heard the value directly from the source
	// (base case of every protocol).
	RuleDirect
	// RuleQuorum: BV4's commit rule — t+1 reliably-determined committers
	// inside one closed neighborhood (§VI).
	RuleQuorum
	// RuleDisjointChains: BV2's commit rule — t+1 collectively
	// node-disjoint chains inside one closed neighborhood (§VI-B).
	RuleDisjointChains
	// RuleVotes: CPA's commit rule — t+1 distinct neighbor announcements
	// of the same value (§IX).
	RuleVotes
	// RuleFlood: crash-stop flooding — commit on any reception (§VII).
	RuleFlood
	// RuleReadyQuorum: Bracha's delivery rule — 2f+1 distinct READY
	// endorsements of one value, optionally backed by the N−f ECHO quorum
	// that triggered the node's own READY.
	RuleReadyQuorum
)

// Evidence is one origin's contribution to a certificate: either a direct
// COMMITTED reception (unforgeable) or the confirmed relay chains that
// reliably determined it.
type Evidence struct {
	// Origin is the committer the evidence is about.
	Origin topology.NodeID
	// Direct reports the origin's COMMITTED was heard on the channel
	// itself; Chains is empty then.
	Direct bool
	// Chains lists the relay sequences (origin-side first) of the
	// confirming recorded chains.
	Chains [][]topology.NodeID
}

// Certificate is the recorded justification of one commit. Which fields
// are populated depends on Rule: Center for the neighborhood rules
// (RuleQuorum, RuleDisjointChains), Voters for RuleDirect/RuleVotes/
// RuleFlood, Evidence for the chain-based rules.
type Certificate struct {
	Rule  Rule
	Value byte
	// Center is the closed-neighborhood center the rule fired at
	// (meaningful iff HasCenter).
	Center    topology.NodeID
	HasCenter bool
	// Voters lists the distinct attributed senders whose messages the
	// rule counted (for RuleReadyQuorum: the READY endorsers).
	Voters []topology.NodeID
	// Evidence lists the per-origin chain evidence, in origin-id order.
	Evidence []Evidence
	// Echoes lists the N−f distinct ECHO endorsers whose quorum triggered
	// the committing node's own READY (RuleReadyQuorum only; empty when
	// the READY came from f+1 READY amplification instead).
	Echoes []topology.NodeID
}

// Event is one recorded engine or protocol event. Which fields are
// meaningful depends on Kind; Round and Node are always set.
type Event struct {
	Round int
	Kind  Kind
	// Node is the acting node: the transmitter of a broadcast, the
	// receiver of a delivery/spoof, the evaluator, the crashed node, or
	// the committer.
	Node topology.NodeID
	// From is the physical transmitter (delivery, spoof).
	From topology.NodeID
	// MsgKind/Value/Origin/Path mirror the sim.Message of a broadcast or
	// delivery (MsgKind is the raw sim.Kind; etrace cannot import sim).
	// Value doubles as the evaluated/committed value for
	// evidence-eval/commit events.
	MsgKind uint8
	Value   byte
	Origin  topology.NodeID
	Path    []topology.NodeID
	// Claimed is the spoofed identity the receiver attributed (spoof).
	Claimed topology.NodeID
	// Cert is the commit justification (commit events only).
	Cert *Certificate
}

// RoundCounters is one engine round's event counts. Round 0 is process
// initialization (the source's first broadcast is queued there but
// transmitted in round 1).
type RoundCounters struct {
	// Broadcasts counts local broadcasts transmitted in the round
	// (including blind retransmissions on a lossy medium).
	Broadcasts int64
	// Deliveries counts per-receiver message deliveries in the round.
	Deliveries int64
	// EvidenceEvals counts commit-rule evidence evaluations performed by
	// honest processes in the round.
	EvidenceEvals int64
	// Commits counts first-time decisions observed in the round.
	Commits int64
}

// Recorder is the one per-run engine tap. It always keeps per-round
// counters; it appends events only when built with tracing on. A nil
// *Recorder is a valid no-op sink, so engines and protocols tap
// unconditionally. All methods are safe for concurrent use — the
// concurrent runtime taps commit and evidence events from many node
// goroutines at once (within a round their interleaving is
// scheduler-dependent; see the package doc).
type Recorder struct {
	traced bool
	mu     sync.Mutex
	rounds []RoundCounters
	events []Event
}

// New creates an empty recorder; traced arms event recording.
func New(traced bool) *Recorder { return &Recorder{traced: traced} }

// Tracing reports whether events are being recorded. Engines and
// protocols use it to skip event and certificate construction entirely on
// untraced runs.
func (r *Recorder) Tracing() bool { return r != nil && r.traced }

// round returns the per-round bucket, growing the histogram as needed.
// Negative rounds clamp to 0. Callers must hold r.mu.
func (r *Recorder) round(round int) *RoundCounters {
	round = max(round, 0)
	for len(r.rounds) <= round {
		r.rounds = append(r.rounds, RoundCounters{})
	}
	return &r.rounds[round]
}

// Traffic counts one round's local broadcasts and per-receiver deliveries.
// Zero counts leave the histogram untouched.
func (r *Recorder) Traffic(round int, broadcasts, deliveries int64) {
	if r == nil || broadcasts == 0 && deliveries == 0 {
		return
	}
	r.mu.Lock()
	rc := r.round(round)
	rc.Broadcasts += broadcasts
	rc.Deliveries += deliveries
	r.mu.Unlock()
}

// Decision counts one first-time decision observed by the engine.
func (r *Recorder) Decision(round int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.round(round).Commits++
	r.mu.Unlock()
}

// Counts returns a copy of the per-round counters and their column totals.
func (r *Recorder) Counts() (perRound []RoundCounters, total RoundCounters) {
	if r == nil {
		return nil, total
	}
	r.mu.Lock()
	perRound = append([]RoundCounters(nil), r.rounds...)
	r.mu.Unlock()
	for _, rc := range perRound {
		total.Broadcasts += rc.Broadcasts
		total.Deliveries += rc.Deliveries
		total.EvidenceEvals += rc.EvidenceEvals
		total.Commits += rc.Commits
	}
	return perRound, total
}

// Clone returns an independent recorder carrying an exact copy of the
// state. A forked engine (sim.Engine.Fork) clones the tap at the fork point
// so the shared execution prefix is counted once per branch, exactly as if
// each branch had simulated the prefix itself. Cloning nil returns nil.
func (r *Recorder) Clone() *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Recorder{
		traced: r.traced,
		rounds: append([]RoundCounters(nil), r.rounds...),
		events: append([]Event(nil), r.events...),
	}
}

// record appends one event under the lock; callers have checked Tracing.
func (r *Recorder) record(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// copyPath defensively copies a message path: broadcast messages are
// immutable, but the caller's backing slice may be reused after delivery.
func copyPath(path []topology.NodeID) []topology.NodeID {
	if len(path) == 0 {
		return nil
	}
	return append([]topology.NodeID(nil), path...)
}

// Broadcast records one local broadcast of a message.
func (r *Recorder) Broadcast(round int, from topology.NodeID, msgKind uint8, value byte, origin topology.NodeID, path []topology.NodeID) {
	if !r.Tracing() {
		return
	}
	r.record(Event{Round: round, Kind: KindBroadcast, Node: from,
		MsgKind: msgKind, Value: value, Origin: origin, Path: copyPath(path)})
}

// Delivery records one per-receiver delivery.
func (r *Recorder) Delivery(round int, node, from topology.NodeID, msgKind uint8, value byte, origin topology.NodeID, path []topology.NodeID) {
	if !r.Tracing() {
		return
	}
	r.record(Event{Round: round, Kind: KindDelivery, Node: node, From: from,
		MsgKind: msgKind, Value: value, Origin: origin, Path: copyPath(path)})
}

// EvidenceEval counts one commit-rule evidence evaluation about (origin,
// value) at the evaluating node, and records it when tracing.
func (r *Recorder) EvidenceEval(round int, node, origin topology.NodeID, value byte) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.round(round).EvidenceEvals++
	if r.traced {
		r.events = append(r.events, Event{Round: round, Kind: KindEvidenceEval, Node: node, Origin: origin, Value: value})
	}
	r.mu.Unlock()
}

// Crash records a node silenced from the given round onward.
func (r *Recorder) Crash(round int, node topology.NodeID) {
	if !r.Tracing() {
		return
	}
	r.record(Event{Round: max(round, 0), Kind: KindCrash, Node: node})
}

// Spoof records a delivery whose attribution diverged from the physical
// transmitter: node received from `from` but ascribed it to `claimed`.
func (r *Recorder) Spoof(round int, node, from, claimed topology.NodeID) {
	if !r.Tracing() {
		return
	}
	r.record(Event{Round: round, Kind: KindSpoof, Node: node, From: from, Claimed: claimed})
}

// Commit records a first-time decision with its justification. Cert may be
// nil if the protocol could not reconstruct one (defensive; honest
// protocols always supply it).
func (r *Recorder) Commit(round int, node topology.NodeID, value byte, cert *Certificate) {
	if !r.Tracing() {
		return
	}
	r.record(Event{Round: round, Kind: KindCommit, Node: node, Value: value, Cert: cert})
}

// Events returns a copy of everything recorded so far, in record order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}
