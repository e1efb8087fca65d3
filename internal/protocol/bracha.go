package protocol

import (
	"fmt"

	"repro/internal/etrace"
	"repro/internal/sim"
	"repro/internal/topology"
)

// brachaProc is Bracha's ECHO/READY reliable broadcast — the message-passing
// literature's quorum protocol, run under the radio harness so the paper's
// locally-bounded protocols (t < r(2r+1)/2 faults per neighborhood) can be
// compared head-to-head with the global-quorum tradition (N ≥ 3f+1):
//
//   - VAL: the source transmits its value.
//   - ECHO: on accepting VAL, a node endorses the value once.
//   - READY: on an N−f ECHO quorum, or on f+1 READY amplification, a node
//     announces readiness once (for a single value).
//   - deliver: on 2f+1 distinct READY endorsements of one value.
//
// Two variants share this state machine:
//
// Plain (auth=false) counts endorsements by attributed sender — the radio
// medium's physical sender authentication is the only identity layer — so
// quorums assemble from single-hop receptions and the protocol needs an
// effectively complete graph (every honest node within one hop of almost
// every other). That requirement is itself an experimental result: the
// paper's protocols tolerate sparse geometry, the quorum tradition does not.
//
// Authenticated (auth=true) simulates digital signatures by pinning message
// provenance: VAL is accepted only with Origin = source plus a custody path
// (direct reception from the source, or a non-empty relay path), ECHO/READY
// carry their endorser in Origin, and every honest node relays each distinct
// signed message once (signed flooding). Quorums then assemble across
// multi-hop relays and the protocol runs on any connected graph. The fault
// strategies shipped here never forge another node's Origin on these kinds —
// signature forgery is exactly what the simulated signatures rule out.
//
// The engine's radio medium is irreflexive (a node does not hear its own
// broadcast), so a node counts its own ECHO/READY in its tallies the moment
// it transmits them; the quorum thresholds are over all N nodes.
type brachaProc struct {
	self    topology.NodeID
	source  topology.NodeID
	n, f    int
	auth    bool
	spoof   bool // §X study: medium does not authenticate senders
	value   byte
	decided bool
	echoed  bool
	// readied/readyVal: a node announces READY at most once, for a single
	// value (Bracha's one-READY discipline).
	readied  bool
	readyVal byte
	// echoes[v]/readies[v] hold the distinct endorsers counted per value:
	// attributed physical senders (plain) or Origin signers (auth).
	echoes  [2]map[topology.NodeID]struct{}
	readies [2]map[topology.NodeID]struct{}
	// relayed dedups the authenticated variant's signed flooding: each
	// distinct (kind, signer, value) message is re-broadcast once.
	relayed map[string]struct{}
	tap     *etrace.Recorder
	// Trace-only certificate state, never allocated on untraced runs:
	// ordered endorser lists per value, and the ECHO quorum snapshot taken
	// when the node's own READY fired via the echo path.
	echoVoters  [2][]topology.NodeID
	readyVoters [2][]topology.NodeID
	echoCert    []topology.NodeID
}

// newBrachaFactory builds Bracha processes. The quorum thresholds only
// intersect when N ≥ 3f+1, so smaller networks are rejected at construction.
func newBrachaFactory(p Params, kind Kind) (sim.ProcessFactory, error) {
	auth := kind == BrachaAuth
	if n := p.Net.Size(); n < 3*p.T+1 {
		return nil, fmt.Errorf("protocol: %s needs N ≥ 3f+1 for quorum intersection, got N = %d, f = %d", kind, n, p.T)
	}
	return func(id topology.NodeID) sim.Process {
		b := &brachaProc{
			self:   id,
			source: p.Source,
			n:      p.Net.Size(),
			f:      p.T,
			auth:   auth,
			spoof:  p.SpoofingPossible,
			value:  p.Value,
			tap:    p.Tap,
		}
		for v := 0; v < 2; v++ {
			b.echoes[v] = make(map[topology.NodeID]struct{})
			b.readies[v] = make(map[topology.NodeID]struct{})
		}
		if auth {
			b.relayed = make(map[string]struct{})
		}
		return b
	}, nil
}

// Init implements sim.Process: the source commits to its own input by fiat
// (the repo-wide source convention), transmits VAL, and — being a quorum
// participant like everyone else — endorses its own value with an ECHO.
func (b *brachaProc) Init(ctx sim.Context) {
	if b.self != b.source {
		return
	}
	b.decided = true
	if b.tap.Tracing() {
		b.tap.Commit(ctx.Round(), b.self, b.value,
			&etrace.Certificate{Rule: etrace.RuleSource, Value: b.value})
	}
	val := sim.Message{Kind: sim.KindValue, Value: b.value}
	if b.auth {
		val.Origin = b.source // the simulated signature's subject
	}
	ctx.Broadcast(val)
	b.echo(ctx, b.value)
}

// Deliver implements sim.Process.
func (b *brachaProc) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	if m.Value > 1 {
		return
	}
	switch m.Kind {
	case sim.KindValue, sim.KindEcho, sim.KindReady:
	default:
		return // other protocols' dialects: Byzantine noise to Bracha
	}
	if !b.auth && b.decided && b.readied {
		return // plain mode: fully resolved, no relaying duties remain
	}
	sender := attributedSender(b.spoof, from, m)
	if b.tap.Tracing() && sender != from {
		b.tap.Spoof(ctx.Round(), b.self, from, sender)
	}
	switch m.Kind {
	case sim.KindValue:
		b.deliverVal(ctx, from, sender, m)
	case sim.KindEcho:
		if b.auth {
			b.relayOnce(ctx, m)
			if b.addEcho(m.Origin, m.Value) {
				b.evaluate(ctx, m.Value)
			}
			return
		}
		if b.addEcho(sender, m.Value) {
			b.evaluate(ctx, m.Value)
		}
	case sim.KindReady:
		if b.auth {
			b.relayOnce(ctx, m)
			if b.addReady(m.Origin, m.Value) {
				b.evaluate(ctx, m.Value)
			}
			return
		}
		if b.addReady(sender, m.Value) {
			b.evaluate(ctx, m.Value)
		}
	}
}

// deliverVal accepts (and, authenticated, relays) the source's VAL.
func (b *brachaProc) deliverVal(ctx sim.Context, from, sender topology.NodeID, m sim.Message) {
	if !b.auth {
		// Plain mode: only a VAL attributed to the source itself is
		// accepted — there is no signature to carry it further.
		if sender == b.source {
			b.echo(ctx, m.Value)
		}
		return
	}
	// Authenticated mode: the provenance pin. A valid VAL carries the
	// source's signature (Origin = source) and arrived either from the
	// source itself or with a custody chain of at least one relay; a bare
	// Origin claim from elsewhere (e.g. a spoofed announcement) fails both.
	if m.Origin != b.source || (from != b.source && len(m.Path) == 0) {
		return
	}
	key := fmt.Sprintf("V|%d", m.Value)
	if _, done := b.relayed[key]; !done {
		b.relayed[key] = struct{}{}
		ctx.Broadcast(m.ExtendPath(b.self))
	}
	b.echo(ctx, m.Value)
}

// relayOnce re-broadcasts a distinct signed ECHO/READY exactly once — the
// signed flooding that lets quorums assemble across multi-hop topologies.
func (b *brachaProc) relayOnce(ctx sim.Context, m sim.Message) {
	key := fmt.Sprintf("%d|%d|%d", m.Kind, m.Origin, m.Value)
	if _, done := b.relayed[key]; done {
		return
	}
	b.relayed[key] = struct{}{}
	ctx.Broadcast(m)
}

// echo makes the node's one-time ECHO endorsement of value v.
func (b *brachaProc) echo(ctx sim.Context, v byte) {
	if b.echoed {
		return
	}
	b.echoed = true
	ctx.Broadcast(sim.Message{Kind: sim.KindEcho, Value: v, Origin: b.self})
	if b.addEcho(b.self, v) {
		b.evaluate(ctx, v)
	}
}

// addEcho records a distinct ECHO endorser; true means the tally changed.
func (b *brachaProc) addEcho(id topology.NodeID, v byte) bool {
	if _, seen := b.echoes[v][id]; seen {
		return false
	}
	b.echoes[v][id] = struct{}{}
	if b.tap.Tracing() {
		b.echoVoters[v] = append(b.echoVoters[v], id)
	}
	return true
}

// addReady records a distinct READY endorser; true means the tally changed.
func (b *brachaProc) addReady(id topology.NodeID, v byte) bool {
	if _, seen := b.readies[v][id]; seen {
		return false
	}
	b.readies[v][id] = struct{}{}
	if b.tap.Tracing() {
		b.readyVoters[v] = append(b.readyVoters[v], id)
	}
	return true
}

// evaluate re-checks the quorum thresholds for v after a tally change — the
// protocol's commit-rule evidence evaluation, tapped like the BV protocols'.
func (b *brachaProc) evaluate(ctx sim.Context, v byte) {
	b.tap.EvidenceEval(ctx.Round(), b.self, b.source, v)
	if !b.readied && (len(b.echoes[v]) >= b.n-b.f || len(b.readies[v]) >= b.f+1) {
		b.readied = true
		b.readyVal = v
		if b.tap.Tracing() && len(b.echoes[v]) >= b.n-b.f {
			// The READY fired via the echo path: snapshot the quorum for
			// the delivery certificate.
			b.echoCert = append([]topology.NodeID(nil), b.echoVoters[v]...)
		}
		ctx.Broadcast(sim.Message{Kind: sim.KindReady, Value: v, Origin: b.self})
		b.addReady(b.self, v)
	}
	if !b.decided && len(b.readies[v]) >= 2*b.f+1 {
		b.commit(ctx, v)
	}
}

// commit records the delivery. The READY announcement already went out, so
// unlike the paper's protocols there is nothing left to transmit.
func (b *brachaProc) commit(ctx sim.Context, v byte) {
	b.decided = true
	b.value = v
	if b.tap.Tracing() {
		cert := &etrace.Certificate{
			Rule:   etrace.RuleReadyQuorum,
			Value:  v,
			Voters: append([]topology.NodeID(nil), b.readyVoters[v]...),
		}
		if b.readyVal == v && len(b.echoCert) > 0 {
			cert.Echoes = append([]topology.NodeID(nil), b.echoCert...)
		}
		b.tap.Commit(ctx.Round(), b.self, v, cert)
	}
}

// Decided implements sim.Process.
func (b *brachaProc) Decided() (byte, bool) {
	if !b.decided {
		return 0, false
	}
	return b.value, true
}

var _ sim.Process = (*brachaProc)(nil)
