package protocol

import (
	"repro/internal/etrace"
	"repro/internal/evidence"
	"repro/internal/sim"
	"repro/internal/topology"
)

// bv2Proc is the simplified two-hop protocol of §VI-B: only the immediate
// neighbors of a node that sent a COMMITTED message send a one-time HEARD
// report of it, so information about a commitment propagates exactly two
// hops. A node commits to v once it holds t+1 report chains for v (direct
// COMMITTED receptions or one-relay HEARD reports) that are collectively
// node-disjoint — including the committing endpoints — and lie inside one
// single closed neighborhood. The threshold matches Theorem 1.
type bv2Proc struct {
	self   topology.NodeID
	source topology.NodeID
	t      int
	net    *topology.Network
	spoof  bool             // §X study: medium does not authenticate senders
	tap    *etrace.Recorder // evidence-counting and event tap (nil = off)

	value     byte
	decided   bool
	announced bool

	store *evidence.Store
	// firstCommit dedupes contradictory COMMITTED retransmissions by
	// sender (§V: accept the first version only).
	firstCommit map[topology.NodeID]struct{}
	// firstHeard dedupes HEARD reports by (sender, origin).
	firstHeard map[[2]topology.NodeID]struct{}
	// relayed tracks committers whose announcement we already reported.
	relayed map[topology.NodeID]struct{}
}

// newBV2Factory builds two-hop protocol processes.
func newBV2Factory(p Params) (sim.ProcessFactory, error) {
	net, err := p.torus(BV2)
	if err != nil {
		return nil, err
	}
	return func(id topology.NodeID) sim.Process {
		return &bv2Proc{
			self:        id,
			source:      p.Source,
			t:           p.T,
			net:         net,
			spoof:       p.SpoofingPossible,
			tap:         p.Tap,
			value:       p.Value,
			store:       evidence.NewStore(),
			firstCommit: make(map[topology.NodeID]struct{}),
			firstHeard:  make(map[[2]topology.NodeID]struct{}),
			relayed:     make(map[topology.NodeID]struct{}),
		}
	}, nil
}

// Init implements sim.Process.
func (b *bv2Proc) Init(ctx sim.Context) {
	if b.self == b.source {
		b.decided = true
		b.announced = true
		if b.tap.Tracing() {
			b.tap.Commit(ctx.Round(), b.self, b.value,
				&etrace.Certificate{Rule: etrace.RuleSource, Value: b.value})
		}
		ctx.Broadcast(sim.Message{Kind: sim.KindValue, Value: b.value})
	}
}

// Deliver implements sim.Process.
func (b *bv2Proc) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	if m.Value > 1 {
		return // not a binary broadcast value
	}
	sender := attributedSender(b.spoof, from, m)
	if b.tap.Tracing() && sender != from {
		b.tap.Spoof(ctx.Round(), b.self, from, sender)
	}
	switch m.Kind {
	case sim.KindValue:
		if sender != b.source {
			return // only the designated source originates values
		}
		// The source's initial transmission doubles as its COMMITTED
		// announcement; its neighbors commit immediately (base case).
		b.acceptCommitted(ctx, sender, m.Value)
		if !b.decided {
			var cert *etrace.Certificate
			if b.tap.Tracing() {
				cert = &etrace.Certificate{Rule: etrace.RuleDirect, Value: m.Value,
					Voters: []topology.NodeID{sender}}
			}
			b.commit(ctx, m.Value, cert)
		}
	case sim.KindCommitted:
		if m.Origin != sender {
			return // under authentication, spoofed origins are impossible
		}
		b.acceptCommitted(ctx, sender, m.Value)
	case sim.KindHeard:
		if len(m.Path) != 1 || m.Path[0] != sender {
			return // two-hop protocol: exactly one relay, and it must be the sender
		}
		if m.Origin == sender || m.Origin == b.self {
			return
		}
		key := [2]topology.NodeID{sender, m.Origin}
		if _, dup := b.firstHeard[key]; dup {
			return
		}
		b.firstHeard[key] = struct{}{}
		chain := evidence.Chain{Origin: m.Origin, Value: m.Value, Relays: []topology.NodeID{sender}}
		b.store.Add(chain)
		b.tryCommit(ctx, chain)
	}
}

// acceptCommitted processes a (first) commitment announcement from a
// neighbor: record it, report it once, and re-evaluate the commit rule.
func (b *bv2Proc) acceptCommitted(ctx sim.Context, committer topology.NodeID, v byte) {
	if _, dup := b.firstCommit[committer]; dup {
		return
	}
	b.firstCommit[committer] = struct{}{}
	b.store.AddDirect(committer, v)
	direct := evidence.Chain{Origin: committer, Value: v}
	if _, done := b.relayed[committer]; !done {
		b.relayed[committer] = struct{}{}
		ctx.Broadcast(sim.Message{
			Kind:   sim.KindHeard,
			Origin: committer,
			Value:  v,
			Path:   []topology.NodeID{b.self},
		})
	}
	b.tryCommit(ctx, direct)
}

// tryCommit applies the §VI-B commit rule for the value of the newly
// recorded chain, evaluating only neighborhoods that contain it.
func (b *bv2Proc) tryCommit(ctx sim.Context, chain evidence.Chain) {
	if b.decided {
		return
	}
	b.tap.EvidenceEval(ctx.Round(), b.self, chain.Origin, chain.Value)
	if _, _, ok := evidence.CommitSingleLevel(b.net, b.store, b.self, chain.Value, b.t+1, &chain); ok {
		b.commit(ctx, chain.Value, b.chainCert(chain.Value))
	}
}

// chainCert reconstructs the §VI-B justification at the moment the rule
// fired: a neighborhood center and t+1 collectively node-disjoint chains
// for v inside it. Nil on untraced runs.
func (b *bv2Proc) chainCert(v byte) *etrace.Certificate {
	if !b.tap.Tracing() {
		return nil
	}
	center, chains, ok := evidence.CommitSingleLevel(b.net, b.store, b.self, v, b.t+1, nil)
	if !ok {
		return nil // defensive: the focused check just succeeded
	}
	cert := &etrace.Certificate{
		Rule: etrace.RuleDisjointChains, Value: v,
		Center: b.net.IDOf(center), HasCenter: true,
		Evidence: make([]etrace.Evidence, 0, len(chains)),
	}
	for _, c := range chains {
		item := etrace.Evidence{Origin: c.Origin, Direct: len(c.Relays) == 0}
		if len(c.Relays) > 0 {
			item.Chains = [][]topology.NodeID{append([]topology.NodeID(nil), c.Relays...)}
		}
		cert.Evidence = append(cert.Evidence, item)
	}
	return cert
}

// commit records the decision and announces it once. cert is nil on
// untraced runs.
func (b *bv2Proc) commit(ctx sim.Context, v byte, cert *etrace.Certificate) {
	b.decided = true
	b.value = v
	if b.tap.Tracing() {
		b.tap.Commit(ctx.Round(), b.self, v, cert)
	}
	if !b.announced {
		b.announced = true
		ctx.Broadcast(sim.Message{Kind: sim.KindCommitted, Origin: b.self, Value: v})
	}
}

// Decided implements sim.Process.
func (b *bv2Proc) Decided() (byte, bool) {
	if !b.decided {
		return 0, false
	}
	return b.value, true
}

var _ sim.Process = (*bv2Proc)(nil)
