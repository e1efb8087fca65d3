package protocol

import (
	"fmt"
	"sync"

	"repro/internal/etrace"
	"repro/internal/evidence"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/topology"
)

// familyTables caches designated-family tables per radius; the table is
// immutable and shared by every process of a run (and across runs).
var familyTables sync.Map // int -> *evidence.FamilyTable

// familyTableFor returns the (cached) designated table for radius r.
func familyTableFor(r int) (*evidence.FamilyTable, error) {
	if v, ok := familyTables.Load(r); ok {
		return v.(*evidence.FamilyTable), nil
	}
	ft, err := evidence.NewFamilyTable(r)
	if err != nil {
		return nil, err
	}
	actual, _ := familyTables.LoadOrStore(r, ft)
	return actual.(*evidence.FamilyTable), nil
}

// bv4Proc is the paper's main protocol (§VI): COMMITTED announcements are
// reported through HEARD chains of up to three relayers; a node reliably
// determines an origin's value by hearing it directly or via t+1 internally
// node-disjoint recorded chains inside one single neighborhood, and commits
// once t+1 reliably-determined committers lie inside one single
// neighborhood. Tolerates t < r(2r+1)/2 in L∞ (Theorem 1).
type bv4Proc struct {
	self   topology.NodeID
	source topology.NodeID
	t      int
	net    *topology.Network
	mode   EvidenceMode
	spoof  bool             // §X study: medium does not authenticate senders
	tap    *etrace.Recorder // evidence-counting and event tap (nil = off)

	value     byte
	decided   bool
	announced bool

	// ev is this node's share of the run's evidence arena: dedup,
	// determination, commit counters and designated confirmations.
	ev *evidence.Node
	// store keeps every recorded chain for Exact mode's set packing; nil
	// in Designated mode, where ev's confirmed-path bits suffice.
	store *evidence.Store
	// selfPath backs the relay list of every first-hop HEARD this node
	// sends; messages are immutable once broadcast, so they share it.
	selfPath [1]topology.NodeID
}

// newBV4Factory builds indirect-report protocol processes.
func newBV4Factory(p Params) (sim.ProcessFactory, error) {
	net, err := p.torus(BV4)
	if err != nil {
		return nil, err
	}
	mode := p.Mode
	if mode == 0 {
		mode = Designated
	}
	if mode != Designated && mode != Exact {
		return nil, fmt.Errorf("protocol: invalid evidence mode %d", int(mode))
	}
	if net.Metric() != grid.Linf && mode == Designated {
		return nil, fmt.Errorf("protocol: designated mode requires the L∞ metric (constructive families are L∞)")
	}
	var ft *evidence.FamilyTable
	if mode == Designated {
		var err error
		ft, err = familyTableFor(net.Radius())
		if err != nil {
			return nil, err
		}
	}
	// One arena and one process slab serve every node of an engine; a
	// factory reused for another engine starts a fresh pair.
	var (
		mu    sync.Mutex
		arena *evidence.Arena
		procs []bv4Proc
	)
	return func(id topology.NodeID) sim.Process {
		mu.Lock()
		defer mu.Unlock()
		ev := arena.Node(id)
		if ev == nil {
			arena = evidence.NewArena(net, ft)
			procs = make([]bv4Proc, net.Size())
			ev = arena.Node(id)
		}
		b := &procs[id]
		*b = bv4Proc{
			self:     id,
			source:   p.Source,
			t:        p.T,
			net:      net,
			mode:     mode,
			spoof:    p.SpoofingPossible,
			tap:      p.Tap,
			value:    p.Value,
			ev:       ev,
			selfPath: [1]topology.NodeID{id},
		}
		if mode == Exact {
			b.store = evidence.NewStore()
		}
		return b
	}, nil
}

// Init implements sim.Process.
func (b *bv4Proc) Init(ctx sim.Context) {
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
func (b *bv4Proc) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	if m.Value > 1 {
		return
	}
	sender := attributedSender(b.spoof, from, m)
	if b.tap.Tracing() && sender != from {
		b.tap.Spoof(ctx.Round(), b.self, from, sender)
	}
	switch m.Kind {
	case sim.KindValue:
		if sender != b.source {
			return
		}
		// Base case: direct neighbors of the source commit immediately;
		// the source's transmission is also its COMMITTED announcement.
		b.acceptCommitted(ctx, sender, m.Value)
		if !b.decided {
			b.commit(ctx, m.Value, b.directCert(sender, m.Value))
		}
	case sim.KindCommitted:
		if m.Origin != sender {
			return // under authentication, spoofing is physically impossible
		}
		b.acceptCommitted(ctx, sender, m.Value)
	case sim.KindHeard:
		b.acceptHeard(ctx, sender, m)
	}
}

// acceptCommitted handles a first-hand commitment announcement.
func (b *bv4Proc) acceptCommitted(ctx sim.Context, committer topology.NodeID, v byte) {
	if !b.ev.FirstCommit(committer, v) {
		return
	}
	b.onDetermined(ctx, committer, v)
	// Report it: HEARD(self, committer, v), subject to earmarking.
	if b.mode == Exact || b.ev.Earmarked(committer) {
		ctx.Broadcast(sim.Message{
			Kind:   sim.KindHeard,
			Origin: committer,
			Value:  v,
			Path:   b.selfPath[:],
		})
	}
}

// acceptHeard validates, records, evaluates and possibly re-relays an
// indirect report.
func (b *bv4Proc) acceptHeard(ctx sim.Context, from topology.NodeID, m sim.Message) {
	n := len(m.Path)
	if n < 1 || n > sim.MaxHeardRelays {
		return
	}
	if m.Path[n-1] != from {
		return // the sender must have affixed its own identifier last
	}
	if m.Origin == b.self {
		return // reports about ourselves carry no information
	}
	for i, rel := range m.Path {
		if rel == b.self || rel == m.Origin {
			return // cyclic or self-involving chains are worthless
		}
		for _, prev := range m.Path[:i] {
			if rel == prev {
				return
			}
		}
	}
	fresh, earmarked := b.ev.FirstHeard(m.Origin, m.Path)
	if !fresh {
		return
	}
	confirmed := 0
	if b.mode == Exact {
		relays := make([]topology.NodeID, n)
		copy(relays, m.Path)
		b.store.Add(evidence.Chain{Origin: m.Origin, Value: m.Value, Relays: relays})
	} else {
		confirmed = b.ev.Confirm(m.Origin, m.Value, m.Path)
	}

	// Evaluate reliable determination for this (origin, value).
	if b.isDetermined(ctx.Round(), m.Origin, m.Value, confirmed) {
		b.onDetermined(ctx, m.Origin, m.Value)
	}

	// Re-relay with our identifier affixed, if the extended chain is still
	// designated (or always, in exact mode) and under the relay cap.
	if n < sim.MaxHeardRelays && (b.mode == Exact || earmarked) {
		ctx.Broadcast(m.ExtendPath(b.self))
	}
}

// isDetermined applies the mode's reliable-determination rule; confirmed
// is the designated-path count. A direct reception determines on arrival,
// so only relayed evidence is evaluated.
func (b *bv4Proc) isDetermined(round int, origin topology.NodeID, v byte, confirmed int) bool {
	if b.ev.Determined(origin, v) {
		return false // already counted; avoid re-evaluation
	}
	b.tap.EvidenceEval(round, b.self, origin, v)
	need := b.t + 1
	if b.mode == Designated {
		// Designated paths are internally disjoint and lie inside one
		// closed neighborhood by construction, so counting confirmed
		// ones is a sound instance of the paper's rule.
		return confirmed >= need
	}
	_, _, ok := evidence.DeterminedExact(b.net, b.store, b.self, origin, v, need)
	return ok
}

// onDetermined counts a newly reliably-determined committer and applies the
// commit rule: t+1 determined committers of v inside one closed nbd.
func (b *bv4Proc) onDetermined(ctx sim.Context, origin topology.NodeID, v byte) {
	if b.ev.Determine(origin, v, b.t+1) && !b.decided {
		b.commit(ctx, v, b.quorumCert(v))
	}
}

// commit records the decision and announces it once. cert is nil on
// untraced runs.
func (b *bv4Proc) commit(ctx sim.Context, v byte, cert *etrace.Certificate) {
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

// directCert builds the base-case certificate: the value was heard
// directly from the designated source. Nil on untraced runs.
func (b *bv4Proc) directCert(sender topology.NodeID, v byte) *etrace.Certificate {
	if !b.tap.Tracing() {
		return nil
	}
	return &etrace.Certificate{Rule: etrace.RuleDirect, Value: v, Voters: []topology.NodeID{sender}}
}

// quorumCert reconstructs the §VI commit rule's justification at the
// moment it fired: a closed-neighborhood center holding ≥ t+1 reliably-
// determined committers of v, each backed by a direct COMMITTED reception
// or by its confirmed disjoint chain family. Nil on untraced runs.
func (b *bv4Proc) quorumCert(v byte) *etrace.Certificate {
	if !b.tap.Tracing() {
		return nil
	}
	need := b.t + 1
	center, origins := b.ev.Quorum(v, need)
	if center == topology.None {
		return nil // defensive: the caller observed the quorum fire
	}
	cert := &etrace.Certificate{
		Rule: etrace.RuleQuorum, Value: v,
		Center: center, HasCenter: true,
		Evidence: make([]etrace.Evidence, 0, len(origins)),
	}
	for _, origin := range origins {
		item := etrace.Evidence{Origin: origin}
		if b.ev.HasDirect(origin, v) {
			item.Direct = true
		} else {
			item.Chains = b.determinedChains(origin, v, need)
		}
		cert.Evidence = append(cert.Evidence, item)
	}
	return cert
}

// determinedChains returns the explicit chain witness that reliably
// determined (origin, v) under the process's evidence mode. Evidence only
// accumulates, so the witness exists whenever determination fired.
func (b *bv4Proc) determinedChains(origin topology.NodeID, v byte, need int) [][]topology.NodeID {
	if b.mode == Designated {
		return b.ev.ConfirmedChains(origin, v)
	}
	chains, _, _ := evidence.DeterminedExact(b.net, b.store, b.self, origin, v, need)
	var out [][]topology.NodeID
	for _, c := range chains {
		out = append(out, append([]topology.NodeID(nil), c.Relays...))
	}
	return out
}

// Decided implements sim.Process.
func (b *bv4Proc) Decided() (byte, bool) {
	if !b.decided {
		return 0, false
	}
	return b.value, true
}

var _ sim.Process = (*bv4Proc)(nil)
