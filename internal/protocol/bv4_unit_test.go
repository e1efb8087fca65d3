package protocol

import (
	"testing"

	"repro/internal/etrace"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/topology"
)

// captureCtx records broadcasts for white-box process tests.
type captureCtx struct {
	self topology.NodeID
	out  []sim.Message
}

func (c *captureCtx) Self() topology.NodeID   { return c.self }
func (c *captureCtx) Round() int              { return 1 }
func (c *captureCtx) Broadcast(m sim.Message) { c.out = append(c.out, m) }

// newBV4 builds a single bv4 process for white-box testing, with an
// evidence-evaluation tap: every recorded HEARD about a still-undetermined
// origin is evaluated exactly once.
func newBV4(t *testing.T, net *topology.Network, self, source topology.NodeID, tVal int, mode EvidenceMode) *bv4Proc {
	t.Helper()
	factory, err := newBV4Factory(Params{Net: net, Source: source, Value: 1, T: tVal, Mode: mode, Tap: etrace.New(false)})
	if err != nil {
		t.Fatal(err)
	}
	return factory(self).(*bv4Proc)
}

// evals is the number of HEARDs the process recorded and evaluated.
func (b *bv4Proc) evals() int64 {
	_, total := b.tap.Counts()
	return total.EvidenceEvals
}

func TestBV4RejectsMalformedHeard(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	self := net.IDOf(grid.C(4, 4))
	src := net.IDOf(grid.C(0, 0))
	origin := net.IDOf(grid.C(6, 4))
	relay := net.IDOf(grid.C(5, 4))

	cases := []struct {
		name string
		m    sim.Message
		from topology.NodeID
	}{
		{"empty path", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1}, relay},
		{"oversized path", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1,
			Path: []topology.NodeID{1, 2, 3, 4}}, 4},
		{"last relay is not the sender", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1,
			Path: []topology.NodeID{relay}}, net.IDOf(grid.C(3, 4))},
		{"origin inside the path", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1,
			Path: []topology.NodeID{origin, relay}}, relay},
		{"receiver inside the path", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1,
			Path: []topology.NodeID{self, relay}}, relay},
		{"duplicate relay", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1,
			Path: []topology.NodeID{relay, relay}}, relay},
		{"report about the receiver itself", sim.Message{Kind: sim.KindHeard, Origin: self, Value: 1,
			Path: []topology.NodeID{relay}}, relay},
		{"non-binary value", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 7,
			Path: []topology.NodeID{relay}}, relay},
	}
	valid := sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1, Path: []topology.NodeID{relay}}
	for _, mode := range []EvidenceMode{Exact, Designated} {
		for _, tc := range cases {
			p := newBV4(t, net, self, src, 1, mode)
			ctx := &captureCtx{self: self}
			p.Deliver(ctx, tc.from, tc.m)
			if p.evals() != 0 {
				t.Errorf("mode %d, %s: malformed HEARD was recorded", mode, tc.name)
			}
			if len(ctx.out) != 0 {
				t.Errorf("mode %d, %s: malformed HEARD was relayed: %v", mode, tc.name, ctx.out)
			}
			// Nor did it take the dedup slot of the valid report.
			p.Deliver(ctx, relay, valid)
			if p.evals() != 1 {
				t.Errorf("mode %d, %s: valid report after it was not recorded", mode, tc.name)
			}
		}
	}
}

func TestBV4AcceptsValidHeardAndRelays(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	self := net.IDOf(grid.C(4, 4))
	src := net.IDOf(grid.C(0, 0))
	p := newBV4(t, net, self, src, 1, Exact)
	ctx := &captureCtx{self: self}
	origin := net.IDOf(grid.C(6, 4))
	relay := net.IDOf(grid.C(5, 4))
	p.Deliver(ctx, relay, sim.Message{
		Kind: sim.KindHeard, Origin: origin, Value: 1, Path: []topology.NodeID{relay},
	})
	if p.evals() != 1 {
		t.Fatal("valid chain not recorded")
	}
	// Exact mode relays everything under the cap, with self affixed.
	if len(ctx.out) != 1 {
		t.Fatalf("expected 1 relay, got %d", len(ctx.out))
	}
	fwd := ctx.out[0]
	if fwd.Kind != sim.KindHeard || len(fwd.Path) != 2 || fwd.Path[1] != self {
		t.Errorf("bad relay %v", fwd)
	}
	// A duplicate logical message (same origin+path, flipped value) is
	// ignored: first version wins (§V).
	before := len(ctx.out)
	p.Deliver(ctx, relay, sim.Message{
		Kind: sim.KindHeard, Origin: origin, Value: 0, Path: []topology.NodeID{relay},
	})
	if p.evals() != 1 {
		t.Error("contradictory retransmission must be ignored")
	}
	if len(ctx.out) != before {
		t.Error("contradictory retransmission must not be relayed")
	}
}

func TestBV4MaxLengthChainRecordedNotRelayed(t *testing.T) {
	net := testNet(t, 11, 11, 1)
	self := net.IDOf(grid.C(5, 5))
	src := net.IDOf(grid.C(0, 0))
	p := newBV4(t, net, self, src, 1, Exact)
	ctx := &captureCtx{self: self}
	origin := net.IDOf(grid.C(9, 5))
	path := []topology.NodeID{
		net.IDOf(grid.C(8, 5)), net.IDOf(grid.C(7, 5)), net.IDOf(grid.C(6, 5)),
	}
	p.Deliver(ctx, path[2], sim.Message{
		Kind: sim.KindHeard, Origin: origin, Value: 1, Path: path,
	})
	if p.evals() != 1 {
		t.Error("three-relay chain must be recorded")
	}
	if len(ctx.out) != 0 {
		t.Error("three-relay chain must not be re-relayed (fourth hop records only)")
	}
}

func TestBV4CommittedSpoofDropped(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	self := net.IDOf(grid.C(4, 4))
	src := net.IDOf(grid.C(0, 0))
	p := newBV4(t, net, self, src, 1, Designated)
	ctx := &captureCtx{self: self}
	liar := net.IDOf(grid.C(5, 4))
	victim := net.IDOf(grid.C(3, 4))
	// COMMITTED whose Origin differs from the sender: physically impossible
	// under the authenticated medium; must be dropped.
	p.Deliver(ctx, liar, sim.Message{Kind: sim.KindCommitted, Origin: victim, Value: 0})
	if p.ev.HasDirect(victim, 0) || p.ev.HasDirect(liar, 0) || p.ev.Determined(victim, 0) {
		t.Error("spoofed COMMITTED must be dropped entirely")
	}
}

func TestBV4FirstCommittedWins(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	self := net.IDOf(grid.C(4, 4))
	src := net.IDOf(grid.C(0, 0))
	p := newBV4(t, net, self, src, 1, Designated)
	ctx := &captureCtx{self: self}
	n := net.IDOf(grid.C(5, 4))
	p.Deliver(ctx, n, sim.Message{Kind: sim.KindCommitted, Origin: n, Value: 1})
	p.Deliver(ctx, n, sim.Message{Kind: sim.KindCommitted, Origin: n, Value: 0})
	if !p.ev.HasDirect(n, 1) || !p.ev.Determined(n, 1) {
		t.Error("first announcement lost")
	}
	if p.ev.HasDirect(n, 0) || p.ev.Determined(n, 0) {
		t.Error("contradictory announcement accepted (§V violation)")
	}
}

func TestBV4SourceValueCommitsNeighbor(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	src := net.IDOf(grid.C(0, 0))
	nb := net.IDOf(grid.C(1, 0))
	p := newBV4(t, net, nb, src, 1, Designated)
	ctx := &captureCtx{self: nb}
	p.Deliver(ctx, src, sim.Message{Kind: sim.KindValue, Value: 1})
	if v, ok := p.Decided(); !ok || v != 1 {
		t.Fatalf("source neighbor must commit immediately: %v %v", v, ok)
	}
	// It must announce its own commitment exactly once.
	committed := 0
	for _, m := range ctx.out {
		if m.Kind == sim.KindCommitted && m.Origin == nb {
			committed++
		}
	}
	if committed != 1 {
		t.Errorf("neighbor announced %d times", committed)
	}
	// VALUE from a non-source node is ignored.
	other := net.IDOf(grid.C(2, 0))
	p2 := newBV4(t, net, nb, src, 1, Designated)
	ctx2 := &captureCtx{self: nb}
	p2.Deliver(ctx2, other, sim.Message{Kind: sim.KindValue, Value: 0})
	if _, ok := p2.Decided(); ok {
		t.Error("VALUE from a non-source must not commit")
	}
}
