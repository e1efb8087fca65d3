package protocol

import (
	"repro/internal/etrace"
	"repro/internal/sim"
	"repro/internal/topology"
)

// cpaProc is the simple protocol of §IX (Koo's protocol; the Certified
// Propagation Algorithm): the source transmits its value; the source's
// neighbors commit instantly and announce their committed value once; every
// other node commits when it has heard the same value announced by at least
// t+1 distinct neighbors, announces once, and terminates. Theorem 6 proves
// this tolerates t ≤ (2/3)r² in L∞.
type cpaProc struct {
	self    topology.NodeID
	source  topology.NodeID
	t       int
	spoof   bool // §X study: medium does not authenticate senders
	value   byte
	decided bool
	// votes[v] counts distinct neighbors that announced value v. Only a
	// neighbor's first announcement counts (§V: accept the first version,
	// ignore the rest), so the heard set is the dedup and plain counters
	// suffice — no per-value membership sets on the delivery path.
	votes [2]int
	heard map[topology.NodeID]struct{} // neighbors whose announcement was consumed
	tap   *etrace.Recorder             // event/certificate tap (nil = off)
	// voters[v] retains the counted announcers per value — trace-only
	// state (the vote-set certificate), never allocated on untraced runs.
	voters [2][]topology.NodeID
}

// newCPAFactory builds CPA processes.
func newCPAFactory(p Params) sim.ProcessFactory {
	return func(id topology.NodeID) sim.Process {
		return &cpaProc{
			self:   id,
			source: p.Source,
			t:      p.T,
			spoof:  p.SpoofingPossible,
			value:  p.Value,
			heard:  make(map[topology.NodeID]struct{}),
			tap:    p.Tap,
		}
	}
}

// Init implements sim.Process.
func (c *cpaProc) Init(ctx sim.Context) {
	if c.self == c.source {
		c.decided = true
		if c.tap.Tracing() {
			c.tap.Commit(ctx.Round(), c.self, c.value,
				&etrace.Certificate{Rule: etrace.RuleSource, Value: c.value})
		}
		ctx.Broadcast(sim.Message{Kind: sim.KindValue, Value: c.value})
	}
}

// Deliver implements sim.Process.
func (c *cpaProc) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	if c.decided || m.Kind != sim.KindValue || m.Value > 1 {
		return
	}
	sender := attributedSender(c.spoof, from, m)
	if c.tap.Tracing() && sender != from {
		c.tap.Spoof(ctx.Round(), c.self, from, sender)
	}
	// Direct reception from the designated source: commit immediately.
	if sender == c.source {
		var cert *etrace.Certificate
		if c.tap.Tracing() {
			cert = &etrace.Certificate{Rule: etrace.RuleDirect, Value: m.Value,
				Voters: []topology.NodeID{sender}}
		}
		c.commit(ctx, m.Value, cert)
		return
	}
	if _, seen := c.heard[sender]; seen {
		return // only a neighbor's first announcement counts
	}
	c.heard[sender] = struct{}{}
	c.votes[m.Value]++
	if c.tap.Tracing() {
		c.voters[m.Value] = append(c.voters[m.Value], sender)
	}
	if c.votes[m.Value] >= c.t+1 {
		var cert *etrace.Certificate
		if c.tap.Tracing() {
			cert = &etrace.Certificate{Rule: etrace.RuleVotes, Value: m.Value,
				Voters: append([]topology.NodeID(nil), c.voters[m.Value]...)}
		}
		c.commit(ctx, m.Value, cert)
	}
}

// commit records the decision and makes the one-time announcement. cert is
// nil on untraced runs.
func (c *cpaProc) commit(ctx sim.Context, v byte, cert *etrace.Certificate) {
	c.decided = true
	c.value = v
	if c.tap.Tracing() {
		c.tap.Commit(ctx.Round(), c.self, v, cert)
	}
	ctx.Broadcast(sim.Message{Kind: sim.KindValue, Value: v})
}

// Decided implements sim.Process.
func (c *cpaProc) Decided() (byte, bool) {
	if !c.decided {
		return 0, false
	}
	return c.value, true
}

// CloneProcess implements sim.CloneableProcess: deep-copies the heard set
// and the trace-only voter lists so the fork's vote bookkeeping evolves
// independently of the original's.
func (c *cpaProc) CloneProcess() sim.Process {
	g := *c
	g.heard = make(map[topology.NodeID]struct{}, len(c.heard))
	for id := range c.heard {
		g.heard[id] = struct{}{}
	}
	for v := range c.voters {
		g.voters[v] = append([]topology.NodeID(nil), c.voters[v]...)
	}
	return &g
}

var _ sim.Process = (*cpaProc)(nil)
var _ sim.CloneableProcess = (*cpaProc)(nil)
