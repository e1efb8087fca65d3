package protocol

import (
	"repro/internal/etrace"
	"repro/internal/sim"
	"repro/internal/topology"
)

// floodProc is the crash-stop protocol of §VII: "Each node that receives a
// value, commits to it, re-broadcasts it once for the benefit of others, and
// then may terminate local execution of the protocol." No fault bound is
// consulted — with crash-stop failures the sole criterion is reachability.
type floodProc struct {
	self    topology.NodeID
	source  topology.NodeID
	value   byte
	decided bool
	tap     *etrace.Recorder // event/certificate tap (nil = off)
}

// newFloodFactory builds flood processes.
func newFloodFactory(p Params) sim.ProcessFactory {
	return func(id topology.NodeID) sim.Process {
		return &floodProc{self: id, source: p.Source, value: p.Value, tap: p.Tap}
	}
}

// Init implements sim.Process.
func (f *floodProc) Init(ctx sim.Context) {
	if f.self == f.source {
		f.decided = true
		if f.tap.Tracing() {
			f.tap.Commit(ctx.Round(), f.self, f.value,
				&etrace.Certificate{Rule: etrace.RuleSource, Value: f.value})
		}
		ctx.Broadcast(sim.Message{Kind: sim.KindValue, Value: f.value})
	}
}

// Deliver implements sim.Process.
func (f *floodProc) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	if f.decided || m.Kind != sim.KindValue {
		return
	}
	f.decided = true
	f.value = m.Value
	if f.tap.Tracing() {
		// Delivery provenance: with crash-stop faults the sole commit
		// justification is "who handed us the value".
		f.tap.Commit(ctx.Round(), f.self, m.Value, &etrace.Certificate{
			Rule: etrace.RuleFlood, Value: m.Value,
			Voters: []topology.NodeID{from},
		})
	}
	ctx.Broadcast(sim.Message{Kind: sim.KindValue, Value: m.Value})
}

// Decided implements sim.Process.
func (f *floodProc) Decided() (byte, bool) {
	if !f.decided {
		return 0, false
	}
	return f.value, true
}

// CloneProcess implements sim.CloneableProcess: flood state is a handful of
// scalars, so a struct copy is an exact fork. The recorder pointer is shared
// deliberately — forking is gated to untraced engines, where it is nil.
func (f *floodProc) CloneProcess() sim.Process {
	g := *f
	return &g
}

var _ sim.Process = (*floodProc)(nil)
var _ sim.CloneableProcess = (*floodProc)(nil)
