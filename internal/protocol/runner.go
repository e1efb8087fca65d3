package protocol

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topology"
)

// RunConfig combines a protocol, an adversary and an engine configuration
// into one executable scenario.
type RunConfig struct {
	// Kind selects the protocol.
	Kind Kind
	// Params configures it.
	Params Params
	// Byzantine assigns adversarial behaviours to nodes. Byzantine nodes
	// replace their honest process entirely.
	Byzantine map[topology.NodeID]fault.Strategy
	// Crash silences nodes from the given round onward (0 = from the
	// start). A node must not be both Byzantine and crashed.
	Crash map[topology.NodeID]int
	// MaxRounds bounds the run (0 = sim.DefaultMaxRounds).
	MaxRounds int
	// Mode selects the engine delivery mode (0 = sim.ModeFrame).
	Mode sim.DeliveryMode
	// Medium configures the optional unreliable-channel extension.
	Medium sim.Medium
	// Context optionally bounds the run by wall clock (see sim.Config).
	Context context.Context
}

// Outcome summarizes a run from the perspective of the honest nodes.
type Outcome struct {
	// Result is the raw engine result.
	Result sim.Result
	// Honest is the number of honest (non-Byzantine, non-crashed) nodes,
	// including the source.
	Honest int
	// Correct is the number of honest nodes that committed to the source
	// value.
	Correct int
	// Wrong is the number of honest nodes that committed to a different
	// value — any nonzero count is a safety violation.
	Wrong int
	// Undecided is the number of honest nodes that never committed.
	Undecided int
}

// AllCorrect reports whether every honest node committed to the source
// value — the definition of successful reliable broadcast.
func (o Outcome) AllCorrect() bool { return o.Wrong == 0 && o.Undecided == 0 }

// Safe reports whether no honest node committed to a wrong value
// (Theorem 2's guarantee, which must hold even when liveness fails).
func (o Outcome) Safe() bool { return o.Wrong == 0 }

// Run executes the configured scenario on the deterministic engine. When
// the run is stopped by its Context, the outcome scores the partial state
// and is returned together with the engine's error wrapping sim.ErrDeadline;
// undecided honest nodes then mean "not yet", not "never".
func Run(cfg RunConfig) (Outcome, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Outcome{}, err
	}
	res, err := e.Run()
	if err != nil && !errors.Is(err, sim.ErrDeadline) {
		return Outcome{}, err
	}
	return Score(cfg, res), err
}

// NewEngine validates the scenario and builds its engine without running it.
// This is the substrate for incremental sweep execution (rbcast.RunSweep),
// which steps the engine manually with sim.Engine.RunUntil and forks it at
// fault-plan divergence points; Run is exactly NewEngine followed by
// Engine.Run plus Score.
func NewEngine(cfg RunConfig) (*sim.Engine, error) {
	factory, err := cfg.Factory()
	if err != nil {
		return nil, err
	}
	return sim.NewEngine(sim.Config{
		Net:       cfg.Params.Net,
		Mode:      cfg.Mode,
		Factory:   factory,
		CrashAt:   cfg.Crash,
		MaxRounds: cfg.MaxRounds,
		Medium:    cfg.Medium,
		Tap:       cfg.Params.Tap,
		Context:   cfg.Context,
	})
}

// Factory validates the fault assignment and composes the scenario's
// process factory: Byzantine nodes get their strategy's process, every
// other node the protocol's honest one. Both engines build from it.
func (cfg RunConfig) Factory() (sim.ProcessFactory, error) {
	honest, err := NewFactory(cfg.Kind, cfg.Params)
	if err != nil {
		return nil, err
	}
	for id := range cfg.Byzantine {
		if _, crashed := cfg.Crash[id]; crashed {
			return nil, fmt.Errorf("protocol: node %d is both Byzantine and crashed", id)
		}
		if id == cfg.Params.Source {
			return nil, fmt.Errorf("protocol: the designated source must be honest")
		}
	}
	return func(id topology.NodeID) sim.Process {
		if strat, ok := cfg.Byzantine[id]; ok {
			return strat.NewProcess(id)
		}
		return honest(id)
	}, nil
}

// Score tallies honest-node outcomes of an engine result: Run's, the
// concurrent runtime's, or a manually stepped or forked engine's.
func Score(cfg RunConfig, res sim.Result) Outcome {
	out := Outcome{Result: res}
	net := cfg.Params.Net
	for i := 0; i < net.Size(); i++ {
		id := topology.NodeID(i)
		if _, byz := cfg.Byzantine[id]; byz {
			continue
		}
		if _, crashed := cfg.Crash[id]; crashed {
			continue // crash-faulty nodes are not required to decide
		}
		out.Honest++
		v, ok := res.Decided[id]
		switch {
		case !ok:
			out.Undecided++
		case v == cfg.Params.Value:
			out.Correct++
		default:
			out.Wrong++
		}
	}
	return out
}
