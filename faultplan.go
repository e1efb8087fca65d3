package rbcast

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/topology"
)

// Placement selects how the adversary positions its faults.
type Placement int

const (
	// PlaceNone runs fault-free.
	PlaceNone Placement = iota + 1
	// PlaceBand corrupts every node of a width-Radius vertical band,
	// doubled at the antipodal column so the torus is cut — the Fig 8
	// construction (t = r(2r+1) per neighborhood).
	PlaceBand
	// PlaceCheckerboardBand corrupts the (x+y)-even half of the band —
	// the Fig 13 construction (t = ⌈r(2r+1)/2⌉ per neighborhood).
	// Requires an even torus height.
	PlaceCheckerboardBand
	// PlaceGreedyBand packs as many faults into the two bands as the
	// locally bounded budget T allows — the strongest legal band
	// adversary for achievability experiments.
	PlaceGreedyBand
	// PlaceRandomBounded corrupts nodes in random order while the budget
	// T permits (up to Count faults; Count ≤ 0 means as many as
	// possible).
	PlaceRandomBounded
	// PlacePercolation corrupts each node independently with probability
	// Probability — the §XI random-failure model (ignores T).
	PlacePercolation
)

// placementNames spells each Placement; String, MarshalText and UnmarshalText
// all read it.
var placementNames = []string{
	PlaceNone:             "none",
	PlaceBand:             "band",
	PlaceCheckerboardBand: "checkerboard-band",
	PlaceGreedyBand:       "greedy-band",
	PlaceRandomBounded:    "random-bounded",
	PlacePercolation:      "percolation",
}

// String names the placement ("none", "band", "checkerboard-band",
// "greedy-band", "random-bounded", "percolation").
func (p Placement) String() string { return enumString("Placement", placementNames, p) }

// Strategy selects Byzantine behaviour for the corrupted nodes. For
// crash-stop experiments use StrategyCrash.
type Strategy int

const (
	// StrategyCrash silences corrupted nodes from round CrashRound
	// onward (crash-stop failures).
	StrategyCrash Strategy = iota + 1
	// StrategySilent Byzantine nodes never transmit.
	StrategySilent
	// StrategyLiar nodes announce a flipped committed value once.
	StrategyLiar
	// StrategyForger nodes flip their own announcement and forge
	// indirect reports about everything they hear.
	StrategyForger
	// StrategySpoofer nodes impersonate honest neighbors (§X what-if);
	// only effective when Config.SpoofingPossible is set.
	StrategySpoofer
	// StrategyEquivocator nodes endorse one value toward even-id receivers
	// and the flipped value toward odd-id ones, in every quorum dialect at
	// once — a directional-transmission what-if the quorum protocols
	// (ProtocolBracha family) are sensitive to and the paper's
	// locally-bounded protocols shrug off.
	StrategyEquivocator
)

// strategyNames spells each Strategy; String, MarshalText and UnmarshalText
// all read it.
var strategyNames = []string{
	StrategyCrash:       "crash",
	StrategySilent:      "silent",
	StrategyLiar:        "liar",
	StrategyForger:      "forger",
	StrategySpoofer:     "spoofer",
	StrategyEquivocator: "equivocator",
}

// String names the strategy ("crash", "silent", "liar", "forger",
// "spoofer", "equivocator").
func (s Strategy) String() string { return enumString("Strategy", strategyNames, s) }

// FaultPlan describes the adversary for one run. The JSON encoding (see
// encode.go) uses snake_case keys and stable enum names, omits zero-valued
// fields, and round-trips losslessly.
type FaultPlan struct {
	// Placement positions the faults; defaults to PlaceNone.
	Placement Placement `json:"placement,omitempty"`
	// Strategy selects behaviour; defaults to StrategyCrash.
	Strategy Strategy `json:"strategy,omitempty"`
	// Budget is the locally bounded budget for PlaceGreedyBand and
	// PlaceRandomBounded; 0 means "use Config.T".
	Budget int `json:"budget,omitempty"`
	// Count caps PlaceRandomBounded placements (≤ 0: maximal).
	Count int `json:"count,omitempty"`
	// Probability is the PlacePercolation failure probability.
	Probability float64 `json:"probability,omitempty"`
	// CrashRound is the round from which StrategyCrash nodes go silent
	// (0 = crashed from the start).
	CrashRound int `json:"crash_round,omitempty"`
	// Seed drives the randomized placements.
	Seed int64 `json:"seed,omitempty"`
	// budgetForPlan is resolved by Run (Config.T when Budget is 0).
	budgetForPlan int
}

// materialized is the resolved fault assignment.
type materialized struct {
	byzantine map[topology.NodeID]fault.Strategy
	crash     map[topology.NodeID]int
	faulty    []topology.NodeID
}

// materialize resolves the plan on a concrete network. The band placements
// are torus constructions (they corrupt grid columns) and reject every other
// family; the random placements work on any topology.Graph.
func (p FaultPlan) materialize(g topology.Graph, source topology.NodeID) (materialized, error) {
	placement := p.Placement
	if placement == 0 {
		placement = PlaceNone
	}
	budget := p.Budget
	if budget == 0 {
		budget = p.budgetForPlan
	}
	// torus gates the band placements on the grid family.
	torus := func() (*topology.Network, error) {
		net, ok := g.(*topology.Network)
		if !ok {
			return nil, fmt.Errorf("rbcast: placement %s requires the torus topology, got family %q",
				placement, g.Family())
		}
		return net, nil
	}

	var ids []topology.NodeID
	var err error
	switch placement {
	case PlaceNone:
	case PlaceBand:
		net, terr := torus()
		if terr != nil {
			return materialized{}, terr
		}
		r, w := net.Radius(), net.Torus().W
		for _, x0 := range []int{w / 4, 3 * w / 4} {
			ids = append(ids, fault.Band(net, x0, r)...)
		}
	case PlaceCheckerboardBand:
		net, terr := torus()
		if terr != nil {
			return materialized{}, terr
		}
		r, w := net.Radius(), net.Torus().W
		for _, x0 := range []int{w / 4, 3 * w / 4} {
			band, cerr := fault.CheckerboardBand(net, x0, r)
			if cerr != nil {
				return materialized{}, cerr
			}
			ids = append(ids, band...)
		}
	case PlaceGreedyBand:
		net, terr := torus()
		if terr != nil {
			return materialized{}, terr
		}
		r, w := net.Radius(), net.Torus().W
		for _, x0 := range []int{w / 4, 3 * w / 4} {
			band, cerr := fault.GreedyBand(net, x0, r, budget)
			if cerr != nil {
				return materialized{}, cerr
			}
			ids = append(ids, band...)
		}
	case PlaceRandomBounded:
		count := p.Count
		if count <= 0 {
			count = -1 // maximal placement
		}
		ids, err = fault.RandomBounded(g, budget, count, p.Seed)
	case PlacePercolation:
		ids, err = fault.Percolation(g, p.Probability, source, p.Seed)
	default:
		return materialized{}, fmt.Errorf("rbcast: invalid placement %d", int(placement))
	}
	if err != nil {
		return materialized{}, err
	}

	ids = filterFaulty(ids, source)

	out := materialized{faulty: ids}
	strategy := p.Strategy
	if strategy == 0 {
		strategy = StrategyCrash
	}
	switch strategy {
	case StrategyCrash:
		out.crash = make(map[topology.NodeID]int, len(ids))
		for _, id := range ids {
			out.crash[id] = p.CrashRound
		}
	case StrategySilent, StrategyLiar, StrategyForger, StrategySpoofer, StrategyEquivocator:
		var fs fault.Strategy
		switch strategy {
		case StrategySilent:
			fs = fault.Silent
		case StrategyLiar:
			fs = fault.Liar
		case StrategyForger:
			fs = fault.Forger
		case StrategyEquivocator:
			fs = fault.Equivocator
		default:
			fs = fault.Spoofer
		}
		out.byzantine = make(map[topology.NodeID]fault.Strategy, len(ids))
		for _, id := range ids {
			out.byzantine[id] = fs
		}
	default:
		return materialized{}, fmt.Errorf("rbcast: invalid strategy %d", int(strategy))
	}
	return out, nil
}

// filterFaulty canonicalizes a raw placement: the designated source stays
// honest, and a node placed twice (the two antipodal band constructions are
// appended independently and may meet on a narrow torus) counts once —
// otherwise Result.Faults and MaxFaultsPerNeighborhood would double-count
// it. First occurrence wins, preserving placement order.
func filterFaulty(ids []topology.NodeID, source topology.NodeID) []topology.NodeID {
	seen := make(map[topology.NodeID]struct{}, len(ids))
	kept := ids[:0]
	for _, id := range ids {
		if id == source {
			continue
		}
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		kept = append(kept, id)
	}
	return kept
}

// MaxFaultsPerNeighborhood exhaustively measures the worst closed
// neighborhood of a materialized plan on the configured network — the
// ground-truth validator for the locally bounded constraint.
func MaxFaultsPerNeighborhood(cfg Config, plan FaultPlan) (int, error) {
	g, err := cfg.network()
	if err != nil {
		return 0, err
	}
	source, err := cfg.sourceID(g)
	if err != nil {
		return 0, err
	}
	plan.budgetForPlan = cfg.T
	m, err := plan.materialize(g, source)
	if err != nil {
		return 0, err
	}
	return fault.MaxPerNeighborhood(g, m.faulty), nil
}

// faultMaxPerNeighborhood is an indirection point shared with result.go.
func faultMaxPerNeighborhood(g topology.Graph, ids []topology.NodeID) int {
	return fault.MaxPerNeighborhood(g, ids)
}
