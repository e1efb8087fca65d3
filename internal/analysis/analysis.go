package analysis

import (
	"fmt"

	"repro/internal/evidence"
	"repro/internal/grid"
	"repro/internal/topology"
)

// Prediction is the set of honest nodes guaranteed to commit.
type Prediction struct {
	// Committed[id] reports whether node id is guaranteed to commit to
	// the source value.
	Committed []bool
	// Count is the number of guaranteed committers.
	Count int
	// Rounds is the number of closure iterations until the fixed point —
	// a lower bound on protocol latency in lock-step rounds.
	Rounds int
}

// All reports whether every honest node is guaranteed to commit.
func (p Prediction) All(net *topology.Network, faulty []topology.NodeID) bool {
	isF := make([]bool, net.Size())
	for _, id := range faulty {
		isF[id] = true
	}
	for i := 0; i < net.Size(); i++ {
		if !isF[i] && !p.Committed[i] {
			return false
		}
	}
	return true
}

// validate checks the shared inputs.
func validate(net *topology.Network, source topology.NodeID) error {
	if net == nil {
		return fmt.Errorf("analysis: network is required")
	}
	if source < 0 || int(source) >= net.Size() {
		return fmt.Errorf("analysis: source %d out of range", source)
	}
	return nil
}

// faultSet builds a lookup and rejects a faulty source.
func faultSet(net *topology.Network, source topology.NodeID, faulty []topology.NodeID) ([]bool, error) {
	isF := make([]bool, net.Size())
	for _, id := range faulty {
		if id == source {
			return nil, fmt.Errorf("analysis: the source must be honest")
		}
		if id < 0 || int(id) >= net.Size() {
			return nil, fmt.Errorf("analysis: faulty node %d out of range", id)
		}
		isF[id] = true
	}
	return isF, nil
}

// FloodReachable computes the crash-stop prediction: the set of non-faulty
// nodes reachable from the source through non-faulty nodes (§VII: "the sole
// criterion for achievability is reachability").
func FloodReachable(net *topology.Network, source topology.NodeID, crashed []topology.NodeID) (Prediction, error) {
	if err := validate(net, source); err != nil {
		return Prediction{}, err
	}
	isF, err := faultSet(net, source, crashed)
	if err != nil {
		return Prediction{}, err
	}
	pred := Prediction{Committed: make([]bool, net.Size())}
	queue := []topology.NodeID{source}
	pred.Committed[source] = true
	pred.Count = 1
	depth := make([]int, net.Size())
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range net.Neighbors(u) {
			if isF[v] || pred.Committed[v] {
				continue
			}
			pred.Committed[v] = true
			pred.Count++
			depth[v] = depth[u] + 1
			if depth[v] > pred.Rounds {
				pred.Rounds = depth[v]
			}
			queue = append(queue, v)
		}
	}
	return pred, nil
}

// CPAClosure computes the simple protocol's guaranteed-commit fixed point
// (§IX): the source's honest neighbors commit; thereafter an honest node
// commits once at least t+1 of its honest neighbors have committed.
// Byzantine votes are ignored (a silent adversary contributes none; any
// other behaviour only adds evidence).
func CPAClosure(net *topology.Network, source topology.NodeID, byzantine []topology.NodeID, t int) (Prediction, error) {
	if err := validate(net, source); err != nil {
		return Prediction{}, err
	}
	if t < 0 {
		return Prediction{}, fmt.Errorf("analysis: negative fault bound %d", t)
	}
	isF, err := faultSet(net, source, byzantine)
	if err != nil {
		return Prediction{}, err
	}
	pred := Prediction{Committed: make([]bool, net.Size())}
	pred.Committed[source] = true
	pred.Count = 1
	for _, v := range net.Neighbors(source) {
		if !isF[v] && !pred.Committed[v] {
			pred.Committed[v] = true
			pred.Count++
		}
	}
	for {
		changed := false
		for id := 0; id < net.Size(); id++ {
			u := topology.NodeID(id)
			if isF[u] || pred.Committed[u] {
				continue
			}
			votes := 0
			for _, v := range net.Neighbors(u) {
				if !isF[v] && pred.Committed[v] {
					votes++
				}
			}
			if votes >= t+1 {
				pred.Committed[u] = true
				pred.Count++
				changed = true
			}
		}
		if !changed {
			break
		}
		pred.Rounds++
	}
	return pred, nil
}

// BV4Closure computes the indirect-report protocol's guaranteed-commit
// fixed point under the designated-evidence plan (§VI): an honest node
// reliably determines a committed honest origin if it hears it directly or
// if at least t+1 designated paths for that offset consist entirely of
// honest relays; it commits once t+1 reliably-determined honest committers
// lie inside one closed neighborhood. The closure iterates to a fixed
// point; it is exactly the guaranteed outcome against a silent adversary.
func BV4Closure(net *topology.Network, ft *evidence.FamilyTable, source topology.NodeID, byzantine []topology.NodeID, t int) (Prediction, error) {
	if ft == nil {
		return Prediction{}, fmt.Errorf("analysis: family table is required")
	}
	if err := validate(net, source); err != nil {
		return Prediction{}, err
	}
	if net.Metric() != grid.Linf {
		return Prediction{}, fmt.Errorf("analysis: BV4Closure requires the L∞ metric")
	}
	if t < 0 {
		return Prediction{}, fmt.Errorf("analysis: negative fault bound %d", t)
	}
	isF, err := faultSet(net, source, byzantine)
	if err != nil {
		return Prediction{}, err
	}
	pred := Prediction{Committed: make([]bool, net.Size())}
	commit := func(u topology.NodeID) {
		if !pred.Committed[u] {
			pred.Committed[u] = true
			pred.Count++
		}
	}
	commit(source)
	for _, v := range net.Neighbors(source) {
		if !isF[v] {
			commit(v)
		}
	}
	for {
		changed := false
		for id := 0; id < net.Size(); id++ {
			u := topology.NodeID(id)
			if isF[u] || pred.Committed[u] {
				continue
			}
			if bv4CanCommit(net, ft, u, isF, pred.Committed, t) {
				commit(u)
				changed = true
			}
		}
		if !changed {
			break
		}
		pred.Rounds++
	}
	return pred, nil
}

// bv4CanCommit applies the §VI commit rule for one node against the
// guaranteed-committed set.
func bv4CanCommit(net *topology.Network, ft *evidence.FamilyTable, u topology.NodeID, isF, committed []bool, t int) bool {
	// Count reliably-determined committers per closed-neighborhood center.
	counters := make(map[topology.NodeID]int)
	uc := net.CoordOf(u)
	tor := net.Torus()
	// Candidate origins: honest committed nodes within L∞ distance 2r
	// (direct hearing or a designated family offset).
	r := net.Radius()
	for dy := -2 * r; dy <= 2*r; dy++ {
		for dx := -2 * r; dx <= 2*r; dx++ {
			oc := tor.Wrap(uc.Add(grid.C(dx, dy)))
			origin := net.IDOf(oc)
			if origin == u || isF[origin] || !committed[origin] {
				continue
			}
			if !determinedStatic(net, ft, u, origin, isF, t) {
				continue
			}
			for _, center := range net.ClosedNbdIDs(net.CoordOf(origin)) {
				counters[center]++
				if counters[center] >= t+1 {
					return true
				}
			}
		}
	}
	return false
}

// determinedStatic reports whether u is guaranteed to reliably determine
// origin's value: direct radio contact, or ≥ t+1 designated paths whose
// relays are all honest (honest relays always forward designated prefixes).
func determinedStatic(net *topology.Network, ft *evidence.FamilyTable, u, origin topology.NodeID, isF []bool, t int) bool {
	if net.AreNeighbors(u, origin) {
		return true
	}
	honestPaths := ft.HonestPathCount(net, u, origin, func(id topology.NodeID) bool {
		return !isF[id]
	})
	return honestPaths >= t+1
}
