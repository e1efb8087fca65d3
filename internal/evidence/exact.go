package evidence

import (
	"math"

	"repro/internal/grid"
	"repro/internal/topology"
)

// DeterminedExact implements the §VI reliable-determination rule verbatim:
// node `receiver` has reliably determined that `origin` committed `value`
// iff it heard COMMITTED(origin, value) directly (direct = true, no
// chains), or its store holds need = t+1 recorded chains that are pairwise
// internally node-disjoint and whose nodes (origin, every relay, and the
// receiver) all lie within one single closed neighborhood; chains is then
// the first such packing the search finds. ok is false when the rule does
// not hold.
//
// The search is exact: every candidate neighborhood center is enumerated
// and a branch-and-bound set packing runs over the recorded chains (chains
// are atomic units; combining relays across chains would be unsound).
func DeterminedExact(net *topology.Network, s *Store, receiver, origin topology.NodeID, value byte, need int) (chains []Chain, direct, ok bool) {
	if s.HasDirect(origin, value) {
		return nil, true, true
	}
	all := s.Chains(origin, value)
	if len(all) < need {
		return nil, false, false
	}
	// Every candidate center holds the origin and the receiver, so only
	// relays need testing — and only relays conflict (chains share their
	// origin). Exact-mode chains carry at least one relay, so no chain's
	// relay set is empty.
	var buf [128]grid.Coord
	centers := candidateCenters(net, net.CoordOf(receiver), origin, buf[:0])
	_, chains, ok = packCenters(net, all, centers, need, false, math.MaxInt)
	return chains, false, ok
}

// candidateCenters appends to out the grid points whose closed
// neighborhood contains both the receiver and the origin.
func candidateCenters(net *topology.Network, recvC grid.Coord, origin topology.NodeID, out []grid.Coord) []grid.Coord {
	r := net.Radius()
	t := net.Torus()
	m := net.Metric()
	origC := net.CoordOf(origin)
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			c := t.Wrap(recvC.Add(grid.C(dx, dy)))
			if !t.Within(m, c, recvC, r) {
				continue // L2: offset box is a superset of the ball
			}
			if t.Within(m, c, origC, r) {
				out = append(out, c)
			}
		}
	}
	return out
}

// CommitSingleLevel implements the §VI-B (two-hop protocol) commit rule:
// the receiver commits to `value` iff there exist at least need = t+1
// recorded chains for that value — across any origins — that are pairwise
// node-disjoint including the origins, with every origin and relay lying in
// one single closed neighborhood. Chains are atomic evidence units, so the
// packing is an exact set packing over whole chains: the same physical node
// appearing as one chain's origin and another's relay is a conflict. It
// returns the first center (in scan order) whose neighborhood holds such a
// packing, with the packing's chains; ok is false when the rule does not
// hold.
//
// With focus nil every center within 3r of the receiver is scanned (chain
// nodes live within 2 hops of it). A non-nil focus restricts the scan to
// the neighborhoods that fully contain that (newly recorded) chain: if the
// rule did not hold before the chain arrived, any newly satisfiable
// neighborhood must contain it, so evaluating only those centers after
// each insertion is complete — and far cheaper on hot paths. The unfocused
// scan covers every center the focused one can fire at.
func CommitSingleLevel(net *topology.Network, s *Store, receiver topology.NodeID, value byte, need int, focus *Chain) (center grid.Coord, chains []Chain, ok bool) {
	// All chains for this value (any origin), including the direct
	// COMMITTED receptions as relay-free chains; the store maintains this
	// list incrementally so the hot per-insertion check re-gathers nothing.
	all := s.ValueChains(value)
	if len(all) < need {
		return grid.Coord{}, nil, false
	}
	r := net.Radius()
	t := net.Torus()
	m := net.Metric()
	anchor := net.CoordOf(receiver)
	span := 3 * r
	if focus != nil {
		anchor = net.CoordOf(focus.Origin)
		span = r
	}
	var buf [128]grid.Coord
	centers := buf[:0]
	for dy := -span; dy <= span; dy++ {
		for dx := -span; dx <= span; dx++ {
			c := t.Wrap(anchor.Add(grid.C(dx, dy)))
			if focus != nil {
				fits := t.Within(m, c, anchor, r)
				for _, rel := range focus.Relays {
					fits = fits && t.Within(m, c, net.CoordOf(rel), r)
				}
				if !fits {
					continue
				}
			}
			centers = append(centers, c)
		}
	}
	// Each chain's whole node set (origin AND relays — the §VI-B
	// "collectively node-disjoint" requirement) is packed, so none is
	// empty. Two-hop protocol: at most one relay.
	return packCenters(net, all, centers, need, true, 1)
}

// packCenters scans centers in order and returns the first whose closed
// neighborhood holds need pairwise-disjoint chains of all, with those
// chains in store order. A chain is a candidate at a center when it has at
// most maxRelays relays and its node set lies inside the neighborhood;
// withOrigin puts the origin in the node set (the §VI-B whole-chain rule)
// or leaves only the relays (the §VI internal-disjointness rule). Every
// chain's node set must be non-empty (pack's precondition).
func packCenters(net *topology.Network, all []Chain, centers []grid.Coord, need int, withOrigin bool, maxRelays int) (grid.Coord, []Chain, bool) {
	r := net.Radius()
	t := net.Torus()
	m := net.Metric()
	// Pack every chain's node set once; each center then only filters the
	// shared masks instead of rebuilding node sets.
	masks, words := chainMasks(all, withOrigin)
	cand := make([]int, 0, len(all))
	for _, center := range centers {
		cand = cand[:0]
		for i, c := range all {
			if len(c.Relays) > maxRelays {
				continue
			}
			fits := !withOrigin || t.Within(m, center, net.CoordOf(c.Origin), r)
			for _, rel := range c.Relays {
				fits = fits && t.Within(m, center, net.CoordOf(rel), r)
			}
			if fits {
				cand = append(cand, i)
			}
		}
		if sel := pack(masks, cand, words, need); sel != nil {
			out := make([]Chain, len(sel))
			for j, i := range sel {
				out[j] = all[i]
			}
			return center, out, true
		}
	}
	return grid.Coord{}, nil, false
}
