package evidence

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/paths"
	"repro/internal/topology"
)

// FamilyTable is the precomputed designated-evidence plan for the 4-hop
// protocol — the paper's "earmarking exact messages that a node should
// lookout for" state reduction (§VI). It is translation invariant, so one
// table serves every node of a torus.
//
// For every relative offset d = origin − receiver that occurs in the
// completeness proof, the table stores the explicit family of r(2r+1)
// internally node-disjoint relay paths from the constructive proof
// (FamilyU/S1/S2), under all eight grid symmetries (the induction sweeps in
// all four directions). Receivers count confirmed designated paths; relayers
// forward only chains that are prefixes of some designated path.
//
// Both lookups are offset-indexed arrays, never hashed: families sit in a
// dense window over the 2r ball of origin offsets, and the relay prefixes
// form a trie whose edges are single hops (one of the (2r+1)² steps). A trie
// node doubles as a dense prefix number, which the per-node evidence state
// (Node) uses as a dedup bit index.
type FamilyTable struct {
	// origins spans every covered origin offset; fams is indexed by it.
	origins window
	// fams holds each origin offset's family; uncovered offsets have no
	// paths.
	fams []famEntry
	// covered counts the offsets with a family, maxPaths the largest one.
	covered, maxPaths int
	// hops spans one relay step; trie holds, for trie node k, its children
	// at trie[k*hops.size()+hops.index(step)] (0 = none). Node 0 is the
	// root, the empty prefix.
	hops window
	trie []int32
}

// famEntry is one origin offset's designated family.
type famEntry struct {
	slot  int            // dense index among the covered offsets
	paths [][]grid.Coord // relay offsets relative to the receiver
	keys  []uint64       // packOffsets of each path, same order
}

// window indexes the offsets of the square [-h, h]² densely, row-major.
type window struct{ h, side int }

func newWindow(h int) window { return window{h: h, side: 2*h + 1} }

func (w window) size() int { return w.side * w.side }

// index returns d's position, or false when d lies outside the square.
func (w window) index(d grid.Coord) (int, bool) {
	x, y := d.X+w.h, d.Y+w.h
	if uint(x) >= uint(w.side) || uint(y) >= uint(w.side) {
		return 0, false
	}
	return y*w.side + x, true
}

// offset inverts index.
func (w window) offset(i int) grid.Coord { return grid.C(i%w.side-w.h, i/w.side-w.h) }

// packOffsets encodes a relay-offset sequence (≤ paths.MaxIntermediates
// entries, each component within int8 range — true for any practical radius)
// as a single comparable word. Sequences longer than the inline capacity get
// a length-only key; they can never equal a designated-path key, whose
// length is always ≤ paths.MaxIntermediates.
func packOffsets(offs []grid.Coord) uint64 {
	key := uint64(len(offs)) << 48
	if len(offs) > paths.MaxIntermediates {
		return key
	}
	for i, d := range offs {
		key |= (uint64(uint8(int8(d.X))) | uint64(uint8(int8(d.Y)))<<8) << (16 * uint(i))
	}
	return key
}

// symmetries are the eight isometries of the integer grid fixing the origin.
var symmetries = []func(grid.Coord) grid.Coord{
	func(c grid.Coord) grid.Coord { return c },
	func(c grid.Coord) grid.Coord { return grid.C(-c.X, c.Y) },
	func(c grid.Coord) grid.Coord { return grid.C(c.X, -c.Y) },
	func(c grid.Coord) grid.Coord { return grid.C(-c.X, -c.Y) },
	func(c grid.Coord) grid.Coord { return grid.C(c.Y, c.X) },
	func(c grid.Coord) grid.Coord { return grid.C(-c.Y, c.X) },
	func(c grid.Coord) grid.Coord { return grid.C(c.Y, -c.X) },
	func(c grid.Coord) grid.Coord { return grid.C(-c.Y, -c.X) },
}

// NewFamilyTable builds the designated-family table for radius r (L∞).
func NewFamilyTable(r int) (*FamilyTable, error) {
	if r < 1 {
		return nil, fmt.Errorf("evidence: radius must be ≥ 1, got %d", r)
	}
	ft := &FamilyTable{origins: newWindow(2 * r), hops: newWindow(r)}
	ft.fams = make([]famEntry, ft.origins.size())
	ft.trie = make([]int32, ft.hops.size())
	center := grid.C(0, 0)
	p0 := paths.CornerP(center, r)
	regionNodes := make([]grid.Coord, 0, r*r)
	regionNodes = append(regionNodes, paths.RegionU(center, r)...)
	regionNodes = append(regionNodes, paths.RegionS1(center, r)...)
	regionNodes = append(regionNodes, paths.RegionS2(center, r)...)
	for _, n := range regionNodes {
		fam, err := paths.FamilyFor(center, r, n)
		if err != nil {
			return nil, fmt.Errorf("evidence: building family for %v: %w", n, err)
		}
		// Offset form relative to the receiver P.
		d := fam.N.Sub(p0)
		relPaths := make([][]grid.Coord, len(fam.Paths))
		for i, path := range fam.Paths {
			rels := make([]grid.Coord, 0, len(path)-2)
			for _, x := range path[1 : len(path)-1] {
				rels = append(rels, x.Sub(p0))
			}
			relPaths[i] = rels
		}
		for _, sym := range symmetries {
			sd := sym(d)
			idx, ok := ft.origins.index(sd)
			if !ok {
				return nil, fmt.Errorf("evidence: family offset %v lies beyond 2r", sd)
			}
			if ft.fams[idx].paths != nil {
				continue
			}
			sPaths := make([][]grid.Coord, len(relPaths))
			sKeys := make([]uint64, len(relPaths))
			for i, rels := range relPaths {
				srels := make([]grid.Coord, len(rels))
				for j, x := range rels {
					srels[j] = sym(x)
				}
				sPaths[i] = srels
				sKeys[i] = packOffsets(srels)
			}
			ft.fams[idx] = famEntry{slot: ft.covered, paths: sPaths, keys: sKeys}
			ft.covered++
			ft.maxPaths = max(ft.maxPaths, len(sPaths))
			if err := ft.addPrefixes(sd, sPaths); err != nil {
				return nil, err
			}
		}
	}
	return ft, nil
}

// addPrefixes inserts all relay-sequence prefixes of the family into the
// trie, in origin-relative coordinates (relay − origin), so relayers can
// check membership without knowing the receiver.
func (ft *FamilyTable) addPrefixes(originOff grid.Coord, relPaths [][]grid.Coord) error {
	for _, rels := range relPaths {
		node, prev := int32(0), grid.C(0, 0)
		for _, rel := range rels {
			at := rel.Sub(originOff)
			step, ok := ft.hops.index(at.Sub(prev))
			if !ok {
				return fmt.Errorf("evidence: designated hop %v→%v exceeds the radius", prev, at)
			}
			slot := int(node)*ft.hops.size() + step
			if ft.trie[slot] == 0 {
				ft.trie[slot] = int32(len(ft.trie) / ft.hops.size())
				ft.trie = append(ft.trie, make([]int32, ft.hops.size())...)
			}
			node, prev = ft.trie[slot], at
		}
	}
	return nil
}

// child returns the trie node reached from node by one relay hop of the
// given step, or 0 when that extension is no designated prefix.
func (ft *FamilyTable) child(node int32, step grid.Coord) int32 {
	i, ok := ft.hops.index(step)
	if !ok {
		return 0
	}
	return ft.trie[int(node)*ft.hops.size()+i]
}

// prefixes returns the number of distinct designated prefixes: the trie's
// nodes other than the root, numbered 1..prefixes.
func (ft *FamilyTable) prefixes() int { return len(ft.trie)/ft.hops.size() - 1 }

// family returns the designated family for an origin offset, or nil when
// the offset is not covered.
func (ft *FamilyTable) family(originOff grid.Coord) *famEntry {
	i, ok := ft.origins.index(originOff)
	if !ok || ft.fams[i].paths == nil {
		return nil
	}
	return &ft.fams[i]
}

// HonestPathCount counts the designated paths for the receiver→origin
// offset whose relays all satisfy the honesty predicate. Honest relays
// always forward designated prefixes, so this is the number of paths
// guaranteed to be confirmed once the origin announces — the static
// counterpart of Node.Confirmed, used by the outcome analyzer.
func (ft *FamilyTable) HonestPathCount(net *topology.Network, receiver, origin topology.NodeID, honest func(topology.NodeID) bool) int {
	fam := ft.family(net.Delta(receiver, origin))
	if fam == nil {
		return 0
	}
	recvC := net.CoordOf(receiver)
	count := 0
	for _, rels := range fam.paths {
		allHonest := true
		for _, off := range rels {
			if !honest(net.IDOf(recvC.Add(off))) {
				allHonest = false
				break
			}
		}
		if allHonest {
			count++
		}
	}
	return count
}
