package evidence

import (
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/topology"
)

func testNet(t *testing.T, w, h, r int) *topology.Network {
	t.Helper()
	net, err := topology.New(grid.Torus{W: w, H: h}, grid.Linf, r)
	if err != nil {
		t.Fatalf("topology.New: %v", err)
	}
	return net
}

func TestStoreDedup(t *testing.T) {
	s := NewStore()
	c := Chain{Origin: 5, Value: 1, Relays: []topology.NodeID{2, 3}}
	if !s.Add(c) {
		t.Error("first add must succeed")
	}
	if s.Add(c) {
		t.Error("duplicate add must be rejected")
	}
	// Same relays, different value: distinct.
	c2 := c
	c2.Value = 0
	if !s.Add(c2) {
		t.Error("different value is a distinct chain")
	}
	if len(s.Chains(5, 1)) != 1 || len(s.Chains(5, 0)) != 1 {
		t.Error("chains misfiled")
	}
}

func TestStoreDirect(t *testing.T) {
	s := NewStore()
	s.AddDirect(7, 1)
	if !s.HasDirect(7, 1) || s.HasDirect(7, 0) || s.HasDirect(8, 1) {
		t.Error("direct bookkeeping wrong")
	}
}

func TestChainKeyDistinguishesOrder(t *testing.T) {
	a := Chain{Origin: 1, Value: 0, Relays: []topology.NodeID{2, 3}}
	b := Chain{Origin: 1, Value: 0, Relays: []topology.NodeID{3, 2}}
	if a.key() == b.key() {
		t.Error("relay order matters: chains are attested sequences")
	}
}

func TestMaxDisjointChains(t *testing.T) {
	mk := func(rels ...topology.NodeID) Chain {
		return Chain{Origin: 99, Value: 1, Relays: rels}
	}
	tests := []struct {
		name   string
		chains []Chain
		want   int
	}{
		{"empty", nil, 0},
		{"single", []Chain{mk(1)}, 1},
		{"two disjoint", []Chain{mk(1), mk(2)}, 2},
		{"two conflicting", []Chain{mk(1, 2), mk(2, 3)}, 1},
		{"chain conflicts with both", []Chain{mk(1), mk(2), mk(1, 2)}, 2},
		{"triangle", []Chain{mk(1, 2), mk(2, 3), mk(3, 1)}, 1},
		{"pick small over big", []Chain{mk(1, 2, 3), mk(1), mk(2), mk(3)}, 3},
		{"duplicates collapse", []Chain{mk(4), mk(4)}, 1},
	}
	for _, tt := range tests {
		if got := maxDisjointChains(tt.chains, 10); got != tt.want {
			t.Errorf("%s: got %d, want %d", tt.name, got, tt.want)
		}
	}
}

func TestMaxDisjointChainsEarlyExit(t *testing.T) {
	var chains []Chain
	for i := 0; i < 30; i++ {
		chains = append(chains, Chain{Origin: 1, Value: 1, Relays: []topology.NodeID{topology.NodeID(i)}})
	}
	// With target 3, the search stops as soon as 3 are packed.
	if got := maxDisjointChains(chains, 3); got < 3 {
		t.Errorf("early-exit search found %d, want ≥ 3", got)
	}
}

func TestDeterminedExactDirect(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	s := NewStore()
	s.AddDirect(5, 1)
	if chains, direct, ok := DeterminedExact(net, s, 0, 5, 1, 99); !ok || !direct || chains != nil {
		t.Errorf("direct hearing determines regardless of need, with no chains: got %v, %v, %v", chains, direct, ok)
	}
}

func TestDeterminedExactViaChains(t *testing.T) {
	// r=1, t=1: need t+1 = 2 disjoint chains within one closed nbd.
	net := testNet(t, 9, 9, 1)
	recv := net.IDOf(grid.C(2, 2))
	origin := net.IDOf(grid.C(4, 2)) // distance 2: both in nbd centered (3,2)
	relayA := net.IDOf(grid.C(3, 1))
	relayB := net.IDOf(grid.C(3, 3))
	s := NewStore()
	s.Add(Chain{Origin: origin, Value: 1, Relays: []topology.NodeID{relayA}})
	if determinedExact(net, s, recv, origin, 1, 2) {
		t.Error("one chain cannot satisfy need=2")
	}
	s.Add(Chain{Origin: origin, Value: 1, Relays: []topology.NodeID{relayB}})
	chains, direct, ok := DeterminedExact(net, s, recv, origin, 1, 2)
	if !ok || direct {
		t.Fatal("two disjoint in-nbd chains must determine")
	}
	if !reflect.DeepEqual(chains, s.Chains(origin, 1)) {
		t.Errorf("witness = %v, want both chains in store order", chains)
	}
	// Wrong value is unaffected.
	if determinedExact(net, s, recv, origin, 0, 2) {
		t.Error("evidence is per-value")
	}
}

func TestDeterminedExactRejectsSharedRelay(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	recv := net.IDOf(grid.C(2, 2))
	origin := net.IDOf(grid.C(4, 2))
	shared := net.IDOf(grid.C(3, 2))
	far := net.IDOf(grid.C(3, 1))
	s := NewStore()
	// Two chains sharing their only relay: max packing is 1.
	s.Add(Chain{Origin: origin, Value: 1, Relays: []topology.NodeID{shared}})
	s.Add(Chain{Origin: origin, Value: 1, Relays: []topology.NodeID{shared, far}})
	if determinedExact(net, s, recv, origin, 1, 2) {
		t.Error("chains sharing a relay are not disjoint evidence")
	}
}

func TestDeterminedExactRequiresSingleNeighborhood(t *testing.T) {
	// Relays far apart: no single closed nbd contains origin, receiver and
	// both relays.
	net := testNet(t, 15, 15, 1)
	recv := net.IDOf(grid.C(5, 5))
	origin := net.IDOf(grid.C(7, 5))
	nearRelay := net.IDOf(grid.C(6, 5))
	farRelay := net.IDOf(grid.C(6, 9)) // outside every candidate nbd
	s := NewStore()
	s.Add(Chain{Origin: origin, Value: 1, Relays: []topology.NodeID{nearRelay}})
	s.Add(Chain{Origin: origin, Value: 1, Relays: []topology.NodeID{farRelay}})
	if determinedExact(net, s, recv, origin, 1, 2) {
		t.Error("chains outside a single neighborhood must not count together")
	}
}

func TestCommitSingleLevel(t *testing.T) {
	// r=1, t=1: need 2 disjoint chains (over distinct origins) in one nbd.
	net := testNet(t, 9, 9, 1)
	recv := net.IDOf(grid.C(2, 2))
	o1 := net.IDOf(grid.C(3, 2))
	o2 := net.IDOf(grid.C(3, 3))
	s := NewStore()
	s.AddDirect(o1, 1)
	if commits(net, s, recv, 1, 2) {
		t.Error("single chain insufficient")
	}
	s.AddDirect(o2, 1)
	if !commits(net, s, recv, 1, 2) {
		t.Error("two direct commits in one nbd must commit")
	}
}

func TestCommitSingleLevelDisjointness(t *testing.T) {
	// A node acting as another chain's relay breaks disjointness.
	net := testNet(t, 9, 9, 1)
	recv := net.IDOf(grid.C(2, 2))
	o1 := net.IDOf(grid.C(4, 2))
	o2 := net.IDOf(grid.C(3, 2)) // o2 is also the relay of o1's chain
	s := NewStore()
	s.Add(Chain{Origin: o1, Value: 1, Relays: []topology.NodeID{o2}})
	s.AddDirect(o2, 1)
	if commits(net, s, recv, 1, 2) {
		t.Error("origin reused as relay violates collective disjointness")
	}
	// Add an independent second origin: now two disjoint chains exist.
	o3 := net.IDOf(grid.C(3, 3))
	s.AddDirect(o3, 1)
	center, chains, ok := CommitSingleLevel(net, s, recv, 1, 2, nil)
	if !ok {
		t.Fatal("disjoint pair must commit")
	}
	want := []Chain{{Origin: o2, Value: 1}, {Origin: o3, Value: 1}}
	if !reflect.DeepEqual(chains, want) {
		t.Errorf("witness = %v, want the two direct commits %v", chains, want)
	}
	for _, id := range []topology.NodeID{o2, o3} {
		if !net.Torus().Within(grid.Linf, center, net.CoordOf(id), 1) {
			t.Errorf("center %v does not cover node %v", center, net.CoordOf(id))
		}
	}
	// The focused scan fires for the chain that completed the packing.
	if _, _, ok := CommitSingleLevel(net, s, recv, 1, 2, &Chain{Origin: o3, Value: 1}); !ok {
		t.Error("focused scan around the new chain must commit")
	}
}

func TestCommitSingleLevelIgnoresLongChains(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	recv := net.IDOf(grid.C(2, 2))
	o1 := net.IDOf(grid.C(3, 2))
	s := NewStore()
	s.Add(Chain{Origin: o1, Value: 1, Relays: []topology.NodeID{
		net.IDOf(grid.C(3, 3)), net.IDOf(grid.C(2, 3)),
	}})
	s.AddDirect(net.IDOf(grid.C(2, 1)), 1)
	if commits(net, s, recv, 1, 2) {
		t.Error("two-relay chains are not §VI-B evidence")
	}
}

func TestNewFamilyTableValidation(t *testing.T) {
	if _, err := NewFamilyTable(0); err == nil {
		t.Error("radius 0 must be rejected")
	}
}

func TestFamilyTableCoverage(t *testing.T) {
	for r := 1; r <= 4; r++ {
		ft, err := NewFamilyTable(r)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		// The corner construction covers r² offsets (U + S1 + S2); the 8
		// symmetries multiply coverage (with overlaps).
		if ft.covered < r*r {
			t.Errorf("r=%d: only %d offsets covered", r, ft.covered)
		}
		if ft.covered != 4*r*r {
			t.Errorf("r=%d: %d offsets covered, want 4r² = %d", r, ft.covered, 4*r*r)
		}
		// Every covered offset has the full family of r(2r+1) paths, whose
		// relays all lie within 2r of the receiver (the dense windows rely
		// on it).
		want := r * (2*r + 1)
		for off, fam := range families(ft) {
			for _, rels := range fam.paths {
				for _, x := range rels {
					if _, ok := ft.origins.index(x); !ok {
						t.Errorf("r=%d offset %v: relay %v beyond 2r", r, off, x)
					}
				}
			}
			if len(fam.paths) != want {
				t.Errorf("r=%d offset %v: %d paths, want %d", r, off, len(fam.paths), want)
			}
			if len(fam.keys) != len(fam.paths) {
				t.Errorf("r=%d offset %v: %d packed keys for %d paths", r, off, len(fam.keys), len(fam.paths))
			}
		}
	}
}

func TestFamilyTableSymmetricOffsets(t *testing.T) {
	ft, err := NewFamilyTable(2)
	if err != nil {
		t.Fatal(err)
	}
	// The S1 offset for p=0 is (0, -(r+1)) = (0,-3); all four axis-aligned
	// rotations must be covered.
	for _, off := range []grid.Coord{grid.C(0, -3), grid.C(0, 3), grid.C(-3, 0), grid.C(3, 0)} {
		if ft.family(off) == nil {
			t.Errorf("offset %v not covered", off)
		}
	}
}

// designatedPrefix reports whether origin-relative relay offsets walk the
// table's prefix trie to a node: an honest relayer's earmarking test.
func designatedPrefix(ft *FamilyTable, offs []grid.Coord) bool {
	node, prev := int32(0), grid.C(0, 0)
	for _, at := range offs {
		if node = ft.child(node, at.Sub(prev)); node == 0 {
			return false
		}
		prev = at
	}
	return len(offs) > 0
}

func TestShouldRelayPrefixes(t *testing.T) {
	r := 2
	ft, err := NewFamilyTable(r)
	if err != nil {
		t.Fatal(err)
	}
	// Take a designated path and check all its prefixes are relayable.
	var off grid.Coord
	var somePath []grid.Coord
	for o, fam := range families(ft) {
		for _, path := range fam.paths {
			if len(path) == 3 {
				off, somePath = o, path
				break
			}
		}
		if somePath != nil {
			break
		}
	}
	if somePath == nil {
		t.Fatal("no 3-relay designated path found")
	}
	for k := 1; k <= len(somePath); k++ {
		rels := make([]grid.Coord, k)
		for i := 0; i < k; i++ {
			rels[i] = somePath[i].Sub(off) // origin-relative
		}
		if !designatedPrefix(ft, rels) {
			t.Errorf("prefix of length %d of designated path must be relayable", k)
		}
	}
	// A garbage offset sequence is not relayable.
	if designatedPrefix(ft, []grid.Coord{grid.C(9, 9)}) {
		t.Error("non-designated prefix relayed")
	}
	if designatedPrefix(ft, nil) {
		t.Error("empty prefix must be rejected")
	}
}

func TestConfirmedPathsAndDeterminedDesignated(t *testing.T) {
	r := 1
	ft, err := NewFamilyTable(r)
	if err != nil {
		t.Fatal(err)
	}
	net := testNet(t, 9, 9, r)
	recv := net.IDOf(grid.C(4, 4))
	// S1-type offset (0, -(r+1)) = origin two rows below the receiver.
	origin := net.IDOf(grid.C(4, 2))
	d := net.Delta(recv, origin)
	relPaths := ft.family(d).paths
	if len(relPaths) != r*(2*r+1) {
		t.Fatalf("offset %v: %d designated paths", d, len(relPaths))
	}
	arena := NewArena(net, ft)
	n := arena.Node(recv)
	need := 2 // t+1 with t = MaxByzantineLinf(1) = 1
	determined := func(n *Node, v byte) bool {
		return n.HasDirect(origin, v) || len(n.ConfirmedChains(origin, v)) >= need
	}
	if got := n.ConfirmedChains(origin, 1); got != nil {
		t.Fatalf("no chains: confirmed %v", got)
	}
	// Confirm designated paths one by one, each once more as a repeat.
	recvC := net.CoordOf(recv)
	var want [][]topology.NodeID
	for i, rels := range relPaths {
		ids := make([]topology.NodeID, len(rels))
		for j, off := range rels {
			ids[j] = net.IDOf(recvC.Add(off))
		}
		want = append(want, ids)
		n.Confirm(origin, 1, ids)
		if got := n.Confirm(origin, 1, ids); got != i+1 {
			t.Fatalf("after %d chains: confirmed = %d", i+1, got)
		}
	}
	if !determined(n, 1) {
		t.Error("fully confirmed family must determine")
	}
	if determined(n, 0) {
		t.Error("wrong value must not be determined")
	}
	if got := n.ConfirmedChains(origin, 1); !reflect.DeepEqual(got, want) {
		t.Errorf("witness = %v, want the family in order %v", got, want)
	}
	// A non-designated chain and a reversed designated one confirm nothing.
	other := arena.Node(net.IDOf(grid.C(0, 0)))
	other.Confirm(origin, 1, []topology.NodeID{net.IDOf(grid.C(8, 8))})
	n2 := NewArena(net, ft).Node(recv)
	rev := append([]topology.NodeID(nil), want[len(want)-1]...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if len(rev) > 1 && n2.Confirm(origin, 1, rev) != 0 {
		t.Error("relay order matters: a reversed path must not confirm")
	}
	// Direct hearing shortcut.
	if !n2.FirstCommit(origin, 1) || !determined(n2, 1) {
		t.Error("direct hearing determines")
	}
	if arena.Node(recv) != nil {
		t.Error("a node's state must be handed out once")
	}
}

func TestFamilyTablePathsAreValidOnTorus(t *testing.T) {
	// Materialize every designated path on a torus and check hop validity
	// and containment in a single closed neighborhood.
	r := 2
	ft, err := NewFamilyTable(r)
	if err != nil {
		t.Fatal(err)
	}
	net := testNet(t, 15, 15, r)
	recv := net.IDOf(grid.C(7, 7))
	recvC := net.CoordOf(recv)
	for off, fam := range families(ft) {
		originC := recvC.Add(off)
		seen := make(map[topology.NodeID]bool)
		for _, rels := range fam.paths {
			full := make([]grid.Coord, 0, len(rels)+2)
			full = append(full, originC)
			for _, ro := range rels {
				full = append(full, recvC.Add(ro))
			}
			full = append(full, recvC)
			for i := 1; i < len(full); i++ {
				if !net.Torus().Within(grid.Linf, net.Torus().Wrap(full[i-1]), net.Torus().Wrap(full[i]), r) {
					t.Fatalf("offset %v: hop %v→%v too long", off, full[i-1], full[i])
				}
			}
			for _, ro := range rels {
				id := net.IDOf(recvC.Add(ro))
				if seen[id] {
					t.Fatalf("offset %v: relay %v reused", off, ro)
				}
				seen[id] = true
			}
		}
	}
}

// families lists the table's covered offsets with their families.
func families(ft *FamilyTable) map[grid.Coord]*famEntry {
	out := make(map[grid.Coord]*famEntry)
	for i := range ft.fams {
		if ft.fams[i].paths != nil {
			out[ft.origins.offset(i)] = &ft.fams[i]
		}
	}
	return out
}

// maxDisjointChains returns the size of a maximum pairwise relay-disjoint
// subset of chains (chains share their origin, so only relays conflict),
// stopping early once `target` is reached.
func maxDisjointChains(chains []Chain, target int) int {
	masks, words := chainMasks(chains, false)
	return maxPacking(masks, words, target)
}

// maxPacking returns the size of a maximum pairwise-disjoint subfamily of
// masks, capped at target, by raising pack's target until it fails.
func maxPacking(masks [][]uint64, words, target int) int {
	best := 0
	for best < target && pack(masks, allIndices(len(masks)), words, best+1) != nil {
		best++
	}
	return best
}

// allIndices returns 0..n-1, a candidate list naming every mask.
func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// determinedExact and commits reduce the exact rules to their verdicts.
func determinedExact(net *topology.Network, s *Store, recv, origin topology.NodeID, v byte, need int) bool {
	_, _, ok := DeterminedExact(net, s, recv, origin, v, need)
	return ok
}

func commits(net *topology.Network, s *Store, recv topology.NodeID, v byte, need int) bool {
	_, _, ok := CommitSingleLevel(net, s, recv, v, need, nil)
	return ok
}

// TestConfirmMultiWordMasks confirms a whole family at a radius whose
// r(2r+1) designated paths need two mask words.
func TestConfirmMultiWordMasks(t *testing.T) {
	r := 6
	ft, err := NewFamilyTable(r)
	if err != nil {
		t.Fatal(err)
	}
	net := testNet(t, 40, 40, r)
	recv := net.IDOf(grid.C(20, 20))
	origin := net.IDOf(grid.C(20, 20-(r+1))) // the S1-type offset (0, -(r+1))
	fam := ft.family(net.Delta(recv, origin))
	if fam == nil || len(fam.paths) <= 64 {
		t.Fatalf("want a family of more than 64 paths, got %v", fam != nil)
	}
	n := NewArena(net, ft).Node(recv)
	var want [][]topology.NodeID
	for i := len(fam.paths) - 1; i >= 0; i-- { // reverse order: the witness is family-ordered
		ids := make([]topology.NodeID, len(fam.paths[i]))
		for j, off := range fam.paths[i] {
			ids[j] = net.IDOf(net.Torus().Wrap(net.CoordOf(recv).Add(off)))
		}
		want = append([][]topology.NodeID{ids}, want...)
		if got := n.Confirm(origin, 0, ids); got != len(want) {
			t.Fatalf("after %d paths: confirmed %d", len(want), got)
		}
	}
	if got := n.ConfirmedChains(origin, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("witness differs from the family order")
	}
}
