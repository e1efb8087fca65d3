package evidence

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/topology"
)

func TestHeardKeyDistinguishes(t *testing.T) {
	a := heardKey(1, []topology.NodeID{2, 3})
	variants := []spillKey{
		heardKey(2, []topology.NodeID{2, 3}),
		heardKey(1, []topology.NodeID{3, 2}),
		heardKey(1, []topology.NodeID{2}),
		heardKey(1, nil),
		{1, tagOrigin, topology.None, topology.None},
		{},
	}
	for i, v := range variants {
		if v == a {
			t.Errorf("variant %d collides", i)
		}
	}
	if heardKey(1, []topology.NodeID{2, 3}) != a {
		t.Error("identical keys must match")
	}
}

// TestSpillMatchesMap drives the open-addressing table through several
// growths against a map reference.
func TestSpillMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s spill
	ref := make(map[spillKey]int32)
	for i := 0; i < 5000; i++ {
		k := heardKey(topology.NodeID(rng.Intn(50)), []topology.NodeID{topology.NodeID(rng.Intn(50)), topology.NodeID(50 + rng.Intn(3))})
		if rng.Intn(3) == 0 {
			e, found := s.lookup(k, false)
			_, want := ref[k]
			if found != want || (e != nil) != want {
				t.Fatalf("probe %v: found=%v, want %v", k, found, want)
			}
			continue
		}
		e, found := s.lookup(k, true)
		if _, want := ref[k]; found != want {
			t.Fatalf("insert %v: found=%v, want %v", k, found, want)
		}
		e.count++
		ref[k]++
	}
	if s.n != len(ref) || 2*s.n > len(s.e) {
		t.Fatalf("table holds %d of %d keys in %d slots", s.n, len(ref), len(s.e))
	}
	for k, n := range ref {
		if e, _ := s.lookup(k, false); e == nil || e.count != n {
			t.Fatalf("key %v lost its count %d", k, n)
		}
	}
}

// TestNodeDedupsHeardExactly checks first-version-wins dedup on both
// sides: designated reports in the dense bits, everything else spilled.
func TestNodeDedupsHeardExactly(t *testing.T) {
	r := 1
	ft, err := NewFamilyTable(r)
	if err != nil {
		t.Fatal(err)
	}
	net := testNet(t, 11, 11, r)
	recv := net.IDOf(grid.C(5, 5))
	origin := net.IDOf(grid.C(5, 3))
	d := net.Delta(recv, origin)
	rels := ft.family(d).paths[0]
	path := make([]topology.NodeID, len(rels))
	for j, off := range rels {
		path[j] = net.IDOf(net.CoordOf(recv).Add(off))
	}
	forged := []topology.NodeID{net.IDOf(grid.C(9, 9)), net.IDOf(grid.C(5, 6))}
	for _, tc := range []struct {
		name   string
		ft     *FamilyTable
		spills []int // spilled keys after each of the four reports below
	}{{"designated", ft, []int{0, 1, 2, 2}}, {"exact", nil, []int{1, 2, 3, 3}}} {
		n := NewArena(net, tc.ft).Node(recv)
		step := func(i int, origin topology.NodeID, path []topology.NodeID, wantFresh bool) {
			if fresh, _ := n.FirstHeard(origin, path); fresh != wantFresh {
				t.Errorf("%s report %d: fresh = %v, want %v", tc.name, i, fresh, wantFresh)
			}
			if n.spill.n != tc.spills[i] {
				t.Errorf("%s report %d: %d spilled keys, want %d", tc.name, i, n.spill.n, tc.spills[i])
			}
		}
		step(0, origin, path, true)
		step(1, origin, forged, true)
		step(2, net.IDOf(grid.C(5, 6)), path, true) // same relays, another origin: not designated
		step(3, origin, path, false)
		if again, _ := n.FirstHeard(origin, forged); again {
			t.Errorf("%s: forged repeat accepted", tc.name)
		}
	}
}

// TestNodeFarCommitterSpills covers spoofed identities beyond the dense
// windows: a far committer is deduped, determined, counted and explained
// exactly like a near one.
func TestNodeFarCommitterSpills(t *testing.T) {
	net := testNet(t, 21, 21, 1)
	recv := net.IDOf(grid.C(2, 2))
	n := NewArena(net, nil).Node(recv)
	far1, far2 := net.IDOf(grid.C(12, 12)), net.IDOf(grid.C(13, 12))
	if !n.FirstCommit(far1, 0) || n.FirstCommit(far1, 1) {
		t.Fatal("first far COMMITTED must win")
	}
	if !n.HasDirect(far1, 0) || n.HasDirect(far1, 1) || n.Determined(far1, 0) {
		t.Fatal("far direct bookkeeping wrong")
	}
	if n.Determine(far1, 0, 2) {
		t.Error("one committer is no quorum of 2")
	}
	if n.Determine(far1, 0, 2) {
		t.Error("repeated determination must be a no-op")
	}
	n.FirstCommit(far2, 0)
	if !n.Determine(far2, 0, 2) {
		t.Fatal("two far committers in one neighborhood must fire")
	}
	center, origins := n.Quorum(0, 2)
	want := net.IDOf(grid.C(12, 11)) // smallest id holding both
	if center != want || len(origins) != 2 || origins[0] != far1 || origins[1] != far2 {
		t.Errorf("quorum = %d %v, want %d [%d %d]", center, origins, want, far1, far2)
	}
	if c, _ := n.Quorum(1, 2); c != topology.None {
		t.Errorf("no quorum for the other value, got center %d", c)
	}
}
