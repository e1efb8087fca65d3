package evidence

import (
	"math/bits"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// randomFamily draws 1..maxSets non-empty node sets of 1..3 nodes each
// over a universe of the given size, from a seeded LCG.
func randomFamily(seed uint32, maxSets, universe uint32) []map[topology.NodeID]struct{} {
	rng := seed
	next := func(mod uint32) uint32 {
		rng = rng*1664525 + 1013904223
		return (rng >> 8) % mod
	}
	n := int(next(maxSets)) + 1
	sets := make([]map[topology.NodeID]struct{}, n)
	for i := range sets {
		k := int(next(3)) + 1
		sets[i] = make(map[topology.NodeID]struct{}, k)
		for j := 0; j < k; j++ {
			sets[i][topology.NodeID(next(universe))] = struct{}{}
		}
	}
	return sets
}

// disjointSubset reports whether the sets selected by the bit mask sel are
// pairwise disjoint.
func disjointSubset(sets []map[topology.NodeID]struct{}, sel int) bool {
	used := make(map[topology.NodeID]struct{})
	for i := range sets {
		if sel&(1<<i) == 0 {
			continue
		}
		for v := range sets[i] {
			if _, dup := used[v]; dup {
				return false
			}
			used[v] = struct{}{}
		}
	}
	return true
}

// bruteForceMaxDisjoint enumerates all subsets (sets are ≤ 12 in the tests)
// and returns the size of the largest pairwise-disjoint subfamily.
func bruteForceMaxDisjoint(sets []map[topology.NodeID]struct{}) int {
	best := 0
	for sel := 0; sel < 1<<len(sets); sel++ {
		if c := bits.OnesCount(uint(sel)); c > best && disjointSubset(sets, sel) {
			best = c
		}
	}
	return best
}

// bruteForceFirstPacking enumerates every pairwise-disjoint subfamily of
// exactly target sets and returns the first in take-first order over the
// sets stably sorted by size — the one whose sorted positions in that
// order are lexicographically least — as ascending set indices; nil when
// none exists.
func bruteForceFirstPacking(sets []map[topology.NodeID]struct{}, target int) []int {
	order := allIndices(len(sets))
	sort.SliceStable(order, func(a, b int) bool { return len(sets[order[a]]) < len(sets[order[b]]) })
	var best []int // positions in order
	for sel := 0; sel < 1<<len(sets); sel++ {
		if bits.OnesCount(uint(sel)) != target || !disjointSubset(sets, sel) {
			continue
		}
		var pos []int
		for p, i := range order {
			if sel&(1<<i) != 0 {
				pos = append(pos, p)
			}
		}
		if best == nil || lexLess(pos, best) {
			best = pos
		}
	}
	if best == nil {
		return nil
	}
	out := make([]int, len(best))
	for k, p := range best {
		out[k] = order[p]
	}
	sort.Ints(out)
	return out
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestMaxDisjointSetsMatchesBruteForce cross-checks the branch-and-bound
// packer against exhaustive enumeration on random small instances.
func TestMaxDisjointSetsMatchesBruteForce(t *testing.T) {
	f := func(seed uint32) bool {
		sets := randomFamily(seed, 10, 8) // 1..10 sets over 8 nodes
		want := bruteForceMaxDisjoint(sets)
		got := maxDisjointSets(sets, len(sets)+1) // target beyond reach: exact maximum
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMaxDisjointSetsEarlyExitIsSound verifies the early-exit form never
// reports reaching a target the true maximum cannot reach.
func TestMaxDisjointSetsEarlyExitIsSound(t *testing.T) {
	f := func(seed uint32, targetRaw uint8) bool {
		sets := randomFamily(seed, 9, 6)
		truth := bruteForceMaxDisjoint(sets)
		target := int(targetRaw%6) + 1
		got := maxDisjointSets(sets, target)
		// With early exit, got ≥ target implies truth ≥ target; and got
		// never exceeds the true maximum.
		if got > truth {
			return false
		}
		if got >= target && truth < target {
			return false
		}
		// If the packer stopped early it must have genuinely reached target.
		if truth >= target && got < minInt(target, truth) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPackMatchesBruteForce checks pack at every target against exhaustive
// enumeration: it answers exactly when the true maximum reaches the target,
// its sets are pairwise disjoint, and it is the first packing in the
// size-stable take-first order — so its domination pruning never changes
// which packing a certificate names.
func TestPackMatchesBruteForce(t *testing.T) {
	f := func(seed uint32) bool {
		sets := randomFamily(seed, 10, 8)
		truth := bruteForceMaxDisjoint(sets)
		masks, words := setMasks(sets)
		for target := 1; target <= len(sets)+1; target++ {
			got := pack(masks, allIndices(len(masks)), words, target)
			if (got != nil) != (truth >= target) {
				t.Logf("target %d: got %v with true maximum %d", target, got, truth)
				return false
			}
			if got == nil {
				continue
			}
			sel := 0
			for _, i := range got {
				sel |= 1 << i
			}
			if len(got) != target || bits.OnesCount(uint(sel)) != target || !disjointSubset(sets, sel) {
				t.Logf("target %d: %v is not %d pairwise-disjoint sets", target, got, target)
				return false
			}
			if want := bruteForceFirstPacking(sets, target); !reflect.DeepEqual(got, want) {
				t.Logf("target %d: got %v, first packing is %v", target, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// maxDisjointSets computes the exact maximum pairwise-disjoint subfamily of
// the given node sets, stopping early once `target` is reached.
func maxDisjointSets(sets []map[topology.NodeID]struct{}, target int) int {
	masks, words := setMasks(sets)
	return maxPacking(masks, words, target)
}

// setMasks packs map node sets into bitmasks over a compact node index.
func setMasks(sets []map[topology.NodeID]struct{}) ([][]uint64, int) {
	index := make(map[topology.NodeID]int, 4*len(sets))
	for _, set := range sets {
		for id := range set {
			if _, ok := index[id]; !ok {
				index[id] = len(index)
			}
		}
	}
	words := (len(index) + 63) / 64
	if words == 0 {
		words = 1
	}
	ms := newMaskSet(len(sets), words)
	masks := make([][]uint64, len(sets))
	for i, set := range sets {
		for id := range set {
			ms.set(i, index[id])
		}
		masks[i] = ms.mask(i)
	}
	return masks, words
}
