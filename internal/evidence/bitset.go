package evidence

import (
	"math/bits"
	"slices"

	"repro/internal/topology"
)

// This file implements the word-packed set machinery behind the commit
// rules. The disjoint-path packing of §VI/§VI-B is an exact set packing
// over chains' node sets; representing each set as a bitmask over a
// compact, per-call index of the nodes that actually occur turns the inner
// loops of the branch-and-bound (conflict tests, domination pruning,
// take/untake) into a handful of word operations and removes the
// map-allocation churn the seed implementation paid per chain.

// maskSet is a collection of fixed-width bitmasks sharing one backing
// array: mask i occupies words [i*words, (i+1)*words).
type maskSet struct {
	words   int
	backing []uint64
}

// newMaskSet allocates n all-zero masks of the given word width.
func newMaskSet(n, words int) maskSet {
	return maskSet{words: words, backing: make([]uint64, n*words)}
}

// mask returns the i-th mask.
func (ms maskSet) mask(i int) []uint64 {
	return ms.backing[i*ms.words : (i+1)*ms.words]
}

// set sets bit b of mask i.
func (ms maskSet) set(i, b int) {
	ms.backing[i*ms.words+b>>6] |= 1 << (uint(b) & 63)
}

// popcount returns the number of set bits in m.
func popcount(m []uint64) int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// intersects reports whether a and b share a bit.
func intersects(a, b []uint64) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// maskSubsetOf reports a ⊆ b.
func maskSubsetOf(a, b []uint64) bool {
	for i := range a {
		if a[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// orInto ors src into dst.
func orInto(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

// andNotInto clears src's bits in dst.
func andNotInto(dst, src []uint64) {
	for i := range dst {
		dst[i] &^= src[i]
	}
}

// chainMasks packs the chains' node sets into bitmasks over a compact
// index of the nodes that occur. withOrigin selects whether a chain's
// origin participates in its set (the §VI-B whole-chain rule) or only its
// relays (the §VI internal-disjointness rule).
func chainMasks(chains []Chain, withOrigin bool) ([][]uint64, int) {
	index := make(map[topology.NodeID]int, 4*len(chains))
	idxOf := func(id topology.NodeID) int {
		if i, ok := index[id]; ok {
			return i
		}
		i := len(index)
		index[id] = i
		return i
	}
	// First pass: build the compact index so the word width is known.
	for _, c := range chains {
		if withOrigin {
			idxOf(c.Origin)
		}
		for _, rel := range c.Relays {
			idxOf(rel)
		}
	}
	words := (len(index) + 63) / 64
	if words == 0 {
		words = 1
	}
	ms := newMaskSet(len(chains), words)
	masks := make([][]uint64, len(chains))
	for i, c := range chains {
		if withOrigin {
			ms.set(i, index[c.Origin])
		}
		for _, rel := range c.Relays {
			ms.set(i, index[rel])
		}
		masks[i] = ms.mask(i)
	}
	return masks, words
}

// pack returns the indices (into masks, ascending) of target pairwise-
// disjoint masks among the candidates cand, or nil when none exist. Masks
// are atomic evidence units — recombining nodes across masks would be
// unsound, which is why this is an exact set packing rather than a flow
// problem. pack reorders cand in place.
//
// Precondition: every candidate mask is non-empty.
//
// The candidates are stably sorted by popcount (smaller node sets conflict
// less), then a candidate containing an earlier one is dropped: it
// strictly contains a smaller set, or duplicates an earlier occurrence of
// the same set. Testing against the survivors alone suffices, since
// containment is transitive and every dropped candidate contains an
// earlier survivor. A take-first depth-first search over the survivors,
// cut once too few remain to reach target, returns the first packing in
// that order. Under the precondition the pruning does not change which
// packing that is: a packing using a dropped mask can swap in the
// (non-empty, so not already chosen) earlier mask it contains, and the
// swapped packing comes first in take-first order. So the first packing
// over all candidates uses survivors only, and is also first among them.
func pack(masks [][]uint64, cand []int, words, target int) []int {
	if len(cand) < target {
		return nil
	}
	slices.SortStableFunc(cand, func(a, b int) int { return popcount(masks[a]) - popcount(masks[b]) })
	kept := cand[:0]
	for _, i := range cand {
		dominated := false
		for _, j := range kept {
			if maskSubsetOf(masks[j], masks[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, i)
		}
	}
	if len(kept) < target {
		return nil
	}
	chosen := takeFirst(masks, kept, make([]int, 0, target), make([]uint64, words), target)
	slices.Sort(chosen)
	return chosen
}

// takeFirst extends chosen, whose masks are or-ed into used, with masks
// from order until it holds target of them, preferring to take each
// compatible mask before skipping it. It returns nil when no extension
// exists.
func takeFirst(masks [][]uint64, order, chosen []int, used []uint64, target int) []int {
	if len(chosen) == target {
		return chosen
	}
	if len(chosen)+len(order) < target {
		return nil // cannot reach target
	}
	i := order[0]
	if !intersects(masks[i], used) {
		orInto(used, masks[i])
		if got := takeFirst(masks, order[1:], append(chosen, i), used, target); got != nil {
			return got
		}
		andNotInto(used, masks[i])
	}
	return takeFirst(masks, order[1:], chosen, used, target)
}
