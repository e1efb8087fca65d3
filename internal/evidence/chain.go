package evidence

import (
	"strings"

	"repro/internal/topology"
)

// Chain is one recorded report at a receiving node g: a claim that Origin
// committed Value, relayed by Relays (origin-side first; empty for a direct
// COMMITTED reception). A chain is an atomic evidence unit — the final
// relayer attested the entire relay list, so sub-paths of different chains
// must never be recombined (that would be unsound).
type Chain struct {
	Origin topology.NodeID
	Value  byte
	Relays []topology.NodeID
}

// maxKeyRelays is how many relays fit in chainKey's inline array. Protocol
// chains carry at most paths.MaxIntermediates (3) relays, so the string
// spillover only ever triggers for out-of-spec callers.
const maxKeyRelays = 4

// chainKey canonically identifies a chain (origin, value and exact relay
// sequence). It is a comparable value — dedup is a map probe with no
// per-chain string building. Unused relay slots hold topology.None, which
// can never be a real relay, so (together with n) padding is unambiguous.
type chainKey struct {
	origin topology.NodeID
	value  byte
	n      uint8
	relays [maxKeyRelays]topology.NodeID
	long   string // relay overflow spillover; "" in the inline case
}

// key canonically identifies the chain (origin, value and exact relay
// sequence).
func (c Chain) key() chainKey {
	k := chainKey{
		origin: c.Origin,
		value:  c.Value,
		n:      uint8(len(c.Relays)),
		relays: [maxKeyRelays]topology.NodeID{topology.None, topology.None, topology.None, topology.None},
	}
	if len(c.Relays) <= maxKeyRelays {
		copy(k.relays[:], c.Relays)
		return k
	}
	var b strings.Builder
	b.Grow(4 * len(c.Relays))
	for _, r := range c.Relays {
		b.WriteByte(byte(r))
		b.WriteByte(byte(r >> 8))
		b.WriteByte(byte(r >> 16))
		b.WriteByte(byte(r >> 24))
	}
	k.long = b.String()
	return k
}

// Store accumulates the chains a node has recorded, indexed by (origin,
// value). It additionally maintains a per-value list of all evidence
// (relayed chains plus direct receptions as relay-free chains) so the
// single-neighborhood commit rule never re-gathers. The zero value is not
// usable; create with NewStore.
type Store struct {
	chains  map[chainIndex][]Chain
	seen    map[chainKey]struct{}
	direct  map[chainIndex]bool // COMMITTED heard directly from the origin
	byValue map[byte][]Chain
}

type chainIndex struct {
	origin topology.NodeID
	value  byte
}

// NewStore creates an empty evidence store.
func NewStore() *Store {
	return &Store{
		chains:  make(map[chainIndex][]Chain),
		seen:    make(map[chainKey]struct{}),
		direct:  make(map[chainIndex]bool),
		byValue: make(map[byte][]Chain),
	}
}

// AddDirect records that the node heard COMMITTED(origin, value) on the
// channel itself — unforgeable, so it needs no disjoint-path corroboration.
func (s *Store) AddDirect(origin topology.NodeID, value byte) {
	idx := chainIndex{origin: origin, value: value}
	if s.direct[idx] {
		return
	}
	s.direct[idx] = true
	s.byValue[value] = append(s.byValue[value], Chain{Origin: origin, Value: value})
}

// HasDirect reports whether COMMITTED(origin, value) was heard directly.
func (s *Store) HasDirect(origin topology.NodeID, value byte) bool {
	return s.direct[chainIndex{origin: origin, value: value}]
}

// Add records a relayed chain, ignoring exact duplicates. It returns true
// when the chain was new.
func (s *Store) Add(c Chain) bool {
	k := c.key()
	if _, dup := s.seen[k]; dup {
		return false
	}
	s.seen[k] = struct{}{}
	idx := chainIndex{origin: c.Origin, value: c.Value}
	s.chains[idx] = append(s.chains[idx], c)
	s.byValue[c.Value] = append(s.byValue[c.Value], c)
	return true
}

// Chains returns the recorded chains for (origin, value). The returned
// slice is shared; callers must not mutate it.
func (s *Store) Chains(origin topology.NodeID, value byte) []Chain {
	return s.chains[chainIndex{origin: origin, value: value}]
}

// ValueChains returns every piece of evidence for the value across all
// origins, direct receptions included (as relay-free chains), in insertion
// order. The returned slice is shared; callers must not mutate it.
func (s *Store) ValueChains(value byte) []Chain {
	return s.byValue[value]
}
