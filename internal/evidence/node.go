package evidence

import (
	"math/bits"
	"sort"

	"repro/internal/grid"
	"repro/internal/topology"
)

// Arena is the receiver-side evidence state of the 4-hop protocol for every
// node of one engine run, carved from a handful of arrays allocated once, so
// an honest run pays O(1) allocations for evidence, not O(nodes). Per-node
// state is indexed by offset from the receiver, which the geometry bounds:
// a determined origin lies within 2r (a direct COMMITTED sender within r, a
// covered designated offset within 2r), so the closed neighborhoods it
// counts toward are centered within 3r. Anything outside those windows —
// only reachable through spoofed identities or reports that can never
// determine — spills into a small per-node hash table.
//
// Each node's state is written only through its own Node, so nodes of one
// Arena may run on different goroutines.
type Arena struct {
	net *topology.Network
	ft  *FamilyTable // nil in exact mode: no designated bits, dedup spills
	// near spans the last relay of a HEARD (the sender, within r),
	// origins every determinable origin, centers their neighborhoods.
	near, origins, centers window
	closed                 []grid.Coord // closed-neighborhood offsets, center first
	words                  int          // confirmed-path mask words per (covered offset, value)
	prefixes               int          // designated prefixes per last-relay offset
	nodes                  []Node
	flags                  []uint8
	counts                 []int32
	masks, heard           []uint64
}

// Node is one receiver's view of an Arena.
type Node struct {
	a     *Arena
	self  topology.NodeID
	selfC grid.Coord
	// flags[origins.index(d)] holds the flag* bits of the origin at d.
	flags []uint8
	// counts[2*centers.index(d)+v] counts determined committers of v in
	// the closed neighborhood centered at d.
	counts []int32
	// masks holds, per covered offset slot and value, the bitmask of
	// confirmed designated paths in family order.
	masks []uint64
	// heard has one bit per (last relay offset, designated prefix): the
	// dedup set of designated HEARDs. Everything else dedups in spill.
	heard []uint64
	spill spill
}

// Origin flag bits.
const (
	flagCommit  uint8 = 1 << iota // a COMMITTED was accepted (any value)
	flagDirect                    // direct reception of value 0; << v
	_                             // direct reception of value 1
	flagDecided                   // reliably determined, value 0; << v
)

// NewArena sizes the evidence state for every node of net. ft selects
// designated mode; with nil, only the mode-independent state (dedup,
// determination and neighborhood counters) is kept.
func NewArena(net *topology.Network, ft *FamilyTable) *Arena {
	r, n := net.Radius(), net.Size()
	a := &Arena{net: net, ft: ft, near: newWindow(r), origins: newWindow(2 * r), centers: newWindow(3 * r),
		closed: append([]grid.Coord{{}}, net.Metric().BallOffsets(r)...)}
	a.nodes = make([]Node, n)
	a.flags = make([]uint8, n*a.origins.size())
	a.counts = make([]int32, n*2*a.centers.size())
	if ft != nil {
		a.words, a.prefixes = (ft.maxPaths+63)/64, ft.prefixes()
		a.masks = make([]uint64, n*ft.covered*2*a.words)
		a.heard = make([]uint64, n*((a.near.size()*a.prefixes+63)/64))
	}
	return a
}

// Node hands out the state of node id, or nil when it was already handed
// out (a factory reused for a second engine then needs a fresh Arena). A
// nil Arena hands out nothing.
func (a *Arena) Node(id topology.NodeID) *Node {
	if a == nil || a.nodes[id].a != nil {
		return nil
	}
	nd := &a.nodes[id]
	*nd = Node{a: a, self: id, selfC: a.net.CoordOf(id),
		flags: share(a.flags, id, len(a.nodes)), counts: share(a.counts, id, len(a.nodes)),
		masks: share(a.masks, id, len(a.nodes)), heard: share(a.heard, id, len(a.nodes))}
	return nd
}

// share is node id's equal share of an arena array split n ways.
func share[T any](s []T, id topology.NodeID, n int) []T {
	k := len(s) / n
	return s[int(id)*k : (int(id)+1)*k : (int(id)+1)*k]
}

// delta is the offset from the receiver to id.
func (n *Node) delta(id topology.NodeID) grid.Coord {
	return n.a.net.Torus().Delta(n.selfC, n.a.net.CoordOf(id))
}

// at is the node at offset d from the receiver.
func (n *Node) at(d grid.Coord) topology.NodeID {
	return n.a.net.IDOf(n.a.net.Torus().Wrap(n.selfC.Add(d)))
}

// originFlags returns origin's flag byte. A far origin spills; when it has
// none and add is unset, originFlags returns nil.
func (n *Node) originFlags(origin topology.NodeID, add bool) *uint8 {
	if i, ok := n.a.origins.index(n.delta(origin)); ok {
		return &n.flags[i]
	}
	e, _ := n.spill.lookup(spillKey{origin, tagOrigin, topology.None, topology.None}, add)
	if e == nil {
		return nil
	}
	return &e.flags
}

// has reports whether origin carries the flag.
func (n *Node) has(origin topology.NodeID, flag uint8) bool {
	f := n.originFlags(origin, false)
	return f != nil && *f&flag != 0
}

// FirstCommit accepts the first COMMITTED(committer, v) heard on the
// channel and records the direct reception; it reports false for any later
// one, whatever its value (first version wins, §V).
func (n *Node) FirstCommit(committer topology.NodeID, v byte) bool {
	f := n.originFlags(committer, true)
	if *f&flagCommit != 0 {
		return false
	}
	*f |= flagCommit | flagDirect<<v
	return true
}

// HasDirect reports whether COMMITTED(origin, v) was heard directly.
func (n *Node) HasDirect(origin topology.NodeID, v byte) bool {
	return n.has(origin, flagDirect<<v)
}

// Determined reports whether (origin, v) is reliably determined.
func (n *Node) Determined(origin topology.NodeID, v byte) bool {
	return n.has(origin, flagDecided<<v)
}

// Determine marks (origin, v) reliably determined and counts it toward
// every closed neighborhood containing origin. It reports whether one of
// them now holds ≥ quorum determined committers of v — the §VI commit rule.
// A repeated call is a no-op that reports false.
func (n *Node) Determine(origin topology.NodeID, v byte, quorum int) bool {
	f := n.originFlags(origin, true)
	if *f&(flagDecided<<v) != 0 {
		return false
	}
	*f |= flagDecided << v
	// The centers are origin's closed neighborhood; their offsets from the
	// receiver follow from origin's without a node-id round trip.
	tor, d := n.a.net.Torus(), n.delta(origin)
	fired := false
	for _, off := range n.a.closed {
		cnt := n.count(tor.Delta(grid.Coord{}, d.Add(off)), v)
		*cnt++
		fired = fired || int(*cnt) >= quorum
	}
	return fired
}

// count returns the determined-committer counter of v at the center at
// offset d.
func (n *Node) count(d grid.Coord, v byte) *int32 {
	if i, ok := n.a.centers.index(d); ok {
		return &n.counts[2*i+int(v)]
	}
	e, _ := n.spill.lookup(spillKey{n.at(d), tagCenter, topology.NodeID(v), topology.None}, true)
	return &e.count
}

// walk follows path through the designated-prefix trie, in offsets
// relative to origin. It returns the trie node (0: no designated prefix)
// and the offset of the path's last relay.
func (a *Arena) walk(origin topology.NodeID, path []topology.NodeID) (node int32, last grid.Coord) {
	for _, rel := range path {
		at := a.net.Delta(origin, rel)
		if node = a.ft.child(node, at.Sub(last)); node == 0 {
			return 0, last
		}
		last = at
	}
	return node, last
}

// extends reports whether the chain at trie node (last relay at offset
// last from origin), extended by the receiver, is still a prefix of some
// designated path — the relayer's earmarking filter.
func (n *Node) extends(origin topology.NodeID, node int32, last grid.Coord) bool {
	return n.a.ft.child(node, n.a.net.Delta(origin, n.self).Sub(last)) != 0
}

// Earmarked reports whether the receiver, relaying origin's COMMITTED
// first-hand, starts a designated path. Exact mode earmarks nothing.
func (n *Node) Earmarked(origin topology.NodeID) bool {
	return n.a.ft != nil && n.extends(origin, 0, grid.Coord{})
}

// FirstHeard accepts the first HEARD about origin along path and reports
// false for repeats; the value is deliberately excluded, so contradictory
// retransmissions of one logical message are ignored after the first (§V).
// earmarked reports whether path extended by the receiver is still a
// designated prefix. The caller has validated the path: 1..3 distinct
// relays, none the origin or the receiver.
func (n *Node) FirstHeard(origin topology.NodeID, path []topology.NodeID) (fresh, earmarked bool) {
	if n.a.ft != nil {
		node, last := n.a.walk(origin, path)
		earmarked = node != 0 && n.extends(origin, node, last)
		if i, near := n.a.near.index(n.delta(path[len(path)-1])); node != 0 && near {
			bit := i*n.a.prefixes + int(node) - 1
			w, m := &n.heard[bit>>6], uint64(1)<<(bit&63)
			fresh = *w&m == 0
			*w |= m
			return fresh, earmarked
		}
	}
	_, found := n.spill.lookup(heardKey(origin, path), true)
	return !found, earmarked
}

// Confirm records an accepted HEARD(origin, v) along relays — when relays
// is a designated path for origin's offset, its bit is set — and returns
// how many designated paths now confirm (origin, v).
func (n *Node) Confirm(origin topology.NodeID, v byte, relays []topology.NodeID) int {
	fam := n.family(origin)
	if fam == nil {
		return 0
	}
	mask := n.mask(fam, v)
	var buf [3]grid.Coord
	offs := buf[:0]
	for _, rel := range relays {
		d := n.delta(rel)
		if _, ok := n.a.origins.index(d); !ok || len(offs) == len(buf) {
			return popcount(mask) // beyond every designated relay
		}
		offs = append(offs, d)
	}
	key := packOffsets(offs)
	for i, k := range fam.keys {
		if k == key {
			mask[i>>6] |= 1 << (uint(i) & 63)
			break
		}
	}
	return popcount(mask)
}

// ConfirmedChains returns the relay chains confirming (origin, v) in
// designated-family order — the explicit witness behind a determination.
// Confirmed designated paths are internally node-disjoint and lie inside
// one closed neighborhood by construction, so they are a valid §VI
// evidence family whenever there are ≥ t+1 of them.
func (n *Node) ConfirmedChains(origin topology.NodeID, v byte) [][]topology.NodeID {
	fam := n.family(origin)
	if fam == nil {
		return nil
	}
	var out [][]topology.NodeID
	for i, w := range n.mask(fam, v) {
		for ; w != 0; w &= w - 1 {
			rels := fam.paths[i*64+bits.TrailingZeros64(w)]
			chain := make([]topology.NodeID, len(rels))
			for j, off := range rels {
				chain[j] = n.at(off)
			}
			out = append(out, chain)
		}
	}
	return out
}

// family is origin's designated family, nil in exact mode or when uncovered.
func (n *Node) family(origin topology.NodeID) *famEntry {
	if n.a.ft == nil {
		return nil
	}
	return n.a.ft.family(n.delta(origin))
}

// mask is the confirmed-path bitmask of fam's offset for value v.
func (n *Node) mask(fam *famEntry, v byte) []uint64 {
	i := (2*fam.slot + int(v)) * n.a.words
	return n.masks[i : i+n.a.words]
}

// Quorum explains a fired commit rule for v: the smallest-id center whose
// closed neighborhood holds ≥ quorum determined committers of v, and those
// committers in id order. center is topology.None when no quorum exists.
func (n *Node) Quorum(v byte, quorum int) (center topology.NodeID, origins []topology.NodeID) {
	center = topology.None
	pick := func(c topology.NodeID) {
		if center == topology.None || c < center {
			center = c
		}
	}
	for i := 0; i < n.a.centers.size(); i++ {
		if int(n.counts[2*i+int(v)]) >= quorum {
			pick(n.at(n.a.centers.offset(i)))
		}
	}
	for _, e := range n.spill.e {
		if e.key[1] == tagCenter && e.key[2] == topology.NodeID(v) && int(e.count) >= quorum {
			pick(e.key[0])
		}
	}
	if center == topology.None {
		return center, nil
	}
	add := func(origin topology.NodeID, flags uint8) {
		if flags&(flagDecided<<v) != 0 && n.a.net.WithinClosed(center, origin) {
			origins = append(origins, origin)
		}
	}
	for i, f := range n.flags {
		add(n.at(n.a.origins.offset(i)), f)
	}
	for _, e := range n.spill.e {
		if e.key[1] == tagOrigin {
			add(e.key[0], e.flags)
		}
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	return center, origins
}

// spillKey identifies a spilled entry. A HEARD's key is its origin and
// relays padded with topology.None; the other kinds put a negative tag
// where a HEARD has its first relay. The all-zero key marks an empty slot:
// a HEARD with origin 0 and first relay 0 is malformed and never stored.
type spillKey [4]topology.NodeID

const (
	tagOrigin topology.NodeID = -2 - iota // {origin, tag}: flags
	tagCenter                             // {center, tag, value}: count
)

// heardKey packs (origin, path) into a spillKey.
func heardKey(origin topology.NodeID, path []topology.NodeID) spillKey {
	k := spillKey{origin, topology.None, topology.None, topology.None}
	copy(k[1:], path)
	return k
}

// spillEntry is one spilled slot.
type spillEntry struct {
	key   spillKey
	count int32
	flags uint8
}

// spill is an open-addressing hash table with linear probing, allocated on
// first use and doubled at half load, so each lookup costs amortized O(1)
// even under a flooding forger.
type spill struct {
	e []spillEntry
	n int
}

// lookup finds k's entry, inserting a zero entry when add is set. found
// reports whether the key was present before the call.
func (s *spill) lookup(k spillKey, add bool) (e *spillEntry, found bool) {
	if add && 2*(s.n+1) > len(s.e) {
		s.grow()
	}
	if len(s.e) == 0 {
		return nil, false
	}
	mask := len(s.e) - 1
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		e := &s.e[i]
		switch {
		case e.key == k:
			return e, true
		case e.key == spillKey{}:
			if !add {
				return nil, false
			}
			e.key = k
			s.n++
			return e, false
		}
	}
}

// grow doubles the table (16 slots at first use) and rehashes.
func (s *spill) grow() {
	old := s.e
	s.e = make([]spillEntry, max(16, 2*len(old)))
	s.n = 0
	for _, e := range old {
		if e.key != (spillKey{}) {
			ne, _ := s.lookup(e.key, true)
			*ne = e
		}
	}
}

// hashKey mixes a key into a table index (splitmix64 finalizer).
func hashKey(k spillKey) int {
	h := uint64(uint32(k[0])) | uint64(uint32(k[1]))<<32
	h ^= (uint64(uint32(k[2])) | uint64(uint32(k[3]))<<32) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h >> 1)
}
