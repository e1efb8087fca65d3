package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/etrace"
	"repro/internal/evidence"
	"repro/internal/grid"
	"repro/internal/paths"
	"repro/internal/sim"
	"repro/internal/topology"
)

// seedFamilies is the oracle's designated plan, derived from the
// constructive proof independently of evidence.FamilyTable: families keyed
// by origin offset, matched by packed relay keys, and a hashed set of
// origin-relative relay prefixes.
type seedFamilies struct {
	fams     map[grid.Coord][][]grid.Coord
	keys     map[grid.Coord][]uint64
	prefixes map[uint64]bool
	offsets  []grid.Coord // covered origin offsets, sorted
}

// seedPack packs a relay-offset sequence into one word (int8 components).
func seedPack(offs []grid.Coord) uint64 {
	key := uint64(len(offs)) << 48
	if len(offs) > paths.MaxIntermediates {
		return key
	}
	for i, d := range offs {
		key |= (uint64(uint8(int8(d.X))) | uint64(uint8(int8(d.Y)))<<8) << (16 * uint(i))
	}
	return key
}

func newSeedFamilies(t *testing.T, r int) *seedFamilies {
	t.Helper()
	sf := &seedFamilies{
		fams:     make(map[grid.Coord][][]grid.Coord),
		keys:     make(map[grid.Coord][]uint64),
		prefixes: make(map[uint64]bool),
	}
	syms := []func(grid.Coord) grid.Coord{
		func(c grid.Coord) grid.Coord { return c },
		func(c grid.Coord) grid.Coord { return grid.C(-c.X, c.Y) },
		func(c grid.Coord) grid.Coord { return grid.C(c.X, -c.Y) },
		func(c grid.Coord) grid.Coord { return grid.C(-c.X, -c.Y) },
		func(c grid.Coord) grid.Coord { return grid.C(c.Y, c.X) },
		func(c grid.Coord) grid.Coord { return grid.C(-c.Y, c.X) },
		func(c grid.Coord) grid.Coord { return grid.C(c.Y, -c.X) },
		func(c grid.Coord) grid.Coord { return grid.C(-c.Y, -c.X) },
	}
	center := grid.C(0, 0)
	p0 := paths.CornerP(center, r)
	var region []grid.Coord
	region = append(region, paths.RegionU(center, r)...)
	region = append(region, paths.RegionS1(center, r)...)
	region = append(region, paths.RegionS2(center, r)...)
	for _, n := range region {
		fam, err := paths.FamilyFor(center, r, n)
		if err != nil {
			t.Fatal(err)
		}
		d := fam.N.Sub(p0)
		for _, sym := range syms {
			sd := sym(d)
			if _, ok := sf.fams[sd]; ok {
				continue
			}
			for _, path := range fam.Paths {
				var rels []grid.Coord
				for _, x := range path[1 : len(path)-1] {
					rels = append(rels, sym(x.Sub(p0)))
				}
				sf.fams[sd] = append(sf.fams[sd], rels)
				sf.keys[sd] = append(sf.keys[sd], seedPack(rels))
				for k := 1; k <= len(rels); k++ {
					pre := make([]grid.Coord, k)
					for i, rel := range rels[:k] {
						pre[i] = rel.Sub(sd)
					}
					sf.prefixes[seedPack(pre)] = true
				}
			}
			sf.offsets = append(sf.offsets, sd)
		}
	}
	sort.Slice(sf.offsets, func(i, j int) bool {
		a, b := sf.offsets[i], sf.offsets[j]
		return a.X < b.X || a.X == b.X && a.Y < b.Y
	})
	return sf
}

// seedProc is the oracle: the designated 4-hop receiver as the seed
// implemented it — an evidence.Store plus hash maps for dedup,
// determination and per-center counters, confirming a designated path
// when a recorded chain's receiver-relative relay key equals its key.
type seedProc struct {
	self, source topology.NodeID
	t            int
	net          *topology.Network
	sf           *seedFamilies
	spoof        bool
	tap          *etrace.Recorder

	value              byte
	decided, announced bool

	store       *evidence.Store
	firstCommit map[topology.NodeID]bool
	firstHeard  map[[4]topology.NodeID]bool
	determined  map[detKey]bool
	counters    [2]map[topology.NodeID]int
}

type detKey struct {
	origin topology.NodeID
	value  byte
}

func newSeedProc(p Params, sf *seedFamilies, self topology.NodeID) *seedProc {
	return &seedProc{
		self: self, source: p.Source, t: p.T, net: p.Net.(*topology.Network), sf: sf,
		spoof: p.SpoofingPossible, tap: p.Tap, value: p.Value,
		store:       evidence.NewStore(),
		firstCommit: make(map[topology.NodeID]bool),
		firstHeard:  make(map[[4]topology.NodeID]bool),
		determined:  make(map[detKey]bool),
		counters:    [2]map[topology.NodeID]int{{}, {}},
	}
}

func (s *seedProc) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	if m.Value > 1 {
		return
	}
	sender := attributedSender(s.spoof, from, m)
	if s.tap.Tracing() && sender != from {
		s.tap.Spoof(ctx.Round(), s.self, from, sender)
	}
	switch m.Kind {
	case sim.KindValue:
		if sender != s.source {
			return
		}
		s.acceptCommitted(ctx, sender, m.Value)
		if !s.decided {
			s.commit(ctx, m.Value, &etrace.Certificate{Rule: etrace.RuleDirect, Value: m.Value, Voters: []topology.NodeID{sender}})
		}
	case sim.KindCommitted:
		if m.Origin == sender {
			s.acceptCommitted(ctx, sender, m.Value)
		}
	case sim.KindHeard:
		s.acceptHeard(ctx, sender, m)
	}
}

func (s *seedProc) acceptCommitted(ctx sim.Context, committer topology.NodeID, v byte) {
	if s.firstCommit[committer] {
		return
	}
	s.firstCommit[committer] = true
	s.store.AddDirect(committer, v)
	s.onDetermined(ctx, committer, v)
	if s.shouldRelay(committer, []topology.NodeID{s.self}) {
		ctx.Broadcast(sim.Message{Kind: sim.KindHeard, Origin: committer, Value: v, Path: []topology.NodeID{s.self}})
	}
}

func (s *seedProc) acceptHeard(ctx sim.Context, from topology.NodeID, m sim.Message) {
	n := len(m.Path)
	if n < 1 || n > sim.MaxHeardRelays || m.Path[n-1] != from || m.Origin == s.self {
		return
	}
	for i, rel := range m.Path {
		if rel == s.self || rel == m.Origin {
			return
		}
		for _, prev := range m.Path[:i] {
			if rel == prev {
				return
			}
		}
	}
	key := [4]topology.NodeID{m.Origin, topology.None, topology.None, topology.None}
	copy(key[1:], m.Path)
	if s.firstHeard[key] {
		return
	}
	s.firstHeard[key] = true
	s.store.Add(evidence.Chain{Origin: m.Origin, Value: m.Value, Relays: append([]topology.NodeID(nil), m.Path...)})
	if !s.determined[detKey{m.Origin, m.Value}] {
		s.tap.EvidenceEval(ctx.Round(), s.self, m.Origin, m.Value)
		if s.store.HasDirect(m.Origin, m.Value) || len(s.confirmedChains(m.Origin, m.Value)) >= s.t+1 {
			s.onDetermined(ctx, m.Origin, m.Value)
		}
	}
	if n < sim.MaxHeardRelays && s.shouldRelay(m.Origin, append(append([]topology.NodeID(nil), m.Path...), s.self)) {
		ctx.Broadcast(m.ExtendPath(s.self))
	}
}

// confirmedChains lists the recorded chains matching designated keys of
// the origin's offset, in family order.
func (s *seedProc) confirmedChains(origin topology.NodeID, v byte) []evidence.Chain {
	var out []evidence.Chain
	for _, pk := range s.sf.keys[s.net.Delta(s.self, origin)] {
		for _, c := range s.store.Chains(origin, v) {
			offs := make([]grid.Coord, len(c.Relays))
			for i, rel := range c.Relays {
				offs[i] = s.net.Delta(s.self, rel)
			}
			if seedPack(offs) == pk {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

func (s *seedProc) shouldRelay(origin topology.NodeID, relays []topology.NodeID) bool {
	offs := make([]grid.Coord, len(relays))
	for i, rel := range relays {
		offs[i] = s.net.Delta(origin, rel)
	}
	return len(offs) <= paths.MaxIntermediates && s.sf.prefixes[seedPack(offs)]
}

func (s *seedProc) onDetermined(ctx sim.Context, origin topology.NodeID, v byte) {
	if s.determined[detKey{origin, v}] {
		return
	}
	s.determined[detKey{origin, v}] = true
	fire := false
	for _, c := range s.net.ClosedNbdIDs(s.net.CoordOf(origin)) {
		s.counters[v][c]++
		fire = fire || s.counters[v][c] >= s.t+1
	}
	if fire && !s.decided {
		s.commit(ctx, v, s.quorumCert(v))
	}
}

func (s *seedProc) commit(ctx sim.Context, v byte, cert *etrace.Certificate) {
	s.decided, s.value = true, v
	s.tap.Commit(ctx.Round(), s.self, v, cert)
	if !s.announced {
		s.announced = true
		ctx.Broadcast(sim.Message{Kind: sim.KindCommitted, Origin: s.self, Value: v})
	}
}

func (s *seedProc) quorumCert(v byte) *etrace.Certificate {
	center := topology.None
	for c, n := range s.counters[v] {
		if n >= s.t+1 && (center == topology.None || c < center) {
			center = c
		}
	}
	var origins []topology.NodeID
	for k := range s.determined {
		if k.value == v && s.net.WithinClosed(center, k.origin) {
			origins = append(origins, k.origin)
		}
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	cert := &etrace.Certificate{Rule: etrace.RuleQuorum, Value: v, Center: center, HasCenter: true,
		Evidence: make([]etrace.Evidence, 0, len(origins))}
	for _, o := range origins {
		item := etrace.Evidence{Origin: o, Direct: s.store.HasDirect(o, v)}
		if !item.Direct {
			for _, c := range s.confirmedChains(o, v) {
				item.Chains = append(item.Chains, c.Relays)
			}
		}
		cert.Evidence = append(cert.Evidence, item)
	}
	return cert
}

// streamGen draws seeded HEARD/COMMITTED/VALUE streams around one
// receiver: designated paths for it (often a whole family in a burst),
// designated prefixes bound for other receivers, forged and
// non-designated relays, origins outside the covered offsets, duplicates
// with flipped values, malformed reports and, with spoofing, claimed
// identities anywhere on the torus.
type streamGen struct {
	rng   *rand.Rand
	net   *topology.Network
	sf    *seedFamilies
	self  topology.NodeID
	src   topology.NodeID
	spoof bool
	past  []delivery
}

type delivery struct {
	from topology.NodeID
	m    sim.Message
}

func (g *streamGen) node(c grid.Coord) topology.NodeID {
	return g.net.IDOf(g.net.Torus().Wrap(c))
}

func (g *streamGen) any() topology.NodeID { return topology.NodeID(g.rng.Intn(g.net.Size())) }

func (g *streamGen) neighbor() topology.NodeID {
	nb := g.net.Neighbors(g.self)
	return nb[g.rng.Intn(len(nb))]
}

func (g *streamGen) value() byte {
	if g.rng.Intn(4) == 0 {
		return 0
	}
	return 1
}

// heard wraps a report whose last relay is the physical sender, or a
// spoofed claim of it.
func (g *streamGen) heard(origin topology.NodeID, v byte, path []topology.NodeID) []delivery {
	m := sim.Message{Kind: sim.KindHeard, Origin: origin, Value: v, Path: path}
	from := path[len(path)-1]
	if g.spoof && g.rng.Intn(3) == 0 {
		m.Spoofed, m.Claimed = true, from
		from = g.neighbor()
	}
	return []delivery{{from, m}}
}

func (g *streamGen) next() []delivery {
	me := g.net.CoordOf(g.self)
	switch k := g.rng.Intn(20); {
	case k < 2: // VALUE, usually from the source
		from := g.src
		if g.rng.Intn(2) == 0 {
			from = g.neighbor()
		}
		return []delivery{{from, sim.Message{Kind: sim.KindValue, Value: g.value()}}}
	case k < 6: // COMMITTED from a neighbor, or a spoofed/forged claim
		from := g.neighbor()
		m := sim.Message{Kind: sim.KindCommitted, Origin: from, Value: g.value()}
		switch {
		case g.spoof && g.rng.Intn(2) == 0:
			m.Spoofed, m.Claimed = true, g.any()
			m.Origin = m.Claimed
		case g.rng.Intn(6) == 0:
			m.Origin = g.any()
		}
		return []delivery{{from, m}}
	case k < 11: // designated paths for this receiver, often a whole family
		d := g.sf.offsets[g.rng.Intn(len(g.sf.offsets))]
		origin := g.node(me.Add(d))
		fam := g.sf.fams[d]
		v := g.value()
		var out []delivery
		for i, rels := range fam {
			if g.rng.Intn(3) == 0 && i > 0 {
				continue
			}
			path := make([]topology.NodeID, len(rels))
			for j, off := range rels {
				path[j] = g.node(me.Add(off))
			}
			out = append(out, g.heard(origin, v, path)...)
		}
		return out
	case k < 15: // a designated prefix bound for another receiver
		d := g.sf.offsets[g.rng.Intn(len(g.sf.offsets))]
		rels := g.sf.fams[d][g.rng.Intn(len(g.sf.fams[d]))]
		n := 1 + g.rng.Intn(len(rels))
		// Place the receiver g' so the prefix's last relay is our neighbor.
		recv := g.net.CoordOf(g.neighbor()).Sub(rels[n-1])
		path := make([]topology.NodeID, n)
		for j := range path {
			path[j] = g.node(recv.Add(rels[j]))
		}
		return g.heard(g.node(recv.Add(d)), g.value(), path)
	case k < 18: // forged or non-designated relays, any origin
		n := 1 + g.rng.Intn(3)
		path := make([]topology.NodeID, n)
		for j := range path {
			path[j] = g.any()
		}
		if g.rng.Intn(2) == 0 {
			path[n-1] = g.neighbor()
		}
		return g.heard(g.any(), g.value(), path)
	default: // a past message again, often with the value flipped
		if len(g.past) == 0 {
			return nil
		}
		d := g.past[g.rng.Intn(len(g.past))]
		if g.rng.Intn(2) == 0 {
			d.m.Value ^= 1
		}
		return []delivery{d}
	}
}

// TestBV4DesignatedMatchesSeedOracle differentially checks the dense
// designated evidence core against the seed's map-and-Store rule on seeded
// random streams: identical relays, commits, evidence evaluations, trace
// events (certificates included) and determinations.
func TestBV4DesignatedMatchesSeedOracle(t *testing.T) {
	var cov diffCoverage
	for r := 1; r <= 3; r++ {
		sf := newSeedFamilies(t, r)
		for _, side := range []int{4*r + 1, 10*r + 3} {
			net := testNet(t, side, side, r)
			for _, spoof := range []bool{false, true} {
				for seed := int64(0); seed < 12; seed++ {
					name := fmt.Sprintf("r%d/%dx%d/spoof=%v/seed%d", r, side, side, spoof, seed)
					diffStream(t, name, net, sf, spoof, seed, &cov)
				}
			}
		}
	}
	if cov.chainCerts == 0 || cov.farDetermined == 0 {
		t.Errorf("streams too tame: %+v", cov)
	}
}

// diffCoverage counts what the streams exercised, so a generator change
// cannot quietly stop reaching the certificate and spill paths.
type diffCoverage struct {
	chainCerts    int // quorum-certificate items witnessed by chains
	farDetermined int // determined origins beyond 2r (spoofed claims)
}

func diffStream(t *testing.T, name string, net *topology.Network, sf *seedFamilies, spoof bool, seed int64, cov *diffCoverage) {
	rng := rand.New(rand.NewSource(seed))
	self := topology.NodeID(rng.Intn(net.Size()))
	src := net.Neighbors(self)[0]
	if rng.Intn(3) == 0 {
		src = topology.NodeID((int(self) + net.Size()/2) % net.Size())
	}
	tVal := rng.Intn(2)
	params := func() Params {
		return Params{Net: net, Source: src, Value: 1, T: tVal, SpoofingPossible: spoof,
			Tap: etrace.New(true)}
	}
	factory, err := newBV4Factory(params())
	if err != nil {
		t.Fatal(err)
	}
	// Build the whole engine's worth of nodes so the receiver's state sits
	// inside a shared arena, as in a real run.
	var got *bv4Proc
	for id := 0; id < net.Size(); id++ {
		if p := factory(topology.NodeID(id)).(*bv4Proc); p.self == self {
			got = p
		}
	}
	gp := params()
	got.tap = gp.Tap
	want := newSeedProc(params(), sf, self)
	gctx, wctx := &captureCtx{self: self}, &captureCtx{self: self}

	gen := &streamGen{rng: rng, net: net, sf: sf, self: self, src: src, spoof: spoof}
	origins := map[topology.NodeID]bool{}
	for step := 0; step < 400; step++ {
		for _, d := range gen.next() {
			if d.m.Kind == sim.KindHeard && rng.Intn(40) == 0 {
				d.m.Path = append(d.m.Path[:len(d.m.Path):len(d.m.Path)], d.m.Path[0]) // malformed
			}
			gen.past = append(gen.past, d)
			origins[d.m.Origin] = true
			if d.m.Spoofed {
				origins[d.m.Claimed] = true
			}
			got.Deliver(gctx, d.from, d.m)
			want.Deliver(wctx, d.from, d.m)
			if !reflect.DeepEqual(gctx.out, wctx.out) {
				t.Fatalf("%s step %d: broadcasts diverge on %+v\n got %v\nwant %v", name, step, d, gctx.out, wctx.out)
			}
			gv, gok := got.Decided()
			if gok != want.decided || gv != want.value && gok {
				t.Fatalf("%s step %d: decision (%d,%v), oracle (%d,%v)", name, step, gv, gok, want.value, want.decided)
			}
		}
	}
	_, gotTotal := got.tap.Counts()
	_, wantTotal := want.tap.Counts()
	if g, w := gotTotal.EvidenceEvals, wantTotal.EvidenceEvals; g != w || g == 0 {
		t.Fatalf("%s: EvidenceEvals %d, oracle %d", name, g, w)
	}
	if g, w := got.tap.Events(), want.tap.Events(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: trace events diverge\n got %+v\nwant %+v", name, g, w)
	}
	for _, ev := range want.tap.Events() {
		if ev.Kind == etrace.KindCommit && ev.Cert.Rule == etrace.RuleQuorum {
			for _, e := range ev.Cert.Evidence {
				if len(e.Chains) > 0 {
					cov.chainCerts++
				}
			}
		}
	}
	for o := range origins {
		if net.Dist(self, o) > 2*net.Radius() && (want.determined[detKey{o, 0}] || want.determined[detKey{o, 1}]) {
			cov.farDetermined++
		}
		for v := byte(0); v < 2; v++ {
			if g, w := got.ev.Determined(o, v), want.determined[detKey{o, v}]; g != w {
				t.Fatalf("%s: determined(%d,%d) = %v, oracle %v", name, o, v, g, w)
			}
		}
	}
}
