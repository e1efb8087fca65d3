package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	rbcast "repro"
)

// opKind selects the endpoint a closed-loop request drives.
type opKind int

const (
	opRun   opKind = iota // POST /v1/run
	opSweep               // streamed POST /v1/sweep
	opBatch               // POST /v1/batch, completed through client.WatchJob
)

func (k opKind) String() string {
	switch k {
	case opRun:
		return "run"
	case opSweep:
		return "sweep"
	default:
		return "batch"
	}
}

// op is one request of a workload. Run ops carry job; sweep and batch ops
// carry the grid, which a batch op sends expanded.
type op struct {
	kind opKind
	job  rbcast.Job
	grid rbcast.SweepSpec
	// fresh marks a run-mixed request whose key no earlier request used.
	fresh bool
	// template names the request family, for reports.
	template string
}

// jobs returns the scenario list the op resolves, in response order.
func (o op) jobs() []rbcast.Job {
	if o.kind == opRun {
		return []rbcast.Job{o.job}
	}
	jobs, err := o.grid.Elements()
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated grid does not expand: %v", err))
	}
	return jobs
}

// workload is a seeded request generator. warmup lists the set-up
// requests; at returns the i-th timed request. Both are pure functions of
// the seed, so the same seed replays the same stream.
type workload interface {
	warmup() []op
	at(i int) op
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"run-miss", "run-mixed", "grid"}

// newWorkload builds the named workload's generator for seed.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "run-miss":
		return newRunMiss(seed), nil
	case "run-mixed":
		return newRunMixed(seed), nil
	case "grid":
		return newGridWork(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// rng returns a generator keyed by the seed and a stream label, so every
// derived sequence is independent of the others and of call order.
func rng(seed uint64, stream ...uint64) *rand.Rand {
	s := seed
	for _, x := range stream {
		s = splitmix(s ^ splitmix(x+0x9e3779b97f4a7c15))
	}
	return rand.New(rand.NewPCG(seed, s))
}

// splitmix is the splitmix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ---- run-miss ----------------------------------------------------------

// runMiss sends BV4 scenarios that all miss the cache: designated evidence,
// r=1, T=2, greedy-band silent faults on a 48×H torus. The varied axes all
// change the Result: H ∈ [missMinH, missMaxH), SourceY ∈ [0,H) and
// Value ∈ {0,1}. Timed requests come in blocks with one request per
// height, so every block costs the same; each height draws its
// (SourceY, Value) pairs without replacement from a seeded permutation.
type runMiss struct {
	seed  uint64
	pairs [][]int // per height offset: permuted SourceY*2+Value codes
}

const (
	missWidth = 48
	missMinH  = 24
	missMaxH  = 56
	missBlock = missMaxH - missMinH
	// missWarmup is the set-up request count. Warm-up keys use
	// SourceX 1, timed keys SourceX 0, so the two never share a key.
	missWarmup = 8
)

func newRunMiss(seed uint64) *runMiss {
	w := &runMiss{seed: seed, pairs: make([][]int, missBlock)}
	for j := range w.pairs {
		w.pairs[j] = rng(seed, 1, uint64(j)).Perm(2 * (missMinH + j))
	}
	return w
}

func missJob(h, sx, sy int, value byte) rbcast.Job {
	return rbcast.Job{
		Config: rbcast.Config{Width: missWidth, Height: h, Radius: 1, Protocol: rbcast.ProtocolBV4,
			T: 2, Value: value, SourceX: sx, SourceY: sy},
		Plan: rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
	}
}

func (w *runMiss) warmup() []op {
	// Evenly spaced heights: the warm state, and so retained_heap_mib,
	// does not depend on the seed.
	r := rng(w.seed, 2)
	ops := make([]op, missWarmup)
	for i := range ops {
		h := missMinH + i*missBlock/missWarmup
		ops[i] = op{kind: opRun, job: missJob(h, 1, r.IntN(h), byte(r.IntN(2))), template: "bv4"}
	}
	return ops
}

// at returns timed request i. The pool holds Σ 2H keys (2528); a stream
// longer than the smallest height's 2H blocks reuses keys, by which time
// the 1024-entry LRU has long evicted them.
func (w *runMiss) at(i int) op {
	block, j := i/missBlock, i%missBlock
	j = rng(w.seed, 3, uint64(block)).Perm(missBlock)[j]
	h := missMinH + j
	code := w.pairs[j][block%len(w.pairs[j])]
	return op{kind: opRun, job: missJob(h, 0, code/2, byte(code%2)), template: "bv4"}
}

// ---- run-mixed ---------------------------------------------------------

// template is one request family of run-mixed: keys variants, weight
// requests out of every mixedBlock timed ones.
type template struct {
	name   string
	keys   int
	weight int
	// key builds variant v; v ranges over [0, space).
	space int
	key   func(v int) rbcast.Job
}

const (
	mixedBlock = 100
	// mixedFresh timed requests in every block use a key nothing sent
	// before: the first-seen share is mixedFresh/mixedBlock.
	mixedFresh = 1
	// mixedZipf is the exponent of the per-template popularity law.
	mixedZipf = 1.0
)

// mixedTemplates spans all five protocol families, the three topology
// families, the concurrent engine, the lossy medium, and large results
// (a 64×64 r2 flood Result is about 180 KB of JSON). Weights sum to
// mixedBlock − mixedFresh.
func mixedTemplates() []template {
	torus := func(w, h, r int, p rbcast.Protocol, t int, v int, mod func(*rbcast.Job)) rbcast.Job {
		j := rbcast.Job{Config: rbcast.Config{Width: w, Height: h, Radius: r, Protocol: p, T: t,
			SourceX: v % w, SourceY: (v / w) % h, Value: byte(v / (w * h) % 2)}}
		if mod != nil {
			mod(&j)
		}
		return j
	}
	greedy := func(s rbcast.Strategy) func(*rbcast.Job) {
		return func(j *rbcast.Job) {
			j.Plan = rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: s}
		}
	}
	randomBounded := func(s rbcast.Strategy, count int, seed int) rbcast.FaultPlan {
		return rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: s, Count: count, Seed: int64(seed)}
	}
	rgg := func(n int, radius float64, topoSeed int, p rbcast.Protocol, t int) rbcast.Config {
		return rbcast.Config{Topology: rbcast.TopologyRGG, Nodes: n, RGGRadius: radius,
			TopologySeed: int64(topoSeed), Protocol: p, T: t, Value: 1}
	}
	return []template{
		{name: "flood/64x64r2", keys: 6, weight: 4, space: 64 * 64 * 2, key: func(v int) rbcast.Job {
			return torus(64, 64, 2, rbcast.ProtocolFlood, 0, v, nil)
		}},
		{name: "flood/32x32r2", keys: 40, weight: 13, space: 32 * 32 * 2, key: func(v int) rbcast.Job {
			return torus(32, 32, 2, rbcast.ProtocolFlood, 0, v, nil)
		}},
		{name: "flood/conc/32x32r2", keys: 16, weight: 5, space: 32 * 32 * 2, key: func(v int) rbcast.Job {
			return torus(32, 32, 2, rbcast.ProtocolFlood, 0, v, func(j *rbcast.Job) { j.Config.Concurrent = true })
		}},
		{name: "flood/lossy/24x24r2", keys: 32, weight: 8, space: 1 << 20, key: func(v int) rbcast.Job {
			return torus(24, 24, 2, rbcast.ProtocolFlood, 0, 0, func(j *rbcast.Job) {
				j.Config.LossRate, j.Config.Retransmit, j.Config.MediumSeed = 0.3, 3, int64(v+1)
			})
		}},
		{name: "cpa/greedy/24x14r2", keys: 40, weight: 10, space: 24 * 14 * 2, key: func(v int) rbcast.Job {
			return torus(24, 14, 2, rbcast.ProtocolCPA, 2, v, greedy(rbcast.StrategySilent))
		}},
		{name: "bv4/forger/16x10r1", keys: 32, weight: 10, space: 16 * 10 * 2, key: func(v int) rbcast.Job {
			return torus(16, 10, 1, rbcast.ProtocolBV4, 2, v, greedy(rbcast.StrategyForger))
		}},
		{name: "bv2/silent/16x10r1", keys: 32, weight: 8, space: 16 * 10 * 2, key: func(v int) rbcast.Job {
			return torus(16, 10, 1, rbcast.ProtocolBV2, 2, v, greedy(rbcast.StrategySilent))
		}},
		{name: "bracha/5x5r2", keys: 24, weight: 6, space: 1 << 20, key: func(v int) rbcast.Job {
			return rbcast.Job{
				Config: rbcast.Config{Width: 5, Height: 5, Radius: 2, Protocol: rbcast.ProtocolBracha, T: 8, Value: byte(v % 2)},
				Plan:   randomBounded(rbcast.StrategySilent, 8, v/2+1),
			}
		}},
		{name: "bracha/custom/k13", keys: 16, weight: 4, space: 1 << 20, key: func(v int) rbcast.Job {
			return rbcast.Job{
				Config: rbcast.Config{Topology: rbcast.TopologyCustom, Graph: complete(13), Source: v % 13,
					Protocol: rbcast.ProtocolBracha, T: 4, Value: 1},
				Plan: randomBounded(rbcast.StrategySilent, 4, v/13+1),
			}
		}},
		{name: "bracha-auth/rgg/n32", keys: 16, weight: 4, space: 1 << 20, key: func(v int) rbcast.Job {
			c := rgg(32, 0.3, 2, rbcast.ProtocolBrachaAuth, 2)
			c.MaxRounds = 128
			return rbcast.Job{Config: c, Plan: randomBounded(rbcast.StrategySilent, 2, v+1)}
		}},
		{name: "flood/rgg/n64", keys: 48, weight: 10, space: 1 << 20, key: func(v int) rbcast.Job {
			return rbcast.Job{Config: rgg(64, 0.22, v+1, rbcast.ProtocolFlood, 0)}
		}},
		{name: "cpa/rgg/n64", keys: 32, weight: 7, space: 1 << 20, key: func(v int) rbcast.Job {
			c := rgg(64, 0.22, v+1, rbcast.ProtocolCPA, 1)
			c.MaxRounds = 64
			return rbcast.Job{Config: c, Plan: randomBounded(rbcast.StrategySilent, 4, v+1)}
		}},
		{name: "flood/custom/ring", keys: 24, weight: 5, space: 48 * 6, key: func(v int) rbcast.Job {
			// Chords stay below n/2, so no edge appears twice.
			return rbcast.Job{Config: rbcast.Config{Topology: rbcast.TopologyCustom, Graph: chordRing(16+v%48, 2+v/48),
				Protocol: rbcast.ProtocolFlood, Value: 1}}
		}},
		{name: "cpa/custom/ring", keys: 24, weight: 5, space: 1 << 20, key: func(v int) rbcast.Job {
			return rbcast.Job{
				Config: rbcast.Config{Topology: rbcast.TopologyCustom, Graph: chordRing(24, 4), Source: v % 24,
					Protocol: rbcast.ProtocolCPA, T: 1, Value: 1, MaxRounds: 64},
				Plan: randomBounded(rbcast.StrategyLiar, 2, v/24+1),
			}
		}},
	}
}

// freshJob is the f-th first-seen key: a cheap engine on a network no
// other request uses (a new rgg placement stream, or a new custom ring).
func freshJob(seed uint64, f int) rbcast.Job {
	if f%2 == 0 {
		return rbcast.Job{Config: rbcast.Config{Topology: rbcast.TopologyRGG, Nodes: 48 + f%33, RGGRadius: 0.24,
			TopologySeed: int64(seed%1000)<<32 | int64(f), Protocol: rbcast.ProtocolFlood, Value: 1}}
	}
	n := 20 + (f/2)%40
	return rbcast.Job{
		Config: rbcast.Config{Topology: rbcast.TopologyCustom, Graph: chordRing(n, 3), Protocol: rbcast.ProtocolCPA,
			T: 1, Value: 1, MaxRounds: 64},
		Plan: rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategySilent, Count: 2,
			Seed: int64(seed%1000)<<32 | int64(f)},
	}
}

// runMixed sends a Zipf-like stream over a working set that fits the
// default 1024-entry cache. Set-up requests every warm key once; each
// timed block of mixedBlock requests holds exactly weight requests per
// template (Zipf-distributed over its keys) and mixedFresh first-seen
// keys, shuffled. Per-block template counts are fixed, so the cost of a
// block does not depend on the seed.
type runMixed struct {
	seed      uint64
	templates []template
	warm      [][]rbcast.Job // per template, in popularity rank order
	cdf       [][]float64    // per template, cumulative Zipf weights
	slots     []int          // template index per block slot; -1 = fresh
}

func newRunMixed(seed uint64) *runMixed {
	w := &runMixed{seed: seed, templates: mixedTemplates()}
	for ti, t := range w.templates {
		r := rng(seed, 10, uint64(ti))
		seen := make(map[int]bool, t.keys)
		keys := make([]rbcast.Job, 0, t.keys)
		for len(keys) < t.keys {
			v := r.IntN(t.space)
			if seen[v] {
				continue
			}
			seen[v] = true
			keys = append(keys, t.key(v))
		}
		w.warm = append(w.warm, keys)
		cdf := make([]float64, t.keys)
		sum := 0.0
		for k := range cdf {
			sum += 1 / math.Pow(float64(k+1), mixedZipf)
			cdf[k] = sum
		}
		for k := range cdf {
			cdf[k] /= sum
		}
		w.cdf = append(w.cdf, cdf)
		for n := 0; n < t.weight; n++ {
			w.slots = append(w.slots, ti)
		}
	}
	for n := 0; n < mixedFresh; n++ {
		w.slots = append(w.slots, -1)
	}
	if len(w.slots) != mixedBlock {
		panic(fmt.Sprintf("perfbench: run-mixed block has %d slots, want %d", len(w.slots), mixedBlock))
	}
	return w
}

// warmKeys is the number of distinct keys set-up requests.
func (w *runMixed) warmKeys() int {
	n := 0
	for _, keys := range w.warm {
		n += len(keys)
	}
	return n
}

func (w *runMixed) warmup() []op {
	var ops []op
	for ti, keys := range w.warm {
		for _, j := range keys {
			ops = append(ops, op{kind: opRun, job: j, template: w.templates[ti].name})
		}
	}
	r := rng(w.seed, 11)
	r.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return ops
}

func (w *runMixed) at(i int) op {
	block, j := i/mixedBlock, i%mixedBlock
	r := rng(w.seed, 12, uint64(block))
	perm := r.Perm(mixedBlock)
	ti := w.slots[perm[j]]
	if ti < 0 {
		// The f-th first-seen key: fresh slots sit at fixed block
		// positions, so f counts the fresh slots before position j.
		f := block * mixedFresh
		for k := 0; k < j; k++ {
			if w.slots[perm[k]] < 0 {
				f++
			}
		}
		return op{kind: opRun, job: freshJob(w.seed, f), fresh: true, template: "fresh"}
	}
	u := rng(w.seed, 13, uint64(i)).Float64()
	cdf := w.cdf[ti]
	k := 0
	for k < len(cdf)-1 && cdf[k] < u {
		k++
	}
	return op{kind: opRun, job: w.warm[ti][k], template: w.templates[ti].name}
}

// ---- grid --------------------------------------------------------------

// gridWork sends fresh crash-round grids of two shapes: a flood
// band-crash grid (Ts × CrashRounds, 72 elements) and a CPA greedy-band
// crash grid (36 elements). Each cycle of gridCycle ops sends both shapes
// alternately as streamed /v1/sweep requests, then each once, expanded, as
// a /v1/batch. Batches are the rarer op because the daemon keeps every
// finished batch job's results (up to 4096 jobs): with every other op a
// batch, the heap passed 800 MiB within 30 s. Every grid moves the source or flips
// the value, so no element is a cache hit; the tori are fixed, so the
// topology cache stays warm.
type gridWork struct {
	seed   uint64
	combos [2][]int // per base shape: permuted source/value codes
}

// gridShapes are the two base shapes: flood on a 16×16 r2 torus with a
// crashing band (lock-step, so crash rounds 1..12 diverge and fork), and
// CPA on a 16×10 r2 torus with greedy-band crash faults.
var gridShapes = [2]struct {
	name string
	w, h int
	spec func(sx, sy int, v byte) rbcast.SweepSpec
}{
	{"flood-band-crash", 16, 16, func(sx, sy int, v byte) rbcast.SweepSpec {
		return rbcast.SweepSpec{
			Base: rbcast.Job{
				Config: rbcast.Config{Width: 16, Height: 16, Radius: 2, Protocol: rbcast.ProtocolFlood, Value: v,
					SourceX: sx, SourceY: sy, LockStep: true},
				Plan: rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
			},
			Axes: rbcast.SweepAxes{Ts: []int{0, 1, 2, 3, 4, 5}, CrashRounds: seq(1, 12)},
		}
	}},
	{"cpa-greedy-crash", 16, 10, func(sx, sy int, v byte) rbcast.SweepSpec {
		return rbcast.SweepSpec{
			Base: rbcast.Job{
				Config: rbcast.Config{Width: 16, Height: 10, Radius: 2, Protocol: rbcast.ProtocolCPA, Value: v,
					SourceX: sx, SourceY: sy},
				Plan: rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyCrash},
			},
			Axes: rbcast.SweepAxes{Ts: []int{1, 2, 3}, CrashRounds: seq(1, 12)},
		}
	}},
}

const (
	// gridCycle ops: gridCycle−2 sweeps alternating the two shapes, then
	// one batch of each shape.
	gridCycle = 32
	// gridWarmup is the set-up op count: one cycle. Warm-up grids take
	// their source/value codes from the end of the permutations, timed
	// grids from the start.
	gridWarmup = gridCycle
)

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

func newGridWork(seed uint64) *gridWork {
	g := &gridWork{seed: seed}
	for s, shape := range gridShapes {
		g.combos[s] = rng(seed, 20, uint64(s)).Perm(shape.w * shape.h * 2)
	}
	return g
}

// gridOp builds a grid of shape s from source/value code index idx, sent
// as a batch or as a sweep.
func (g *gridWork) gridOp(s int, batch bool, idx int) op {
	shape := gridShapes[s]
	codes := g.combos[s]
	code := codes[idx%len(codes)]
	sx, sy, v := code%shape.w, (code/shape.w)%shape.h, byte(code/(shape.w*shape.h))
	kind := opSweep
	if batch {
		kind = opBatch
	}
	return op{kind: kind, grid: shape.spec(sx, sy, v), template: kind.String() + "/" + shape.name}
}

func (g *gridWork) warmup() []op {
	ops := make([]op, gridWarmup)
	for p := range ops {
		s := p % 2
		ops[p] = g.gridOp(s, p >= gridCycle-2, len(g.combos[s])-1-p/2)
	}
	return ops
}

// at returns timed grid i. Every op of a shape takes the next code of
// that shape's permutation, so codes repeat only after all of them
// (320 or 512) were used, long after the LRU evicted their keys.
func (g *gridWork) at(i int) op {
	cycle, p := i/gridCycle, i%gridCycle
	return g.gridOp(p%2, p >= gridCycle-2, cycle*gridCycle/2+p/2)
}

// ---- graphs ------------------------------------------------------------

// complete builds K_n.
func complete(n int) *rbcast.GraphSpec {
	spec := &rbcast.GraphSpec{Nodes: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			spec.Edges = append(spec.Edges, [2]int{i, j})
		}
	}
	return spec
}

// chordRing builds an n-cycle with a chord from every node to the one
// chord steps ahead.
func chordRing(n, chord int) *rbcast.GraphSpec {
	spec := &rbcast.GraphSpec{Nodes: n}
	for i := 0; i < n; i++ {
		spec.Edges = append(spec.Edges, [2]int{i, (i + 1) % n})
		spec.Edges = append(spec.Edges, [2]int{i, (i + chord) % n})
	}
	return spec
}

// nodes returns the network size a job's Result must cover.
func nodes(j rbcast.Job) int {
	switch j.Config.Topology {
	case rbcast.TopologyRGG:
		return j.Config.Nodes
	case rbcast.TopologyCustom:
		return j.Config.Graph.Nodes
	}
	return j.Config.Width * j.Config.Height
}
