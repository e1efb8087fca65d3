package sim

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/topology"
)

// floodProc is a minimal test protocol: the designated source broadcasts its
// value once; every node commits to the first value heard and relays once.
type floodProc struct {
	id      topology.NodeID
	source  topology.NodeID
	value   byte
	decided bool
}

func (p *floodProc) Init(ctx Context) {
	if p.id == p.source {
		p.decided = true
		ctx.Broadcast(Message{Kind: KindValue, Value: p.value})
	}
}

func (p *floodProc) Deliver(ctx Context, _ topology.NodeID, m Message) {
	if p.decided || m.Kind != KindValue {
		return
	}
	p.decided = true
	p.value = m.Value
	ctx.Broadcast(Message{Kind: KindValue, Value: m.Value})
}

func (p *floodProc) Decided() (byte, bool) {
	if !p.decided {
		return 0, false
	}
	return p.value, true
}

func floodFactory(net *topology.Network, source topology.NodeID, v byte) ProcessFactory {
	return func(id topology.NodeID) Process {
		p := &floodProc{id: id, source: source}
		if id == source {
			p.value = v
		}
		return p
	}
}

func testNet(t *testing.T, w, h, r int) *topology.Network {
	t.Helper()
	net, err := topology.New(grid.Torus{W: w, H: h}, grid.Linf, r)
	if err != nil {
		t.Fatalf("topology.New: %v", err)
	}
	return net
}

func TestNewEngineValidation(t *testing.T) {
	net := testNet(t, 10, 10, 1)
	if _, err := NewEngine(Config{Factory: func(topology.NodeID) Process { return NopProcess{} }}); err == nil {
		t.Error("missing Net must be rejected")
	}
	if _, err := NewEngine(Config{Net: net}); err == nil {
		t.Error("missing Factory must be rejected")
	}
}

func TestFloodReachesEveryNode(t *testing.T) {
	net := testNet(t, 10, 10, 1)
	source := net.IDOf(grid.C(0, 0))
	res, err := Run(Config{Net: net, Factory: floodFactory(net, source, 1)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Stats.Quiesced {
		t.Error("flood must quiesce")
	}
	if len(res.Decided) != net.Size() {
		t.Fatalf("decided %d of %d nodes", len(res.Decided), net.Size())
	}
	for id, v := range res.Decided {
		if v != 1 {
			t.Errorf("node %d decided %d, want 1", id, v)
		}
	}
	// Every node relays exactly once: broadcasts == node count.
	if res.Stats.Broadcasts != net.Size() {
		t.Errorf("broadcasts = %d, want %d", res.Stats.Broadcasts, net.Size())
	}
}

func TestFloodRoundsMatchEccentricity(t *testing.T) {
	// On a 12x12 torus with r=1 the farthest node from (0,0) is at L∞
	// distance 6. With TDMA-frame semantics each frame advances the
	// frontier by at least one hop, and decisions cannot outrun hops, so
	// the hop-distance lower bound must hold.
	net := testNet(t, 12, 12, 1)
	source := net.IDOf(grid.C(0, 0))
	far := net.IDOf(grid.C(6, 6))
	res, err := Run(Config{Net: net, Factory: floodFactory(net, source, 1)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.DecidedRound[far] < 1 {
		t.Errorf("far node decided in round %d, want ≥ 1", res.DecidedRound[far])
	}
	if res.DecidedRound[source] != 0 {
		t.Errorf("source decided in round %d, want 0 (at Init)", res.DecidedRound[source])
	}
}

func TestCrashedFromStartNeverActs(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	source := net.IDOf(grid.C(0, 0))
	crashed := net.IDOf(grid.C(4, 4))
	res, err := Run(Config{
		Net:     net,
		Factory: floodFactory(net, source, 1),
		CrashAt: map[topology.NodeID]int{crashed: 0},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, ok := res.Decided[crashed]; ok {
		t.Error("a node crashed from the start must not decide")
	}
	if len(res.Decided) != net.Size()-1 {
		t.Errorf("decided %d, want %d", len(res.Decided), net.Size()-1)
	}
}

func TestCrashIsolatesWhenCut(t *testing.T) {
	// Crash three full columns of a thin torus: with r=1 the surviving
	// right part is unreachable (columns 3,4,5 of width 9: distance from
	// x≤2 to x≥6 is ≥ 4 hops through crashed region... use r=1 and a
	// vertical band of width 1 at x=3 plus wrap band at x=7 to cut the
	// ring.
	net := testNet(t, 9, 5, 1)
	source := net.IDOf(grid.C(0, 0))
	crash := make(map[topology.NodeID]int)
	for y := 0; y < 5; y++ {
		crash[net.IDOf(grid.C(3, y))] = 0
		crash[net.IDOf(grid.C(7, y))] = 0
	}
	res, err := Run(Config{Net: net, Factory: floodFactory(net, source, 1), CrashAt: crash})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Nodes with 4 ≤ x ≤ 6 are cut off.
	for y := 0; y < 5; y++ {
		for x := 4; x <= 6; x++ {
			if _, ok := res.Decided[net.IDOf(grid.C(x, y))]; ok {
				t.Errorf("node (%d,%d) behind the cut must not decide", x, y)
			}
		}
	}
	// Nodes on the near side all decide.
	for y := 0; y < 5; y++ {
		for _, x := range []int{0, 1, 2, 8} {
			if _, ok := res.Decided[net.IDOf(grid.C(x, y))]; !ok {
				t.Errorf("node (%d,%d) on source side must decide", x, y)
			}
		}
	}
}

func TestLateCrashStillRelays(t *testing.T) {
	// A node that crashes late (after relaying) does not prevent others
	// from deciding.
	net := testNet(t, 9, 9, 1)
	source := net.IDOf(grid.C(0, 0))
	late := net.IDOf(grid.C(1, 1))
	res, err := Run(Config{
		Net:     net,
		Factory: floodFactory(net, source, 1),
		CrashAt: map[topology.NodeID]int{late: 100},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Decided) != net.Size() {
		t.Errorf("decided %d, want all %d", len(res.Decided), net.Size())
	}
}

func TestMaxRoundsBoundsRun(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	// A babbling process that never quiesces.
	factory := func(id topology.NodeID) Process { return &babbler{} }
	res, err := Run(Config{Net: net, Factory: factory, MaxRounds: 7})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stats.Quiesced {
		t.Error("babbler run must not quiesce")
	}
	if res.Stats.Rounds != 7 {
		t.Errorf("rounds = %d, want 7", res.Stats.Rounds)
	}
}

// babbler transmits one message every round forever, so the run can only
// end by hitting MaxRounds.
type babbler struct {
	lastRound int
}

func (b *babbler) Init(ctx Context) { ctx.Broadcast(Message{Kind: KindValue}) }
func (b *babbler) Deliver(ctx Context, _ topology.NodeID, _ Message) {
	if ctx.Round() > b.lastRound {
		b.lastRound = ctx.Round()
		ctx.Broadcast(Message{Kind: KindValue})
	}
}
func (b *babbler) Decided() (byte, bool) { return 0, false }

func TestDeterminism(t *testing.T) {
	net := testNet(t, 10, 10, 2)
	source := net.IDOf(grid.C(0, 0))
	run := func() Result {
		res, err := Run(Config{Net: net, Factory: floodFactory(net, source, 1)})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats != b.Stats {
		t.Errorf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	for id, r := range a.DecidedRound {
		if b.DecidedRound[id] != r {
			t.Errorf("node %d decided round %d vs %d", id, r, b.DecidedRound[id])
		}
	}
}

func TestStepReportsProgress(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	source := net.IDOf(grid.C(0, 0))
	e, err := NewEngine(Config{Net: net, Factory: floodFactory(net, source, 1)})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if !e.Step() {
		t.Error("first frame must transmit the source value")
	}
	for i := 0; i < 100 && e.Step(); i++ {
	}
	if e.Step() {
		t.Error("quiesced engine must report no progress")
	}
}
