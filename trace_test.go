package rbcast

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// traceScenario is the canonical traced scenario for golden and behavior
// tests: BV4 at the configured threshold with a greedy silent band, on a
// grid small enough to keep the golden file reviewable. Sequential engine,
// so the trace is fully deterministic.
func traceScenario() (Config, FaultPlan) {
	cfg := Config{Width: 8, Height: 6, Radius: 1, Protocol: ProtocolBV4, T: 2, Value: 1, Trace: true}
	plan := FaultPlan{Placement: PlaceGreedyBand, Strategy: StrategySilent}
	return cfg, plan
}

func TestTraceEnumTextRoundTrip(t *testing.T) {
	kinds := []EventKind{0, EventBroadcast, EventDelivery, EventEvidenceEval, EventCrash, EventSpoof, EventCommit}
	for _, v := range kinds {
		text, err := v.MarshalText()
		if err != nil {
			t.Fatalf("EventKind(%d).MarshalText: %v", v, err)
		}
		var back EventKind
		if err := back.UnmarshalText(text); err != nil || back != v {
			t.Errorf("EventKind %d round-trips to %d (err %v)", v, back, err)
		}
	}
	rules := []CommitRule{0, RuleSource, RuleDirect, RuleQuorum, RuleDisjointChains, RuleVotes, RuleFlood}
	for _, v := range rules {
		text, err := v.MarshalText()
		if err != nil {
			t.Fatalf("CommitRule(%d).MarshalText: %v", v, err)
		}
		var back CommitRule
		if err := back.UnmarshalText(text); err != nil || back != v {
			t.Errorf("CommitRule %d round-trips to %d (err %v)", v, back, err)
		}
	}
	if _, err := EventKind(99).MarshalText(); err == nil {
		t.Error("invalid event kind must not marshal")
	}
	if _, err := CommitRule(99).MarshalText(); err == nil {
		t.Error("invalid commit rule must not marshal")
	}
	var k EventKind
	if err := k.UnmarshalText([]byte("teleport")); err == nil {
		t.Error("unknown event kind name must not unmarshal")
	}
	var r CommitRule
	if err := r.UnmarshalText([]byte("vibes")); err == nil {
		t.Error("unknown commit rule name must not unmarshal")
	}
}

func TestConfigTraceJSONRoundTrip(t *testing.T) {
	cfg := Config{Width: 8, Height: 6, Radius: 1, Protocol: ProtocolFlood, Trace: true}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"trace":true`) {
		t.Errorf("traced config marshals to %s, want a trace key", data)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil || back != cfg {
		t.Errorf("traced config round-trips to %+v (err %v)", back, err)
	}
}

// TestTraceOffByDefault pins the opt-in contract: without Config.Trace the
// result carries no trace, Explain refuses, and certificates are absent.
func TestTraceOffByDefault(t *testing.T) {
	cfg, plan := traceScenario()
	cfg.Trace = false
	res, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("untraced run recorded %d events", len(res.Trace))
	}
	if _, err := Explain(res, Node{}); err == nil {
		t.Error("Explain must refuse an untraced result")
	}
	if cert := res.CommitCertificate(Node{}); cert != nil {
		t.Error("untraced result returned a certificate")
	}
}

// TestTraceGoldenJSONL pins the traced scenario's full JSONL encoding
// byte-for-byte, then proves the encoding lossless: decode → deep-equal →
// re-encode → byte-identical.
func TestTraceGoldenJSONL(t *testing.T) {
	cfg, plan := traceScenario()
	res, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("traced run recorded no events")
	}

	var buf bytes.Buffer
	if err := EncodeTrace(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "trace_bv4.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run `go test -run TestTraceGoldenJSONL -update ./` to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace JSONL drifted from %s (%d vs %d bytes)", golden, len(got), len(want))
	}

	back, err := DecodeTrace(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Trace, back) {
		t.Fatal("trace does not survive an encode/decode round trip")
	}
	var again bytes.Buffer
	if err := EncodeTrace(&again, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again.Bytes()) {
		t.Fatal("re-encoding a decoded trace is not byte-identical")
	}
}

// TestTraceCertsGolden pins the EncodeTrace bytes of the at-threshold
// scenarios whose commit certificates come from the exact chain-packing
// search — BV2's §VI-B disjoint-chains rule and exact-mode BV4's §VI
// determination — as one "name<TAB>sha256" line each. The search's chain choice lands in the
// certificates, so a change to the packing order shows up here even when
// every verdict and round stays put.
func TestTraceCertsGolden(t *testing.T) {
	type shape struct {
		name     string
		w, h, r  int
		protocol Protocol
		exact    bool
	}
	shapes := []shape{
		{"bv2/16x10r1", 16, 10, 1, ProtocolBV2, false},
		{"bv2/20x12r2", 20, 12, 2, ProtocolBV2, false},
		{"bv4-exact/12x8r1", 12, 8, 1, ProtocolBV4, true},
	}
	strategies := []Strategy{StrategySilent, StrategyLiar, StrategyForger}
	var got bytes.Buffer
	for _, sh := range shapes {
		for _, st := range strategies {
			cfg := Config{Width: sh.w, Height: sh.h, Radius: sh.r, Protocol: sh.protocol, T: MaxByzantineLinf(sh.r), Value: 1, ExactEvidence: sh.exact, Trace: true}
			res, err := Run(cfg, FaultPlan{Placement: PlaceGreedyBand, Strategy: st})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := EncodeTrace(&buf, res.Trace); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s/%s\t%x\n", sh.name, st, sha256.Sum256(buf.Bytes()))
		}
	}

	golden := filepath.Join("testdata", "trace_certs.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run `go test -run TestTraceCertsGolden -update ./` to create it): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("traced certificate scenarios drifted from %s:\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

func TestDecodeTraceSkipsBlankLinesAndRejectsGarbage(t *testing.T) {
	events, err := DecodeTrace(strings.NewReader("\n{\"round\":1,\"kind\":\"crash\",\"node\":\"2,3\"}\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != EventCrash || events[0].Node != (Node{X: 2, Y: 3}) {
		t.Fatalf("decoded %+v", events)
	}
	if _, err := DecodeTrace(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage line must not decode")
	}
	if events, err := DecodeTrace(strings.NewReader("")); err != nil || events != nil {
		t.Errorf("empty stream decoded to %v, %v", events, err)
	}
}

func TestExplain(t *testing.T) {
	cfg, plan := traceScenario()
	res, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}

	// The source explains as a fiat commit.
	out, err := Explain(res, Node{X: cfg.SourceX, Y: cfg.SourceY})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `rule "source"`) {
		t.Errorf("source explanation lacks the source rule:\n%s", out)
	}

	// Every decided node explains with its rule named; undecided honest
	// nodes and faulty nodes explain without error.
	sawQuorum := false
	for n, d := range res.Decisions {
		out, err := Explain(res, n)
		if err != nil {
			t.Fatalf("Explain(%v): %v", n, err)
		}
		switch {
		case d.Decided && !strings.Contains(out, "committed value"):
			t.Errorf("decided node %v explanation lacks its commit:\n%s", n, out)
		case !d.Decided && !strings.Contains(out, "never committed"):
			t.Errorf("undecided node %v explanation is wrong:\n%s", n, out)
		}
		if strings.Contains(out, `rule "quorum"`) {
			sawQuorum = true
		}
	}
	if !sawQuorum {
		t.Error("no node explained via the quorum rule in a BV4 run")
	}

	// Unknown nodes are an error, not a silent "never committed".
	if _, err := Explain(res, Node{X: 1000, Y: 1000}); err == nil {
		t.Error("Explain must reject a node outside the network")
	}
}

// TestFingerprintTraceSensitivity: tracing changes the fingerprint (a
// traced result is a different cacheable artifact), while untraced
// scenarios keep their pre-trace fingerprints (pinned by
// TestFingerprintGolden).
func TestFingerprintTraceSensitivity(t *testing.T) {
	cfg, plan := traceScenario()
	traced := Job{Config: cfg, Plan: plan}
	untraced := traced
	untraced.Config.Trace = false
	if traced.Fingerprint() == untraced.Fingerprint() {
		t.Error("enabling Trace did not change the fingerprint")
	}
}

// TestTraceCrashEventsLeadTheTrace: crash schedules come from the fault
// plan, recorded before round 0 engine events, in node-id order.
func TestTraceCrashEventsLeadTheTrace(t *testing.T) {
	cfg := Config{Width: 8, Height: 6, Radius: 1, Protocol: ProtocolFlood, Value: 1, Trace: true}
	plan := FaultPlan{Placement: PlaceBand, Strategy: StrategyCrash, Count: 2, CrashRound: 3}
	res, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == 0 {
		t.Fatal("plan placed no faults")
	}
	crashes := 0
	for i, ev := range res.Trace {
		if ev.Kind != EventCrash {
			break
		}
		crashes++
		if ev.Round != 3 {
			t.Errorf("crash event %d at round %d, want 3", i, ev.Round)
		}
	}
	if crashes != res.Faults {
		t.Errorf("trace leads with %d crash events, want %d", crashes, res.Faults)
	}
}

// TestTraceEngineEquivalence: the concurrent engine's trace contains the
// same commits (node, value, round) as the sequential engine's for the
// same scenario, even though within-round protocol-event interleaving
// differs.
func TestTraceEngineEquivalence(t *testing.T) {
	cfg, plan := traceScenario()
	cfg.LockStep = true // the concurrent engine is always lock-step
	seq, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LockStep = false
	cfg.Concurrent = true
	conc, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	type commit struct {
		node  Node
		value byte
		round int
	}
	collect := func(res Result) map[commit]bool {
		out := make(map[commit]bool)
		for _, ev := range res.Trace {
			if ev.Kind == EventCommit {
				out[commit{ev.Node, ev.Value, ev.Round}] = true
			}
		}
		return out
	}
	if a, b := collect(seq), collect(conc); !reflect.DeepEqual(a, b) {
		t.Errorf("commit sets differ between engines: %d sequential vs %d concurrent", len(a), len(b))
	}
}

// TestTracingLeavesCountersUnchanged: arming the tap's event recording must
// not change what it counts or anything else in the Result. Every protocol
// runs on every topology family it supports, on both engines, traced and
// untraced; the Results must agree apart from Trace and Metrics.Wall.
func TestTracingLeavesCountersUnchanged(t *testing.T) {
	torus := func(w, h, r int) Config { return Config{Width: w, Height: h, Radius: r, Value: 1} }
	rgg := Config{Topology: TopologyRGG, Nodes: 64, RGGRadius: 0.22, TopologySeed: 1, Value: 1}
	var edges [][2]int
	for i := 0; i < 10; i++ {
		for d := 1; d <= 3; d++ {
			edges = append(edges, [2]int{i, (i + d) % 10})
		}
	}
	custom := Config{Topology: TopologyCustom, Graph: &GraphSpec{Nodes: 10, Edges: edges}, Value: 1}
	crash := FaultPlan{Placement: PlaceRandomBounded, Strategy: StrategyCrash, CrashRound: 2, Count: 2, Seed: 5}
	band := func(s Strategy) FaultPlan { return FaultPlan{Placement: PlaceGreedyBand, Strategy: s, CrashRound: 2} }
	random := func(s Strategy, count int) FaultPlan {
		return FaultPlan{Placement: PlaceRandomBounded, Strategy: s, Count: count, Seed: 9}
	}
	cases := []struct {
		name string
		cfg  Config
		p    Protocol
		t    int
		plan FaultPlan
	}{
		{"torus/flood", torus(16, 10, 1), ProtocolFlood, 2, band(StrategyCrash)},
		{"torus/cpa", torus(24, 14, 2), ProtocolCPA, 2, band(StrategyLiar)},
		{"torus/bv4", torus(16, 10, 1), ProtocolBV4, 1, band(StrategyForger)},
		{"torus/bv2", torus(16, 10, 1), ProtocolBV2, 1, band(StrategyLiar)},
		{"torus/bracha", torus(5, 5, 2), ProtocolBracha, 8, random(StrategyEquivocator, 6)},
		{"torus/bracha-auth", torus(5, 5, 2), ProtocolBrachaAuth, 8, random(StrategyEquivocator, 6)},
		{"rgg/flood", rgg, ProtocolFlood, 1, crash},
		{"rgg/cpa", rgg, ProtocolCPA, 1, random(StrategyLiar, 1)},
		{"rgg/bracha", rgg, ProtocolBracha, 4, random(StrategyEquivocator, 4)},
		{"rgg/bracha-auth", rgg, ProtocolBrachaAuth, 4, random(StrategyEquivocator, 4)},
		{"custom/flood", custom, ProtocolFlood, 1, crash},
		{"custom/cpa", custom, ProtocolCPA, 1, random(StrategyLiar, 1)},
		{"custom/bracha", custom, ProtocolBracha, 2, random(StrategyEquivocator, 2)},
		{"custom/bracha-auth", custom, ProtocolBrachaAuth, 2, random(StrategyEquivocator, 2)},
	}
	for _, tc := range cases {
		for _, concurrent := range []bool{false, true} {
			cfg := tc.cfg
			cfg.Protocol, cfg.T, cfg.Concurrent = tc.p, tc.t, concurrent
			name := tc.name + "/sequential"
			if concurrent {
				name = tc.name + "/concurrent"
			}
			t.Run(name, func(t *testing.T) {
				untraced, err := Run(cfg, tc.plan)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Trace = true
				traced, err := Run(cfg, tc.plan)
				if err != nil {
					t.Fatal(err)
				}
				if len(traced.Trace) == 0 || len(untraced.Metrics.PerRound) == 0 {
					t.Fatalf("degenerate probe: %d events, %d rounds", len(traced.Trace), len(untraced.Metrics.PerRound))
				}
				traced.Trace = nil
				traced.Metrics.Wall, untraced.Metrics.Wall = 0, 0
				if !reflect.DeepEqual(traced, untraced) {
					t.Errorf("tracing changed the Result:\n traced   %+v\n untraced %+v", traced.Metrics, untraced.Metrics)
				}
			})
		}
	}
}
