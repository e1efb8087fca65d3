package rbcast_test

import (
	"encoding/json"
	"testing"

	rbcast "repro"
	"repro/internal/scenarios"
)

// TestBV4DesignatedAllocs guards the designated evidence core's allocation
// budget on the canonical bv4/at/16x10r1 scenario (160 nodes, forger
// adversary at the Theorem 1 threshold). With seven growing hash maps per
// node the run cost 33,817 allocations; the per-engine arena leaves about
// 2.3k, dominated by relayed messages and engine set-up. The bound is a
// fifth of the map-backed figure, so it trips on any return of per-node
// map churn without flaking on incidental runtime changes.
func TestBV4DesignatedAllocs(t *testing.T) {
	var sc *scenarios.Scenario
	for _, s := range scenarios.Matrix() {
		if s.Name == "bv4/at/16x10r1" {
			sc = &s
			break
		}
	}
	if sc == nil {
		t.Fatal("scenario bv4/at/16x10r1 missing from the matrix")
	}
	res, err := rbcast.Run(sc.Config, sc.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrect() || res.Metrics.EvidenceEvals == 0 {
		t.Fatalf("probe workload degenerate: %+v", res.Metrics)
	}
	const maxAllocs = 6700 // a fifth of the map-backed 33,817
	avg := testing.AllocsPerRun(5, func() {
		if _, err := rbcast.Run(sc.Config, sc.Plan); err != nil {
			t.Fatal(err)
		}
	})
	if avg > maxAllocs {
		t.Errorf("bv4/at/16x10r1 allocated %.0f times per run, budget %d — per-node evidence state regressed", avg, maxAllocs)
	}
}

// TestResultJSONAllocs guards the Result JSON codec's allocation budget on
// the 64×64 r2 flood Result (4096 decisions). Reflection allocated per
// node: about 16,400 times per encode and 8,300 per decode
// (BenchmarkResultJSONEncode/Decode before Result had its own codec). The
// hand-written codec measures 5 and 25, its buffers and the presized map;
// the bounds leave room for runtime changes but trip on any per-node
// allocation.
func TestResultJSONAllocs(t *testing.T) {
	res, err := rbcast.Run(rbcast.Config{Width: 64, Height: 64, Radius: 2, Protocol: rbcast.ProtocolFlood, Value: 1}, rbcast.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	const maxEncode, maxDecode = 20, 100
	if avg := testing.AllocsPerRun(5, func() {
		if _, err := json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}); avg > maxEncode {
		t.Errorf("encoding the 64×64 Result allocated %.0f times, budget %d", avg, maxEncode)
	}
	if avg := testing.AllocsPerRun(5, func() {
		var back rbcast.Result
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
	}); avg > maxDecode {
		t.Errorf("decoding the 64×64 Result allocated %.0f times, budget %d", avg, maxDecode)
	}
}
