package rbcast_test

import (
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
