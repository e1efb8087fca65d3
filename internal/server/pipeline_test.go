package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	rbcast "repro"
)

// deadTGrid is a flood crash-round × T grid. T is a dead parameter for
// flood, so elements that differ only in T share one execution, and the
// crash rounds form one wavefront-prefix fork family per T.
func deadTGrid(crashRounds []int) rbcast.SweepSpec {
	plan := rbcast.FaultPlan{}
	if len(crashRounds) > 0 {
		plan = rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash}
	}
	return rbcast.SweepSpec{
		Base: rbcast.Job{
			Config: rbcast.Config{Width: 14, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
			Plan:   plan,
		},
		Axes: rbcast.SweepAxes{Ts: []int{0, 1, 2, 3}, CrashRounds: crashRounds},
	}
}

// gridRequests expands a grid into /v1/batch job requests.
func gridRequests(t *testing.T, spec rbcast.SweepSpec) []RunRequest {
	t.Helper()
	jobs, err := spec.Elements()
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]RunRequest, len(jobs))
	for i, j := range jobs {
		reqs[i] = RunRequest{Config: j.Config, Plan: j.Plan}
	}
	return reqs
}

// TestSharedExecutionsCountOnce: each grid below is one execution, on
// /v1/sweep and /v1/batch alike, so the engine totals on /metrics must rise
// by one run's counters, not by one per element. The first varies a dead T
// axis; the second varies crash rounds that come after the flood has
// quiesced, so the trunk's one run answers them all.
func TestSharedExecutionsCountOnce(t *testing.T) {
	pastHorizon := deadTGrid(nil)
	pastHorizon.Base.Plan = rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash}
	pastHorizon.Axes = rbcast.SweepAxes{CrashRounds: []int{40, 50, 60, 70}}
	for name, spec := range map[string]rbcast.SweepSpec{"dead-t": deadTGrid(nil), "past-horizon": pastHorizon} {
		t.Run(name, func(t *testing.T) { requireCountedOnce(t, spec) })
	}
}

// requireCountedOnce posts the four-element grid spec to both routes.
func requireCountedOnce(t *testing.T, spec rbcast.SweepSpec) {
	routes := map[string]func(t *testing.T, ts *httptest.Server) []*rbcast.Result{
		"sweep": func(t *testing.T, ts *httptest.Server) []*rbcast.Result {
			resp, body := postJSON(t, ts, "/v1/sweep", SweepRequest{
				Base: RunRequest{Config: spec.Base.Config, Plan: spec.Base.Plan}, Axes: spec.Axes,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
			}
			_, elements, trailer := decodeSweepStream(t, body)
			if trailer.Stats.Simulations != 1 {
				t.Fatalf("sweep stats %+v, want one simulation", trailer.Stats)
			}
			var out []*rbcast.Result
			for _, el := range elements {
				out = append(out, el.Result)
			}
			return out
		},
		"batch": func(t *testing.T, ts *httptest.Server) []*rbcast.Result {
			ack := submitBatch(t, ts, gridRequests(t, spec))
			var out []*rbcast.Result
			for _, jr := range pollJob(t, ts, ack.ID).Results {
				out = append(out, jr.Result)
			}
			return out
		},
	}
	for name, post := range routes {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(New(Options{}))
			defer ts.Close()
			results := post(t, ts)
			if len(results) != 4 {
				t.Fatalf("%d elements, want 4", len(results))
			}
			for i, res := range results {
				if res == nil || res.Broadcasts != results[0].Broadcasts {
					t.Fatalf("element %d: result %+v differs from element 0", i, res)
				}
			}
			if got := metricValue(t, ts.URL, `rbcastd_sim_runs_total (\d+)`); got != 1 {
				t.Errorf("rbcastd_sim_runs_total = %d, want 1", got)
			}
			if got := metricValue(t, ts.URL, `rbcastd_sim_broadcasts_total (\d+)`); got != results[0].Broadcasts {
				t.Errorf("rbcastd_sim_broadcasts_total = %d, want one run's %d", got, results[0].Broadcasts)
			}
		})
	}
}

// TestBatchElementsMatchRunBodies: batches run on the sweep engine, so
// their elements share executions and fork crash families — and each must
// still equal the /v1/run body of its own scenario, Metrics.Wall aside.
func TestBatchElementsMatchRunBodies(t *testing.T) {
	batchTS := httptest.NewServer(New(Options{}))
	defer batchTS.Close()
	runTS := httptest.NewServer(New(Options{}))
	defer runTS.Close()

	reqs := gridRequests(t, deadTGrid([]int{1, 2, 3}))
	st := pollJob(t, batchTS, submitBatch(t, batchTS, reqs).ID)
	if len(st.Results) != len(reqs) {
		t.Fatalf("%d results for %d jobs", len(st.Results), len(reqs))
	}
	unwall := func(rr RunResponse) []byte {
		rr.Result.Metrics.Wall = 0
		b, err := json.Marshal(rr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i, jr := range st.Results {
		if jr.Error != "" || jr.Result == nil || jr.Cached || jr.Partial {
			t.Fatalf("element %d: %+v, want a fresh result", i, jr)
		}
		resp, body := postJSON(t, runTS, "/v1/run", reqs[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d status %d: %s", i, resp.StatusCode, body)
		}
		var run RunResponse
		if err := json.Unmarshal(body, &run); err != nil {
			t.Fatal(err)
		}
		if got, want := unwall(RunResponse{Fingerprint: jr.Fingerprint, Result: *jr.Result}), unwall(run); !bytes.Equal(got, want) {
			t.Errorf("element %d differs from its /v1/run body:\n%s", i, firstDiff(got, want))
		}
	}
	// Four T values share each crash round's execution.
	if got := metricValue(t, batchTS.URL, `rbcastd_sim_runs_total (\d+)`); got != 3 {
		t.Errorf("batch rbcastd_sim_runs_total = %d, want 3 (one per crash round)", got)
	}
}
