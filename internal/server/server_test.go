package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rbcast "repro"
)

// testScenario is a small, fast scenario used across the suite.
func testScenario() RunRequest {
	return RunRequest{
		Config: rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolBV4, T: 2, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

func getBody(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

func TestRunEndpointMatchesDirectRun(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := testScenario()
	resp, body := postJSON(t, ts, "/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Rbcast-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	want, err := rbcast.Run(req.Config, req.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Fingerprint != (rbcast.Job{Config: req.Config, Plan: req.Plan}).Fingerprint() {
		t.Errorf("fingerprint mismatch: %s", rr.Fingerprint)
	}
	got := rr.Result
	got.Metrics.Wall, want.Metrics.Wall = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Error("served result diverges from direct rbcast.Run")
	}

	// Second identical request: a resident cache hit.
	resp2, body2 := postJSON(t, ts, "/v1/run", req)
	if got := resp2.Header.Get("X-Rbcast-Cache"); got != "hit" {
		t.Errorf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached response body differs from the original")
	}
}

// TestConcurrentIdenticalRunsSingleFlight is the acceptance check: two
// concurrent identical POST /v1/run requests must produce exactly one
// simulation execution and byte-identical JSON bodies, and /metrics must
// then report cache_hits_total ≥ 1.
func TestConcurrentIdenticalRunsSingleFlight(t *testing.T) {
	var executions atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := New(Options{
		Runner: func(ctx context.Context, cfg rbcast.Config, plan rbcast.FaultPlan) (rbcast.Result, error) {
			if executions.Add(1) == 1 {
				close(entered)
			}
			<-release
			return rbcast.RunContext(ctx, cfg, plan)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := testScenario()
	bodies := make([][]byte, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts, "/v1/run", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
			}
			bodies[i] = body
		}(i)
	}

	// Wait until the first request is inside the runner, then until the
	// second has coalesced onto its flight (visible as a cache hit),
	// before letting the execution finish.
	<-entered
	deadline := time.Now().Add(5 * time.Second)
	for srv.cache.Stats().Hits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced onto the in-flight execution")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Errorf("runner executed %d times, want 1", got)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("concurrent identical requests returned different bodies:\n%s\n%s", bodies[0], bodies[1])
	}

	_, metrics := getBody(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "rbcastd_cache_hits_total 1") {
		t.Errorf("/metrics must report at least one cache hit:\n%s", metrics)
	}
}

func TestRunEndpointRejectsInvalidScenario(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bad := testScenario()
	bad.Config.Value = 7
	resp, body := postJSON(t, ts, "/v1/run", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("error body %s", body)
	}
	// Errors must not be cached: a valid retry with the same shape works.
	// And malformed JSON (unknown field) is a 400, not a silent default.
	resp, _ = postJSON(t, ts, "/v1/run", map[string]any{"config": map[string]any{"widht": 16}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestRequestBodyCap pins the request-size bound: a body of exactly
// maxBodyBytes is read and served, one byte more is refused with 413 on
// every body-carrying route before the handler decodes it.
func TestRequestBodyCap(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Valid JSON padded with trailing whitespace, which the strict decoder
	// accepts, to an exact size.
	padded := func(size int) []byte {
		data, err := json.Marshal(testScenario())
		if err != nil {
			t.Fatal(err)
		}
		return append(data, bytes.Repeat([]byte(" "), size-len(data))...)
	}
	post := func(path string, body []byte) (int, []byte) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, got
	}

	if status, body := post("/v1/run", padded(maxBodyBytes)); status != http.StatusOK {
		t.Fatalf("body at the cap: status %d, want 200: %s", status, body)
	}
	for _, path := range []string{"/v1/run", "/v1/batch", "/v1/sweep"} {
		status, body := post(path, padded(maxBodyBytes+1))
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s one byte over the cap: status %d, want 413: %s", path, status, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %s", path, body)
		}
	}
}

func TestBatchEndpointRunsAndDeduplicates(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	a := testScenario()
	b := testScenario()
	b.Config.Protocol = rbcast.ProtocolBV2
	invalid := testScenario()
	invalid.Config.Metric = rbcast.MetricL2
	invalid.Config.Value = 9 // rejected by validate
	// a appears twice: the duplicate must resolve without a second run.
	reqs := []RunRequest{a, b, a, invalid}

	resp, body := postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: reqs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ack BatchResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Jobs != len(reqs) || ack.StatusURL != "/v1/jobs/"+ack.ID {
		t.Fatalf("ack = %+v", ack)
	}

	var status JobStatus
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, jb := getBody(t, ts, ack.StatusURL)
		if err := json.Unmarshal(jb, &status); err != nil {
			t.Fatal(err)
		}
		if status.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if len(status.Results) != len(reqs) {
		t.Fatalf("%d results for %d jobs", len(status.Results), len(reqs))
	}
	for i, idx := range []int{0, 1} {
		jr := status.Results[idx]
		if jr.Error != "" || jr.Result == nil {
			t.Fatalf("job %d failed: %+v", i, jr)
		}
		want, err := rbcast.Run(reqs[idx].Config, reqs[idx].Plan)
		if err != nil {
			t.Fatal(err)
		}
		got := *jr.Result
		got.Metrics.Wall, want.Metrics.Wall = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %d result diverges from direct run", idx)
		}
	}
	dup := status.Results[2]
	if !dup.Cached || dup.Result == nil {
		t.Errorf("within-batch duplicate not served from its first occurrence: %+v", dup)
	}
	if status.Results[3].Error == "" {
		t.Error("invalid job must carry its error")
	}

	// The batch populated the cache: a sync run of scenario b now hits.
	resp, _ = postJSON(t, ts, "/v1/run", b)
	if got := resp.Header.Get("X-Rbcast-Cache"); got != "hit" {
		t.Errorf("post-batch sync request cache header = %q, want hit", got)
	}
}

func TestJobEndpointUnknownID(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, _ := getBody(t, ts, "/v1/jobs/job-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

func TestBatchValidation(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, _ := postJSON(t, ts, "/v1/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, body := getBody(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "ok" {
		t.Errorf("healthz body %s (err %v)", body, err)
	}
}

func TestMetricsExposition(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postJSON(t, ts, "/v1/run", testScenario())
	postJSON(t, ts, "/v1/run", testScenario())
	resp, body := getBody(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`rbcastd_requests_total{path="/v1/run"} 2`,
		"rbcastd_cache_hits_total 1",
		"rbcastd_cache_misses_total 1",
		"rbcastd_sim_runs_total 1",
		"rbcastd_jobs_queue_depth 0",
		"rbcastd_inflight_runs 0",
		"# TYPE rbcastd_cache_hits_total counter",
		"# TYPE rbcastd_cache_entries gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	// Simulation totals must reflect the one executed run.
	res, err := rbcast.Run(testScenario().Config, testScenario().Plan)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("rbcastd_sim_broadcasts_total %d", res.Broadcasts); !strings.Contains(text, want) {
		t.Errorf("/metrics missing %q", want)
	}
}

func TestDrainWaitsForBatchJobs(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	srv := New(Options{
		BatchRunner: func(jobs []rbcast.Job, opts rbcast.BatchOptions) []rbcast.BatchResult {
			close(started)
			<-release
			return rbcast.RunBatch(jobs, opts)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: []RunRequest{testScenario()}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	<-started

	// Drain with an expired deadline reports the still-queued job.
	expired, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := srv.Drain(expired); err == nil {
		t.Error("drain with blocked batch job must time out")
	}

	// New batch submissions are rejected while draining.
	resp, _ = postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: []RunRequest{testScenario()}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining batch: status %d, want 503", resp.StatusCode)
	}

	close(release)
	ctx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
}

func TestFinishedJobEviction(t *testing.T) {
	srv := New(Options{MaxJobs: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		req := testScenario()
		req.Config.T = i // distinct scenarios
		resp, body := postJSON(t, ts, "/v1/batch", BatchRequest{Jobs: []RunRequest{req}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var ack BatchResponse
		if err := json.Unmarshal(body, &ack); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ack.ID)
		// Let each job finish before the next submission so eviction has
		// a finished candidate.
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, jb := getBody(t, ts, ack.StatusURL)
			var st JobStatus
			if err := json.Unmarshal(jb, &st); err != nil {
				t.Fatal(err)
			}
			if st.State == "done" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("job never finished")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	resp, _ := getBody(t, ts, "/v1/jobs/"+ids[0])
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest finished job should be evicted, got status %d", resp.StatusCode)
	}
	resp, _ = getBody(t, ts, "/v1/jobs/"+ids[2])
	if resp.StatusCode != http.StatusOK {
		t.Errorf("newest job must survive eviction, got status %d", resp.StatusCode)
	}
}

// TestRunEndpointServesNonTorusFamilies is the tentpole's serving-surface
// acceptance check: rgg and custom scenarios submit, execute, cache, and
// replay through /v1/run exactly like torus ones, and a torus-only protocol
// on a non-torus family is a 400, not a crash or a cached error.
func TestRunEndpointServesNonTorusFamilies(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ring := &rbcast.GraphSpec{Nodes: 8, Edges: [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0},
	}}
	cases := []struct {
		name string
		req  RunRequest
	}{
		{"rgg", RunRequest{
			Config: rbcast.Config{Topology: rbcast.TopologyRGG, Nodes: 64, RGGRadius: 0.22, TopologySeed: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
		}},
		{"custom", RunRequest{
			Config: rbcast.Config{Topology: rbcast.TopologyCustom, Graph: ring, Protocol: rbcast.ProtocolCPA, T: 1, MaxRounds: 64, Value: 1},
		}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			resp, body := postJSON(t, ts, "/v1/run", tt.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Rbcast-Cache"); got != "miss" {
				t.Errorf("first request cache header = %q, want miss", got)
			}
			var rr RunResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Fatal(err)
			}
			want := (rbcast.Job{Config: tt.req.Config, Plan: tt.req.Plan}).Fingerprint()
			if rr.Fingerprint != want {
				t.Errorf("fingerprint %s, want %s", rr.Fingerprint, want)
			}
			if len(rr.Result.Decisions) == 0 || !rr.Result.Safe() {
				t.Errorf("served non-torus result is empty or unsafe: %+v", rr.Result)
			}
			resp2, body2 := postJSON(t, ts, "/v1/run", tt.req)
			if got := resp2.Header.Get("X-Rbcast-Cache"); got != "hit" {
				t.Errorf("second request cache header = %q, want hit", got)
			}
			if !bytes.Equal(body, body2) {
				t.Error("cached non-torus body differs from the original")
			}
		})
	}

	// A torus-only protocol on an rgg graph must be rejected up front.
	bad := cases[0].req
	bad.Config.Protocol = rbcast.ProtocolBV4
	bad.Config.T = 1
	resp, body := postJSON(t, ts, "/v1/run", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bv4-on-rgg: status %d (%s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "torus") {
		t.Errorf("bv4-on-rgg error %s does not name the required family", body)
	}
}

// reflectedResult is rbcast.Result without its JSON methods, so
// encoding/json encodes it field by field by reflection.
type reflectedResult rbcast.Result

// TestRunResponseBytesMatchReflection pins the hand-assembled /v1/run and
// /v1/cache/{fp} bodies to what writeJSON writes for a RunResponse whose
// Result encoding/json encodes by reflection: on a miss, on a hit and on a
// cache probe, for torus, RGG, custom and traced scenarios.
func TestRunResponseBytesMatchReflection(t *testing.T) {
	var mu sync.Mutex
	executed := map[string]rbcast.Result{}
	srv := New(Options{Runner: func(ctx context.Context, cfg rbcast.Config, plan rbcast.FaultPlan) (rbcast.Result, error) {
		res, err := rbcast.RunContext(ctx, cfg, plan)
		mu.Lock()
		executed[rbcast.Job{Config: cfg, Plan: plan}.Fingerprint()] = res
		mu.Unlock()
		return res, err
	}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	traced := testScenario()
	traced.Config.Trace = true
	ring := &rbcast.GraphSpec{Nodes: 6, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}}}
	cases := []struct {
		name string
		req  RunRequest
	}{
		{"torus", testScenario()},
		{"torus-flood", RunRequest{Config: rbcast.Config{Width: 24, Height: 24, Radius: 2, Protocol: rbcast.ProtocolFlood, Value: 1}}},
		{"rgg", RunRequest{Config: rbcast.Config{Topology: rbcast.TopologyRGG, Nodes: 48, RGGRadius: 0.25, TopologySeed: 3, Protocol: rbcast.ProtocolFlood, Value: 1}}},
		{"custom", RunRequest{Config: rbcast.Config{Topology: rbcast.TopologyCustom, Graph: ring, Protocol: rbcast.ProtocolCPA, T: 1, MaxRounds: 32, Value: 1}}},
		{"traced", traced},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			fp := rbcast.Job{Config: tt.req.Config, Plan: tt.req.Plan}.Fingerprint()
			miss, missBody := postJSON(t, ts, "/v1/run", tt.req)
			if miss.StatusCode != http.StatusOK || miss.Header.Get("X-Rbcast-Cache") != "miss" {
				t.Fatalf("first run: status %d, cache %q: %s", miss.StatusCode, miss.Header.Get("X-Rbcast-Cache"), missBody)
			}
			mu.Lock()
			res, ok := executed[fp]
			mu.Unlock()
			if !ok {
				t.Fatal("the run did not go through the runner")
			}
			want, err := json.Marshal(struct {
				Fingerprint string          `json:"fingerprint"`
				Result      reflectedResult `json:"result"`
			}{fp, reflectedResult(res)})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if !bytes.Equal(missBody, want) {
				t.Fatalf("miss body differs from the reflection encoding:\n got  %.300s\n want %.300s", missBody, want)
			}
			hit, hitBody := postJSON(t, ts, "/v1/run", tt.req)
			if hit.Header.Get("X-Rbcast-Cache") != "hit" || !bytes.Equal(hitBody, want) {
				t.Errorf("hit (cache %q) body differs from the miss body", hit.Header.Get("X-Rbcast-Cache"))
			}
			probe, probeBody := getBody(t, ts, "/v1/cache/"+fp)
			if probe.StatusCode != http.StatusOK || !bytes.Equal(probeBody, want) {
				t.Errorf("cache probe: status %d, body differs from the miss body", probe.StatusCode)
			}
			for _, resp := range []*http.Response{miss, hit, probe} {
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type %q, want application/json", ct)
				}
			}
		})
	}
}

// envelopeFaults rewrites the outcome of two marker scenarios so that the
// envelopes carry every optional field and error texts encoding/json has
// to escape: Plan.Seed 40 is cut by the job deadline (an error plus the
// partial result), Plan.Seed 41 fails.
func envelopeFaults(jobs []rbcast.Job, out []rbcast.BatchResult) {
	for i, j := range jobs {
		switch j.Plan.Seed {
		case 40:
			out[i].Err = fmt.Errorf("%w at <round 2> & after", rbcast.ErrDeadline)
		case 41:
			out[i] = rbcast.BatchResult{Err: errors.New("rejected <scenario> & \"value\" \u2028 here")}
		}
	}
}

// recordedRuns keeps every outcome a batch or sweep runner returned, by
// fingerprint, and the last sweep's stats.
type recordedRuns struct {
	mu    sync.Mutex
	runs  map[string]rbcast.BatchResult
	stats rbcast.SweepStats
}

func (r *recordedRuns) record(jobs []rbcast.Job, out []rbcast.BatchResult) {
	envelopeFaults(jobs, out)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.runs == nil {
		r.runs = make(map[string]rbcast.BatchResult)
	}
	for i, j := range jobs {
		r.runs[j.Fingerprint()] = out[i]
	}
}

// element is what the server makes of a recorded outcome: the result, or
// the error with the partial result when the deadline cut the run.
func (r *recordedRuns) element(fp string, cached bool) (res *reflectedResult, errText string, partial bool) {
	r.mu.Lock()
	br, ok := r.runs[fp]
	r.mu.Unlock()
	if !ok {
		panic("no recorded run for " + fp)
	}
	rr := reflectedResult(br.Result)
	switch {
	case br.Err == nil:
		return &rr, "", false
	case errors.Is(br.Err, rbcast.ErrDeadline) && !cached:
		return &rr, br.Err.Error(), true
	}
	return nil, br.Err.Error(), false
}

// envelopeCases are the scenarios the byte-identity tests serve: torus
// flood, BV4, RGG, custom, traced, and the two fault markers.
func envelopeCases() map[string]rbcast.Job {
	ring := &rbcast.GraphSpec{Nodes: 6, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}}}
	band := rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash, CrashRound: 2}
	traced := rbcast.Config{Width: 8, Height: 8, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1, Trace: true}
	bv4 := testScenario()
	partial := band
	partial.Seed = 40
	invalid := band
	invalid.Seed = 41
	return map[string]rbcast.Job{
		"torus-flood": {Config: rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1}, Plan: band},
		"bv4":         {Config: bv4.Config, Plan: bv4.Plan},
		"rgg":         {Config: rbcast.Config{Topology: rbcast.TopologyRGG, Nodes: 48, RGGRadius: 0.25, TopologySeed: 3, Protocol: rbcast.ProtocolFlood, Value: 1}},
		"custom":      {Config: rbcast.Config{Topology: rbcast.TopologyCustom, Graph: ring, Protocol: rbcast.ProtocolCPA, T: 1, MaxRounds: 32, Value: 1}},
		"traced":      {Config: traced, Plan: band},
		"partial":     {Config: rbcast.Config{Width: 12, Height: 12, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1}, Plan: partial},
		"invalid":     {Config: rbcast.Config{Width: 12, Height: 12, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 0}, Plan: invalid},
	}
}

// firstDiff reports the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got  %.300s\n want %.300s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestSweepStreamBytesMatchReflection pins the /v1/sweep body, whose
// element lines the envelope codec writes, to what json.Encoder writes for
// the header, for each element with its Result encoded by reflection, and
// for the trailer: for torus flood, BV4, RGG, custom and traced sweeps, a
// sweep with a deadline-cut partial element and a failed element whose
// error encoding/json escapes, and a repeat served from the cache.
func TestSweepStreamBytesMatchReflection(t *testing.T) {
	var rec recordedRuns
	srv := New(Options{SweepRunner: func(jobs []rbcast.Job, opts rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
		out, stats := rbcast.RunSweepJobs(jobs, opts)
		rec.record(jobs, out)
		rec.mu.Lock()
		rec.stats = stats
		rec.mu.Unlock()
		return out, stats
	}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type sweepLine struct {
		Index       int              `json:"index"`
		Fingerprint string           `json:"fingerprint"`
		Result      *reflectedResult `json:"result,omitempty"`
		Error       string           `json:"error,omitempty"`
		Cached      bool             `json:"cached,omitempty"`
		Partial     bool             `json:"partial,omitempty"`
	}
	jobs := envelopeCases()
	faults := jobs["partial"]
	faults.Plan.Seed = 0
	cases := []struct {
		name   string
		base   rbcast.Job
		axes   rbcast.SweepAxes
		cached bool
	}{
		{"torus-flood", jobs["torus-flood"], rbcast.SweepAxes{CrashRounds: []int{1, 2, 3}}, false},
		{"bv4", jobs["bv4"], rbcast.SweepAxes{Ts: []int{1, 2}}, false},
		{"rgg", jobs["rgg"], rbcast.SweepAxes{Ts: []int{0, 1}}, false},
		{"custom", jobs["custom"], rbcast.SweepAxes{Ts: []int{0, 1}}, false},
		{"traced", jobs["traced"], rbcast.SweepAxes{CrashRounds: []int{1, 2}}, false},
		{"partial-and-invalid", faults, rbcast.SweepAxes{Seeds: []int64{0, 40, 41}}, false},
		{"cached", jobs["torus-flood"], rbcast.SweepAxes{CrashRounds: []int{1, 2, 3}}, true},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			rec.mu.Lock()
			rec.stats = rbcast.SweepStats{}
			rec.mu.Unlock()
			resp, body := postJSON(t, ts, "/v1/sweep", SweepRequest{
				Base: RunRequest{Config: tt.base.Config, Plan: tt.base.Plan},
				Axes: tt.axes,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			elements, err := rbcast.SweepSpec{Base: tt.base, Axes: tt.axes}.Elements()
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.Encode(SweepHeader{Elements: len(elements)})
			for i, job := range elements {
				line := sweepLine{Index: i, Fingerprint: job.Fingerprint(), Cached: tt.cached}
				line.Result, line.Error, line.Partial = rec.element(line.Fingerprint, tt.cached)
				if err := enc.Encode(line); err != nil {
					t.Fatal(err)
				}
			}
			rec.mu.Lock()
			enc.Encode(SweepTrailer{Stats: rec.stats})
			rec.mu.Unlock()
			if !bytes.Equal(body, want.Bytes()) {
				t.Fatalf("sweep body differs from the reflection encoding at %s", firstDiff(body, want.Bytes()))
			}
			if tt.name == "partial-and-invalid" && (!bytes.Contains(body, []byte(`"partial":true`)) || !bytes.Contains(body, []byte(`\u003cround 2\u003e \u0026`))) {
				t.Errorf("fault markers missing from the body: %.400s", body)
			}
		})
	}
}

// TestJobStatusBytesMatchReflection pins the GET /v1/jobs/{id} body, which
// the envelope codec writes, to what writeJSON writes for a JobStatus whose
// Results encoding/json encodes by reflection: a batch of torus flood,
// BV4, RGG, custom and traced elements, a within-batch duplicate, a
// deadline-cut partial element and a failed element whose error
// encoding/json escapes; a second batch served from the cache; and a
// running job with no results.
func TestJobStatusBytesMatchReflection(t *testing.T) {
	var rec recordedRuns
	release := make(chan struct{})
	srv := New(Options{BatchRunner: func(jobs []rbcast.Job, opts rbcast.BatchOptions) []rbcast.BatchResult {
		if jobs[0].Plan.Seed == 99 {
			<-release
		}
		out := rbcast.RunBatch(jobs, opts)
		rec.record(jobs, out)
		return out
	}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type jobResult struct {
		Fingerprint string           `json:"fingerprint"`
		Result      *reflectedResult `json:"result,omitempty"`
		Error       string           `json:"error,omitempty"`
		Cached      bool             `json:"cached,omitempty"`
		Partial     bool             `json:"partial,omitempty"`
	}
	type jobStatus struct {
		ID      string      `json:"id"`
		State   string      `json:"state"`
		Jobs    int         `json:"jobs"`
		Results []jobResult `json:"results,omitempty"`
	}
	check := func(t *testing.T, id string, want jobStatus) {
		t.Helper()
		resp, body := getBody(t, ts, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("status %d, Content-Type %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
		wantBody, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		wantBody = append(wantBody, '\n')
		if !bytes.Equal(body, wantBody) {
			t.Fatalf("job body differs from the reflection encoding:\n got  %.400s\n want %.400s", body, wantBody)
		}
	}
	cases := envelopeCases()
	names := []string{"torus-flood", "bv4", "rgg", "custom", "traced", "torus-flood", "partial", "invalid"}
	first := make([]RunRequest, len(names))
	for i, name := range names {
		first[i] = RunRequest{Config: cases[name].Config, Plan: cases[name].Plan}
	}
	second := []RunRequest{first[0], first[1]}

	t.Run("running", func(t *testing.T) {
		blocked := testScenario()
		blocked.Plan.Seed = 99
		ack := submitBatch(t, ts, []RunRequest{blocked})
		check(t, ack.ID, jobStatus{ID: ack.ID, State: "running", Jobs: 1})
		close(release)
		pollJob(t, ts, ack.ID)
	})
	for _, batch := range []struct {
		name string
		reqs []RunRequest
	}{{"fresh", first}, {"cached", second}} {
		t.Run(batch.name, func(t *testing.T) {
			ack := submitBatch(t, ts, batch.reqs)
			pollJob(t, ts, ack.ID)
			want := jobStatus{ID: ack.ID, State: "done", Jobs: len(batch.reqs)}
			seen := map[string]bool{}
			for _, req := range batch.reqs {
				fp := rbcast.Job{Config: req.Config, Plan: req.Plan}.Fingerprint()
				cached := batch.name == "cached" || seen[fp]
				seen[fp] = true
				el := jobResult{Fingerprint: fp, Cached: cached}
				el.Result, el.Error, el.Partial = rec.element(fp, batch.name == "cached")
				want.Results = append(want.Results, el)
			}
			check(t, ack.ID, want)
		})
	}
}
