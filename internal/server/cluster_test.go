package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	rbcast "repro"
	"repro/internal/cluster"
)

// fleetNode is one member of an in-process test fleet.
type fleetNode struct {
	srv  *Server
	url  string
	hs   *http.Server
	runs *atomic.Int32 // executions of this node's Runner
}

// startFleet boots n clustered servers on real loopback listeners (the
// peer URLs must be known before New, so httptest.NewServer's
// construct-then-learn-the-URL order cannot be used). mutate, when
// non-nil, adjusts each node's Options before construction.
func startFleet(t *testing.T, n int, mutate func(i int, o *Options)) []*fleetNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		runs := &atomic.Int32{}
		opts := Options{
			Self:  urls[i],
			Peers: urls,
			Runner: func(ctx context.Context, cfg rbcast.Config, plan rbcast.FaultPlan) (rbcast.Result, error) {
				runs.Add(1)
				return rbcast.RunContext(ctx, cfg, plan)
			},
		}
		if mutate != nil {
			mutate(i, &opts)
		}
		srv := New(opts)
		hs := &http.Server{Handler: srv}
		go hs.Serve(lns[i])
		nodes[i] = &fleetNode{srv: srv, url: urls[i], hs: hs, runs: runs}
		t.Cleanup(func() { hs.Close() })
	}
	return nodes
}

// ownedScenario returns a scenario whose fingerprint the fleet's ring
// assigns to nodes[want], found by scanning a family of tiny distinct
// scenarios.
func ownedScenario(t *testing.T, nodes []*fleetNode, want int) (RunRequest, string) {
	t.Helper()
	ring := nodes[0].srv.ring
	for h := 0; h < 64; h++ {
		req := RunRequest{
			Config: rbcast.Config{Width: 16, Height: 8 + h, Radius: 1, Protocol: rbcast.ProtocolBV4, T: 2, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
		}
		fp := (rbcast.Job{Config: req.Config, Plan: req.Plan}).Fingerprint()
		if ring.Owner(fp) == nodes[want].url {
			return req, fp
		}
	}
	t.Fatal("no scenario found owned by the requested node")
	return RunRequest{}, ""
}

// postRun posts a run to one node and returns the response and body.
func postRun(t *testing.T, url string, req RunRequest) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse // tests inspect 307s, not follow them
	}}
	resp, err := hc.Post(url+"/v1/run", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// probeCount counts how many fleet members hold fp resident.
func probeCount(t *testing.T, nodes []*fleetNode, fp string) int {
	t.Helper()
	n := 0
	for _, node := range nodes {
		resp, err := http.Get(node.url + "/v1/cache/" + fp)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			n++
		case http.StatusNotFound:
		default:
			t.Fatalf("cache probe on %s answered %d", node.url, resp.StatusCode)
		}
	}
	return n
}

func metricValue(t *testing.T, url, re string) int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(re).FindSubmatch(data)
	if m == nil {
		t.Fatalf("metric %s missing from %s/metrics", re, url)
	}
	v, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestClusterOwnerRouting: a run posted to a non-owner is proxied to the
// owner — only the owner executes and caches it, the proxying node counts
// the proxy, and the response says who served it.
func TestClusterOwnerRouting(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	req, fp := ownedScenario(t, nodes, 2)
	var nonOwner int
	for i := range nodes {
		if i != 2 {
			nonOwner = i
			break
		}
	}

	resp, body := postRun(t, nodes[nonOwner].url, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied run answered %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Rbcast-Served-By"); got != nodes[2].url {
		t.Errorf("X-Rbcast-Served-By = %q, want owner %q", got, nodes[2].url)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Fingerprint != fp {
		t.Errorf("fingerprint = %s, want %s", rr.Fingerprint, fp)
	}
	if got := nodes[2].runs.Load(); got != 1 {
		t.Errorf("owner executed %d times, want 1", got)
	}
	for i, node := range nodes {
		if i != 2 && node.runs.Load() != 0 {
			t.Errorf("non-owner %d executed %d times, want 0", i, node.runs.Load())
		}
	}
	if got := probeCount(t, nodes, fp); got != 1 {
		t.Errorf("fingerprint resident on %d nodes, want exactly the owner", got)
	}
	if got := metricValue(t, nodes[nonOwner].url,
		fmt.Sprintf(`rbcastd_peer_proxy_total\{peer="%s",outcome="ok"\} (\d+)`, regexp.QuoteMeta(nodes[2].url))); got != 1 {
		t.Errorf("proxy ok counter = %d, want 1", got)
	}

	// The same run posted to the owner directly is now a cache hit there.
	resp2, _ := postRun(t, nodes[2].url, req)
	if got := resp2.Header.Get("X-Rbcast-Cache"); got != "hit" {
		t.Errorf("owner re-serve cache header = %q, want hit", got)
	}
	if got := nodes[2].runs.Load(); got != 1 {
		t.Errorf("owner executed %d times after re-serve, want still 1", got)
	}
}

// TestClusterRedirect: with Options.Redirect a non-owner answers 307 with
// the owner's run URL instead of proxying.
func TestClusterRedirect(t *testing.T) {
	nodes := startFleet(t, 3, func(i int, o *Options) { o.Redirect = true })
	req, _ := ownedScenario(t, nodes, 1)
	resp, _ := postRun(t, nodes[0].url, req)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("redirect-mode non-owner answered %d, want 307", resp.StatusCode)
	}
	if got := resp.Header.Get("Location"); got != nodes[1].url+"/v1/run" {
		t.Errorf("Location = %q, want %q", got, nodes[1].url+"/v1/run")
	}
	if nodes[0].runs.Load() != 0 || nodes[1].runs.Load() != 0 {
		t.Error("redirect answered but something executed")
	}
}

// TestClusterPeerFill: an owner that misses locally probes its siblings
// and serves their cached result without re-simulating — the restarted
// node warming from the fleet.
func TestClusterPeerFill(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	req, fp := ownedScenario(t, nodes, 0)

	// A sibling holds the result (it computed it while node 0 was down).
	res, err := rbcast.Run(req.Config, req.Plan)
	if err != nil {
		t.Fatal(err)
	}
	nodes[1].srv.cache.Put(fp, res)

	resp, body := postRun(t, nodes[0].url, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner answered %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Rbcast-Cache"); got != "peer" {
		t.Errorf("cache header = %q, want peer", got)
	}
	if got := nodes[0].runs.Load(); got != 0 {
		t.Errorf("owner simulated %d times despite a sibling holding the result", got)
	}
	if got := metricValue(t, nodes[0].url,
		`rbcastd_peer_cache_fill_total\{outcome="hit"\} (\d+)`); got != 1 {
		t.Errorf("fill hit counter = %d, want 1", got)
	}
	// The fill is now resident locally: the next request is a plain hit
	// with no further probes.
	resp2, _ := postRun(t, nodes[0].url, req)
	if got := resp2.Header.Get("X-Rbcast-Cache"); got != "hit" {
		t.Errorf("post-fill cache header = %q, want hit", got)
	}
}

// TestClusterProxyFallback: when the owner is unreachable the non-owner
// executes locally instead of failing the request, counts the proxy
// error, and marks the peer down.
func TestClusterProxyFallback(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	req, fp := ownedScenario(t, nodes, 2)
	nodes[2].hs.Close() // owner goes dark

	var nonOwner int
	for i := range nodes {
		if i != 2 {
			nonOwner = i
			break
		}
	}
	resp, body := postRun(t, nodes[nonOwner].url, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback run answered %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Rbcast-Served-By"); got != nodes[nonOwner].url {
		t.Errorf("X-Rbcast-Served-By = %q, want the fallback node %q", got, nodes[nonOwner].url)
	}
	if got := nodes[nonOwner].runs.Load(); got != 1 {
		t.Errorf("fallback node executed %d times, want 1", got)
	}
	ownerURL := regexp.QuoteMeta(nodes[2].url)
	if got := metricValue(t, nodes[nonOwner].url,
		fmt.Sprintf(`rbcastd_peer_proxy_total\{peer="%s",outcome="error"\} (\d+)`, ownerURL)); got != 1 {
		t.Errorf("proxy error counter = %d, want 1", got)
	}
	if got := metricValue(t, nodes[nonOwner].url,
		fmt.Sprintf(`rbcastd_peer_up\{peer="%s"\} (\d+)`, ownerURL)); got != 0 {
		t.Errorf("peer_up for the dead owner = %d, want 0", got)
	}
	// The fallback result is cached where it was computed, so the next
	// request to the same node is a hit even with the owner still dark.
	resp2, _ := postRun(t, nodes[nonOwner].url, req)
	if got := resp2.Header.Get("X-Rbcast-Cache"); got != "hit" {
		t.Errorf("fallback re-serve cache header = %q, want hit", got)
	}
	_ = fp
}

// TestClusterForwardLoopGuard: a request that already carries the
// forwarded marker executes locally no matter what the ring says — one
// hop can never become a loop even if rings disagree during a rolling
// membership change.
func TestClusterForwardLoopGuard(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	req, _ := ownedScenario(t, nodes, 2)
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, nodes[0].url+"/v1/run", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardedHeader, nodes[1].url)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded run answered %d", resp.StatusCode)
	}
	if got := nodes[0].runs.Load(); got != 1 {
		t.Errorf("forward target executed %d times, want 1 (no re-forward)", got)
	}
	if got := nodes[2].runs.Load(); got != 0 {
		t.Errorf("ring owner executed %d times for a forwarded request, want 0", got)
	}
}

// TestCacheProbeRoute: the internal probe route serves residents, 404s
// misses, and never perturbs the cache counters.
func TestCacheProbeRoute(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	req, fp := ownedScenario(t, nodes, 0)
	resp, err := http.Get(nodes[0].url + "/v1/cache/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("probe for an absent fingerprint answered %d, want 404", resp.StatusCode)
	}
	if _, body := postRun(t, nodes[0].url, req); len(body) == 0 {
		t.Fatal("seed run failed")
	}
	resp2, err := http.Get(nodes[0].url + "/v1/cache/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("probe for a resident fingerprint answered %d, want 200", resp2.StatusCode)
	}
	var rr RunResponse
	if err := json.NewDecoder(resp2.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Fingerprint != fp || rr.Result.Rounds == 0 {
		t.Errorf("probe body = %+v, want the cached run", rr.Fingerprint)
	}
}

// TestCheckPeers: the active health sweep marks live siblings up and dead
// ones down.
func TestCheckPeers(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	nodes[1].hs.Close()
	nodes[0].srv.CheckPeers(context.Background())
	if got := metricValue(t, nodes[0].url,
		fmt.Sprintf(`rbcastd_peer_up\{peer="%s"\} (\d+)`, regexp.QuoteMeta(nodes[1].url))); got != 0 {
		t.Errorf("dead sibling reported up")
	}
	if got := metricValue(t, nodes[0].url,
		fmt.Sprintf(`rbcastd_peer_up\{peer="%s"\} (\d+)`, regexp.QuoteMeta(nodes[2].url))); got != 1 {
		t.Errorf("live sibling reported down")
	}
}

func TestValidateCluster(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	if err := ValidateCluster("http://a:1", peers); err != nil {
		t.Errorf("valid membership rejected: %v", err)
	}
	if err := ValidateCluster("", peers); err == nil {
		t.Error("missing self accepted")
	}
	if err := ValidateCluster("http://d:1", peers); err == nil {
		t.Error("self outside the fleet accepted")
	}
	if err := ValidateCluster("http://a:1", []string{"http://a:1", "http://a:1"}); err == nil {
		t.Error("duplicate peers accepted")
	}
	if err := ValidateCluster("http://a:1", nil); err == nil {
		t.Error("empty fleet accepted")
	}
}

// handBuiltFleet reserves three listeners whose handlers the test installs
// with serve, and picks a scenario the first one owns. order lists the two
// siblings in the owner's probe order.
func handBuiltFleet(t *testing.T) (urls []string, req RunRequest, fp string, order []string, serve func(url string, h http.Handler)) {
	t.Helper()
	lns := make([]net.Listener, 3)
	urls = make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	ring, err := cluster.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; fp == "" || ring.Owner(fp) != urls[0]; h++ {
		req = otherScenario(h)
		fp = rbcast.Job{Config: req.Config, Plan: req.Plan}.Fingerprint()
	}
	serve = func(url string, h http.Handler) {
		hs := &http.Server{Handler: h}
		go hs.Serve(lns[slices.Index(urls, url)])
		t.Cleanup(func() { hs.Close() })
	}
	return urls, req, fp, ring.Successors(fp, 3)[1:], serve
}

// TestClusterPeerFillRejectsWrongFingerprint: a sibling that answers a
// cache probe with another scenario's fingerprint is a peer error, not a
// fill. The owner counts it, moves on to the next sibling in ring order,
// and fills from the one that answers for the probed fingerprint.
func TestClusterPeerFillRejectsWrongFingerprint(t *testing.T) {
	urls, req, fp, order, serve := handBuiltFleet(t)
	wrong := otherScenario(100)
	wrongRes, err := rbcast.Run(wrong.Config, wrong.Plan)
	if err != nil {
		t.Fatal(err)
	}
	serve(order[0], http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, RunResponse{Fingerprint: rbcast.Job{Config: wrong.Config, Plan: wrong.Plan}.Fingerprint(), Result: wrongRes})
	}))
	res, err := rbcast.Run(req.Config, req.Plan)
	if err != nil {
		t.Fatal(err)
	}
	holder := New(Options{Self: order[1], Peers: urls})
	holder.cache.Put(fp, res)
	serve(order[1], holder)
	var runs atomic.Int32
	owner := New(Options{Self: urls[0], Peers: urls, Runner: func(ctx context.Context, cfg rbcast.Config, plan rbcast.FaultPlan) (rbcast.Result, error) {
		runs.Add(1)
		return rbcast.RunContext(ctx, cfg, plan)
	}})
	serve(urls[0], owner)

	resp, body := postRun(t, urls[0], req)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Rbcast-Cache") != "peer" {
		t.Fatalf("owner answered %d, cache %q: %.200s", resp.StatusCode, resp.Header.Get("X-Rbcast-Cache"), body)
	}
	var got RunResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != fp || !reflect.DeepEqual(got.Result, res) {
		t.Errorf("owner served fingerprint %.12s with %d decisions, want %.12s with the holder's result",
			got.Fingerprint, len(got.Result.Decisions), fp)
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("owner simulated %d times despite a sibling holding the result", n)
	}
	for outcome, want := range map[string]int{"error": 1, "hit": 1, "miss": 0} {
		if got := metricValue(t, urls[0], `rbcastd_peer_cache_fill_total\{outcome="`+outcome+`"\} (\d+)`); got != want {
			t.Errorf("fill %s counter = %d, want %d", outcome, got, want)
		}
	}
}

// TestClusterPeerFillBoundsBody: a sibling whose cache-probe answer runs
// past the daemon's body cap is a peer error even when the bytes would
// decode — here a valid answer padded with whitespace. The owner counts it,
// probes the next sibling (a clean miss) and executes locally.
func TestClusterPeerFillBoundsBody(t *testing.T) {
	urls, req, fp, order, serve := handBuiltFleet(t)
	res, err := rbcast.Run(req.Config, req.Plan)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(RunResponse{Fingerprint: fp, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	serve(order[0], http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		pad := bytes.Repeat([]byte{' '}, 64<<10)
		for left := maxBodyBytes + 1 - len(body); left > 0; left -= len(pad) {
			w.Write(pad[:min(left, len(pad))])
		}
	}))
	serve(order[1], New(Options{Self: order[1], Peers: urls}))
	var runs atomic.Int32
	serve(urls[0], New(Options{Self: urls[0], Peers: urls, Runner: func(ctx context.Context, cfg rbcast.Config, plan rbcast.FaultPlan) (rbcast.Result, error) {
		runs.Add(1)
		return rbcast.RunContext(ctx, cfg, plan)
	}}))

	resp, got := postRun(t, urls[0], req)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Rbcast-Cache") != "miss" {
		t.Fatalf("owner answered %d, cache %q: %.200s", resp.StatusCode, resp.Header.Get("X-Rbcast-Cache"), got)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("owner simulated %d times, want 1 local execution", n)
	}
	for outcome, want := range map[string]int{"error": 1, "hit": 0, "miss": 1} {
		if got := metricValue(t, urls[0], `rbcastd_peer_cache_fill_total\{outcome="`+outcome+`"\} (\d+)`); got != want {
			t.Errorf("fill %s counter = %d, want %d", outcome, got, want)
		}
	}
}
