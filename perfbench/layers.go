package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	rbcast "repro"
	"repro/client"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/topology"
)

// tap is the traced run's instrumentation, all of it outside the program:
// a timing http.Handler around Server.ServeHTTP, timing runners around
// rbcast.RunContext/RunBatch/RunSweepJobs, and a counting RoundTripper
// under the client. Disarmed, every wrapper is a single atomic load and a
// direct call.
type tap struct {
	armed atomic.Bool

	mu sync.Mutex
	// handler: total time and per-request-id durations.
	handlerTime time.Duration
	handlerBy   map[string]time.Duration
	// runners: calls and wall time per entry point; prepareTime is the
	// /v1/run time outside Result.Metrics.Wall.
	runCalls, batchCalls, sweepCalls int64
	runTime, batchTime, sweepTime    time.Duration
	prepareTime                      time.Duration
	// runnerBy is each request's (or batch job's) runner time, keyed by
	// its flight-recorder trace id.
	runnerBy map[string]time.Duration
	// engineTime is the engine time requests waited for (see runner
	// wrappers); executions book what the simulations report.
	engineTime        time.Duration
	nodeRounds, evals int64
	evalCommits       int64
	protoWall         map[rbcast.Protocol]time.Duration
	protoRounds       map[rbcast.Protocol]int64
	sweep             rbcast.SweepStats
	sweeps            int64

	// round-trip counters.
	retryable, non2xx, respBytes atomic.Int64
}

func newTap() *tap {
	return &tap{
		handlerBy:   make(map[string]time.Duration),
		runnerBy:    make(map[string]time.Duration),
		protoWall:   make(map[rbcast.Protocol]time.Duration),
		protoRounds: make(map[rbcast.Protocol]int64),
	}
}

// handler wraps the daemon's ServeHTTP with a per-request timer.
func (t *tap) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.armed.Load() {
			next.ServeHTTP(w, r)
			return
		}
		begin := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(begin)
		id := w.Header().Get("X-Request-Id")
		t.mu.Lock()
		t.handlerTime += d
		t.handlerBy[id] += d
		t.mu.Unlock()
	})
}

// execution books one simulation's counters; scalar executions also feed
// the per-protocol cost per node-round. Callers book engine time.
func (t *tap) execution(p rbcast.Protocol, res rbcast.Result, scalar bool) {
	rounds := int64(res.Rounds) * int64(len(res.Decisions))
	t.evals += int64(res.Metrics.EvidenceEvals)
	if res.Metrics.EvidenceEvals > 0 {
		t.evalCommits += int64(res.Metrics.Commits)
	}
	if scalar {
		t.nodeRounds += rounds
		t.protoWall[p] += res.Metrics.Wall
		t.protoRounds[p] += rounds
	}
}

func (t *tap) run(ctx context.Context, cfg rbcast.Config, plan rbcast.FaultPlan) (rbcast.Result, error) {
	if !t.armed.Load() {
		return rbcast.RunContext(ctx, cfg, plan)
	}
	begin := time.Now()
	res, err := rbcast.RunContext(ctx, cfg, plan)
	d := time.Since(begin)
	tr, _ := obs.SpanFromContext(ctx)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runCalls++
	t.runTime += d
	t.prepareTime += d - res.Metrics.Wall
	t.runnerBy[tr.ID()] += d
	if err == nil {
		t.engineTime += res.Metrics.Wall
		t.execution(cfg.Protocol, res, true)
	}
	return res, err
}

func (t *tap) batch(jobs []rbcast.Job, opts rbcast.BatchOptions) []rbcast.BatchResult {
	if !t.armed.Load() {
		return rbcast.RunBatch(jobs, opts)
	}
	begin := time.Now()
	out := rbcast.RunBatch(jobs, opts)
	d := time.Since(begin)
	tr, _ := obs.SpanFromContext(opts.Context)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.batchCalls++
	t.batchTime += d
	t.runnerBy[tr.ID()] += d
	// Elements run in parallel on the pool: the engine time the request
	// waits for is the pool's wall time, not the sum of element walls.
	t.engineTime += d
	for i, br := range out {
		if br.Err == nil {
			t.execution(jobs[i].Config.Protocol, br.Result, true)
		}
	}
	return out
}

func (t *tap) sweepRun(jobs []rbcast.Job, opts rbcast.BatchOptions) ([]rbcast.BatchResult, rbcast.SweepStats) {
	if !t.armed.Load() {
		return rbcast.RunSweepJobs(jobs, opts)
	}
	begin := time.Now()
	out, st := rbcast.RunSweepJobs(jobs, opts)
	d := time.Since(begin)
	tr, _ := obs.SpanFromContext(opts.Context)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepCalls++
	t.sweepTime += d
	t.runnerBy[tr.ID()] += d
	// A forked result's Wall counts from its family's start, so summing
	// them would count shared prefixes twice; book the sweep's wall time.
	t.engineTime += d
	t.sweeps++
	t.sweep.Elements += st.Elements
	t.sweep.Simulations += st.Simulations
	t.sweep.Forks += st.Forks
	t.sweep.SharedResults += st.SharedResults
	t.sweep.NodeRounds += st.NodeRounds
	t.sweep.ScalarNodeRounds += st.ScalarNodeRounds
	t.nodeRounds += st.NodeRounds
	// Elements sharing an execution share one Result value; count each
	// execution once, identified by its Decisions map.
	seen := make(map[uintptr]bool)
	for i, br := range out {
		if br.Err != nil {
			continue
		}
		p := reflect.ValueOf(br.Result.Decisions).Pointer()
		if !seen[p] {
			seen[p] = true
			t.execution(jobs[i].Config.Protocol, br.Result, false)
		}
	}
	return out, st
}

// RoundTrip counts retryable failures, non-2xx answers and response
// bytes.
func (t *tap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.retryable.Add(1)
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		t.retryable.Add(1)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		t.non2xx.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.respBytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// encodeTime re-encodes every received element as the daemon's own
// response type and returns the time json.Marshal took.
func encodeTime(kind opKind, got []element) time.Duration {
	var total time.Duration
	for i, el := range got {
		var v any
		switch kind {
		case opRun:
			v = server.RunResponse{Fingerprint: el.fingerprint, Result: *el.result}
		case opSweep:
			v = server.SweepElement{Index: i, Fingerprint: el.fingerprint, Result: el.result, Cached: el.cached}
		default:
			v = server.JobResult{Fingerprint: el.fingerprint, Result: el.result, Cached: el.cached}
		}
		begin := time.Now()
		if _, err := json.Marshal(v); err != nil {
			panic(fmt.Sprintf("perfbench: re-encoding a served result: %v", err))
		}
		total += time.Since(begin)
	}
	return total
}

// networkKey names the network a job runs on.
func networkKey(j rbcast.Job) string {
	c := j.Config
	switch c.Topology {
	case rbcast.TopologyRGG:
		return fmt.Sprintf("rgg/%d/%v/%d", c.Nodes, c.RGGRadius, c.TopologySeed)
	case rbcast.TopologyCustom:
		return fmt.Sprintf("custom/%d/%v", c.Graph.Nodes, c.Graph.Edges)
	}
	return fmt.Sprintf("torus/%dx%d/r%d/m%d", c.Width, c.Height, c.Radius, c.Metric)
}

// topologyBuilds is the number of distinct networks rebuilt cold for
// topology.build_ms (the first ones in key order).
const topologyBuilds = 64

// buildNetworks times a cold constructor call per distinct network,
// outside the timed window, and returns the mean in milliseconds.
func buildNetworks(nets map[string]rbcast.Job) (float64, error) {
	keys := make([]string, 0, len(nets))
	for k := range nets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > topologyBuilds {
		keys = keys[:topologyBuilds]
	}
	if len(keys) == 0 {
		return 0, nil
	}
	var total time.Duration
	for _, k := range keys {
		c := nets[k].Config
		begin := time.Now()
		var err error
		switch c.Topology {
		case rbcast.TopologyRGG:
			_, err = topology.NewGeometric(c.Nodes, c.RGGRadius, c.TopologySeed)
		case rbcast.TopologyCustom:
			_, err = topology.NewCustom(c.Graph.Nodes, c.Graph.Edges)
		default:
			m := grid.Linf
			if c.Metric == rbcast.MetricL2 {
				m = grid.L2
			}
			_, err = topology.New(grid.Torus{W: c.Width, H: c.Height}, m, c.Radius)
		}
		total += time.Since(begin)
		if err != nil {
			return 0, fmt.Errorf("building %s: %w", k, err)
		}
	}
	return ms(total) / float64(len(keys)), nil
}

// crossCheck compares the tap's handler and runner times with the flight
// recorder's request and engine durations for the same request ids.
type crossCheck struct {
	handlerOurs, handlerRec float64
	engineOurs, engineRec   float64
}

// add matches the recorder's retained timelines against the tap.
func (x *crossCheck) add(t *tap, dbg client.DebugRequests) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tl := range dbg.Requests {
		if d, ok := t.handlerBy[tl.ID]; ok {
			x.handlerOurs += d.Seconds()
			x.handlerRec += tl.DurationSeconds
		}
		d, ok := t.runnerBy[tl.ID]
		if !ok {
			continue
		}
		for _, sp := range tl.Spans {
			if sp.Name == "engine" {
				x.engineOurs += d.Seconds()
				x.engineRec += sp.DurationSeconds
				break
			}
		}
	}
}

// divergence is recorder/ours − 1, or 0 without matched requests.
func divergence(ours, rec float64) float64 {
	if ours == 0 {
		return 0
	}
	return rec/ours - 1
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// protocols lists the protocol families engine.ns_per_node_round covers.
var protocols = []rbcast.Protocol{
	rbcast.ProtocolFlood, rbcast.ProtocolCPA, rbcast.ProtocolBV4,
	rbcast.ProtocolBV2, rbcast.ProtocolBracha, rbcast.ProtocolBrachaAuth,
}
