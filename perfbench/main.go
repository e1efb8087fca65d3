// Command perfbench is the served-path benchmark: it loads an in-process
// rbcastd over loopback HTTP with closed-loop clients built on the client
// package, checks every response, and prints end-to-end metrics (untraced
// run) or per-layer metrics (traced run). See README.md.
//
//	sh perfbench/run.sh --workload run-miss --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/client"
)

// setupProbes is how many child processes each measure one set-up;
// setup_s is their median.
const setupProbes = 5

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: run-miss, run-mixed or grid")
		seed    = flag.Uint64("seed", 1, "workload seed; every request is generated from it")
		seconds = flag.Int("seconds", 30, "measured window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics (untraced); 1: per-layer metrics (traced)")
		commit  = flag.String("commit", "unknown", "source revision, stamped into the output")
		probe   = flag.Bool("setup-probe", false, "internal: set up the workload's daemon, print \"ready\" and exit")
	)
	flag.Parse()
	w, err := newWorkload(*name, *seed)
	if err == nil && (*trace != 0 && *trace != 1) {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	clients := runtime.NumCPU()

	if *probe {
		if _, _, err := setUp(ctx, w, *seed, clients, nil); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
			return 1
		}
		// The parent's clock stops at this line; exiting stops the daemon.
		fmt.Println("ready")
		return 0
	}

	b := &bench{workload: *name, seed: *seed, seconds: *seconds, clients: clients, w: w}
	var res result
	if *trace == 0 {
		res, err = b.untraced(ctx)
	} else {
		res, err = b.traced(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	stamp := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"cpu_model": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": *commit, "clients": clients, "details": res.details,
	}
	line, _ := json.Marshal(stamp)
	fmt.Printf("# perfbench %s\n", line)
	res.print()
	return 0
}

// bench is one invocation's configuration.
type bench struct {
	workload string
	seed     uint64
	seconds  int
	clients  int
	w        workload
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line plus the stamped details.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	details   map[string]any
	order     []string
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

// print writes a readable table to standard error and the JSON line last
// on standard output.
func (r *result) print() {
	for _, n := range r.order {
		m := r.Metrics[n]
		fmt.Fprintf(os.Stderr, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
}

// setUp starts a daemon and sends the workload's warm-up requests through
// closed-loop clients. t (nil: untraced) instruments the daemon.
func setUp(ctx context.Context, w workload, seed uint64, clients int, t *tap) (*daemon, *client.Client, error) {
	d, err := startDaemon(ctx, t)
	if err != nil {
		return nil, nil, err
	}
	cl := client.New(d.url, client.Options{})
	warm := w.warmup()
	var next atomic.Int64
	l := &loop{seed: seed, clients: clients, cl: cl}
	got := l.run(ctx, func() (int, op, bool) {
		i := int(next.Add(1) - 1)
		if i >= len(warm) {
			return 0, op{}, false
		}
		return i, warm[i], true
	}, time.Now().Add(time.Hour))
	if got.failed > 0 {
		d.stop()
		return nil, nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", got.failed, got.ops, got.errs)
	}
	return d, cl, nil
}

// probeSetups runs setupProbes child processes, each timed from start to
// its "ready" line (process start → daemon healthy → warm-up done), and
// returns the durations in seconds.
func (b *bench) probeSetups(ctx context.Context) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, exe, "-setup-probe", "-workload", b.workload,
			"-seed", strconv.FormatUint(b.seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		begin := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		elapsed := time.Since(begin)
		werr := cmd.Wait()
		if rerr != nil || strings.TrimSpace(line) != "ready" || werr != nil {
			return nil, fmt.Errorf("setup probe %d: %q %v %v", i, line, rerr, werr)
		}
		out = append(out, elapsed.Seconds())
	}
	return out, nil
}

// timed returns the shared timed-stream source.
func (b *bench) timed(next *atomic.Int64) func() (int, op, bool) {
	return func() (int, op, bool) {
		i := int(next.Add(1) - 1)
		return i, b.w.at(i), true
	}
}

// snapshot is process-wide counters read around a window.
type snapshot struct {
	mallocs, numGC, pauseNs uint64
	cpu                     time.Duration
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	return snapshot{mallocs: ms.Mallocs, numGC: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs,
		cpu: tv(ru.Utime) + tv(ru.Stime)}
}

// retainedHeapMiB is the live heap after forced collections. The second
// cycle empties the sync.Pool victim caches the first one filled.
func retainedHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced(ctx context.Context) (result, error) {
	setups, err := b.probeSetups(ctx)
	if err != nil {
		return result{}, err
	}
	d, cl, err := setUp(ctx, b.w, b.seed, b.clients, nil)
	if err != nil {
		return result{}, err
	}
	heap := retainedHeapMiB()
	var next atomic.Int64
	l := &loop{seed: b.seed, clients: b.clients, cl: cl, sample: true}
	s0 := takeSnapshot()
	t := l.run(ctx, b.timed(&next), time.Now().Add(time.Duration(b.seconds)*time.Second))
	s1 := takeSnapshot()
	if err := d.stop(); err != nil {
		return result{}, fmt.Errorf("stopping daemon: %w", err)
	}
	var r result
	b.judge(&r, t)
	el := float64(max(t.elements, 1))
	r.set("elements_per_s", "1/s", float64(t.elements)/t.elapsed.Seconds())
	r.set("latency_p50_ms", "ms", ms(quantile(t.latencies, 0.50)))
	r.set("latency_p95_ms", "ms", ms(quantile(t.latencies, 0.95)))
	r.set("cpu_ms_per_element", "ms", ms(s1.cpu-s0.cpu)/el)
	r.set("allocs_per_element", "count", float64(s1.mallocs-s0.mallocs)/el)
	r.set("retained_heap_mib", "MiB", heap)
	r.set("setup_s", "s", median(setups))
	r.details["setup_s_samples"] = setups
	return r, nil
}

// judge fills the correctness fields and the common details from a tally:
// it re-runs the sampled responses in-process.
func (b *bench) judge(r *result, t *tally) {
	bad, why := recheck(t.samples)
	r.Attempted = t.ops
	r.Failed = t.failed + bad
	r.Correct = r.Failed == 0 && t.ops > 0
	r.details = map[string]any{
		"ops": t.ops, "elements": t.elements, "latency_samples": len(t.latencies),
		"window_s": t.elapsed.Seconds(), "rechecked": len(t.samples), "recheck_mismatches": bad,
	}
	if b.workload == "run-mixed" {
		r.details["first_seen"] = t.fresh
		r.details["first_seen_share"] = ratio(float64(t.fresh), float64(t.ops))
		r.details["warm_keys"] = b.w.(*runMixed).warmKeys()
	}
	if errs := append(t.errs, why...); len(errs) > 0 {
		r.details["errors"] = errs
		fmt.Fprintln(os.Stderr, "perfbench: failures:", strings.Join(errs, "; "))
	}
}

// traced measures the per-layer metrics. The window alternates untraced
// and traced slices (U T U T) on one daemon; layer figures come from the
// traced slices, trace_overhead from the elements/s difference.
func (b *bench) traced(ctx context.Context) (result, error) {
	tp := newTap()
	d, plain, err := setUp(ctx, b.w, b.seed, b.clients, tp)
	if err != nil {
		return result{}, err
	}
	tracedCl := client.New(d.url, client.Options{HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: tp}})
	var next atomic.Int64
	slice := time.Duration(b.seconds) * time.Second / 4
	all, traced := &tally{}, &tally{}
	var plainEl, plainS float64
	var gcCycles, gcPauseNs uint64
	cache := make(map[string]float64) // /metrics deltas over traced slices
	var entries float64
	var x crossCheck
	for s := 0; s < 4; s++ {
		on := s%2 == 1
		l := &loop{seed: b.seed, clients: b.clients, cl: plain, sample: true}
		if on {
			l.cl, l.traced = tracedCl, true
			m0, err := scrape(ctx, plain)
			if err != nil {
				return result{}, err
			}
			s0 := takeSnapshot()
			tp.armed.Store(true)
			t := l.run(ctx, b.timed(&next), time.Now().Add(slice))
			tp.armed.Store(false)
			s1 := takeSnapshot()
			gcCycles += s1.numGC - s0.numGC
			gcPauseNs += s1.pauseNs - s0.pauseNs
			m1, err := scrape(ctx, plain)
			if err != nil {
				return result{}, err
			}
			for k, v := range m1 {
				cache[k] += v - m0[k]
			}
			entries = m1["rbcastd_cache_entries"]
			dbg, err := plain.DebugRequests(ctx, "n=256")
			if err != nil {
				return result{}, err
			}
			x.add(tp, dbg)
			traced.merge(t)
			all.merge(t)
			continue
		}
		t := l.run(ctx, b.timed(&next), time.Now().Add(slice))
		plainEl += float64(t.elements)
		plainS += t.elapsed.Seconds()
		all.merge(t)
	}
	heapEnd := retainedHeapMiB()
	buildMS, berr := buildNetworks(traced.networks)
	if err := d.stop(); err != nil {
		return result{}, fmt.Errorf("stopping daemon: %w", err)
	}
	if berr != nil {
		return result{}, berr
	}
	var r result
	b.judge(&r, all)

	tp.mu.Lock()
	defer tp.mu.Unlock()
	ops := float64(max(traced.ops, 1))
	el := float64(max(traced.elements, 1))
	var latency time.Duration
	for _, l := range traced.latencies {
		latency += l
	}
	runner := tp.runTime + tp.batchTime + tp.sweepTime
	r.set("client.overhead_ms", "ms", ms(latency-tp.handlerTime)/ops)
	r.set("client.retries", "count", float64(tp.retryable.Load()))
	r.set("server.handler_ms", "ms", ms(tp.handlerTime)/ops)
	r.set("server.self_ms", "ms", ms(tp.handlerTime-runner)/ops)
	r.set("server.response_kib_per_element", "KiB", float64(tp.respBytes.Load())/1024/el)
	r.set("server.non2xx", "count", float64(tp.non2xx.Load()))
	r.set("rbcast.fingerprint_us", "us", ratio(ms(traced.fingerprintTime)*1e3, float64(traced.fingerprints)))
	r.set("rbcast.encode_ms", "ms", ms(traced.encodeTime)/el)
	hits, misses := cache["rbcastd_cache_hits_total"], cache["rbcastd_cache_misses_total"]
	r.set("scache.hit_ratio", "ratio", ratio(hits, hits+misses))
	r.set("scache.misses", "count", misses)
	r.set("scache.evictions", "count", cache["rbcastd_cache_evictions_total"])
	r.set("scache.entries", "count", entries)
	r.set("rbcast.run_ms", "ms", ratio(ms(tp.runTime), float64(tp.runCalls)))
	r.set("rbcast.batch_ms", "ms", ratio(ms(tp.batchTime), float64(tp.batchCalls)))
	r.set("rbcast.sweep_ms", "ms", ratio(ms(tp.sweepTime), float64(tp.sweepCalls)))
	r.set("rbcast.prepare_ms", "ms", ratio(ms(tp.prepareTime), float64(tp.runCalls)))
	r.set("topology.build_ms", "ms", buildMS)
	r.set("topology.distinct", "count", float64(len(traced.networks)))
	r.set("engine.ms", "ms", ms(tp.engineTime)/ops)
	r.set("engine.latency_share", "ratio", ratio(float64(tp.engineTime), float64(latency)))
	r.set("engine.node_rounds", "count", float64(tp.nodeRounds)/el)
	for _, p := range protocols {
		r.set("engine.ns_per_node_round."+p.String(), "ns", ratio(float64(tp.protoWall[p]), float64(tp.protoRounds[p])))
	}
	r.set("evidence.evals", "count", float64(tp.evals)/el)
	r.set("evidence.commits_per_eval", "ratio", ratio(float64(tp.evalCommits), float64(tp.evals)))
	r.set("sweep.sims_per_element", "ratio", ratio(float64(tp.sweep.Simulations), float64(tp.sweep.Elements)))
	r.set("sweep.node_round_ratio", "ratio", ratio(float64(tp.sweep.NodeRounds), float64(tp.sweep.ScalarNodeRounds)))
	r.set("sweep.forks", "count", ratio(float64(tp.sweep.Forks), float64(tp.sweeps)))
	r.set("runtime.gc_cycles", "count", float64(gcCycles))
	r.set("runtime.gc_pause_ms", "ms", float64(gcPauseNs)/1e6)
	r.set("runtime.heap_end_mib", "MiB", heapEnd)
	plainRate := ratio(plainEl, plainS)
	tracedRate := ratio(float64(traced.elements), traced.elapsed.Seconds())
	r.set("trace_overhead", "ratio", 1-ratio(tracedRate, plainRate))
	r.set("check.handler_divergence", "ratio", divergence(x.handlerOurs, x.handlerRec))
	r.set("check.engine_divergence", "ratio", divergence(x.engineOurs, x.engineRec))
	r.details["traced_elements_per_s"] = tracedRate
	r.details["untraced_elements_per_s"] = plainRate
	r.details["recorder_matched_s"] = map[string]float64{"handler": x.handlerOurs, "engine": x.engineOurs}
	return r, nil
}

// scrape reads the numeric cache series from /metrics.
func scrape(ctx context.Context, cl *client.Client) (map[string]float64, error) {
	text, err := cl.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "rbcastd_cache_") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing /metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	if len(out) == 0 {
		return nil, errors.New("/metrics carries no rbcastd_cache_ series")
	}
	return out, nil
}

// quantile is the nearest-rank q-quantile.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.5) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
