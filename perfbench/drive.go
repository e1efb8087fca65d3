package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	rbcast "repro"
	"repro/client"
)

// element is one scenario result as the client received it.
type element struct {
	fingerprint string
	result      *rbcast.Result
	cached      bool
}

// execute sends one op through the client and returns its elements in
// job order. Expanding a batch grid happens before the caller's timer.
func execute(ctx context.Context, c *client.Client, o op, jobs []rbcast.Job) ([]element, error) {
	switch o.kind {
	case opRun:
		rr, err := c.Run(ctx, o.job.Config, o.job.Plan)
		if err != nil {
			return nil, err
		}
		return []element{{rr.Fingerprint, &rr.Result, rr.Cached}}, nil
	case opSweep:
		sr, err := c.Sweep(ctx, o.grid.Base, o.grid.Axes, 0)
		if err != nil {
			return nil, err
		}
		out := make([]element, len(sr.Elements))
		for i, el := range sr.Elements {
			if el.Index != i || el.Error != "" {
				return nil, fmt.Errorf("sweep element %d: index %d, error %q", i, el.Index, el.Error)
			}
			out[i] = element{el.Fingerprint, el.Result, el.Cached}
		}
		return out, nil
	default:
		ack, err := c.Submit(ctx, jobs, 0)
		if err != nil {
			return nil, err
		}
		st, err := c.WatchJob(ctx, ack.ID, nil)
		if err != nil {
			return nil, err
		}
		if !st.Done() {
			return nil, fmt.Errorf("batch %s ended in state %q", ack.ID, st.State)
		}
		out := make([]element, len(st.Results))
		for i, r := range st.Results {
			if r.Error != "" {
				return nil, fmt.Errorf("batch element %d: %s", i, r.Error)
			}
			out[i] = element{r.Fingerprint, r.Result, r.Cached}
		}
		return out, nil
	}
}

// verify checks a response against the request: one element per job, each
// carrying the job's client-side fingerprint and a decision for every node.
func verify(jobs []rbcast.Job, got []element) error {
	if len(got) != len(jobs) {
		return fmt.Errorf("%d elements for %d jobs", len(got), len(jobs))
	}
	for i, j := range jobs {
		if fp := j.Fingerprint(); got[i].fingerprint != fp {
			return fmt.Errorf("element %d: fingerprint %.12s, want %.12s", i, got[i].fingerprint, fp)
		}
		if got[i].result == nil {
			return fmt.Errorf("element %d: no result", i)
		}
		if n := len(got[i].result.Decisions); n != nodes(j) {
			return fmt.Errorf("element %d: %d decisions for %d nodes", i, n, nodes(j))
		}
	}
	return nil
}

// sampled is one response kept for the post-window re-run check.
type sampled struct {
	rank   uint64
	job    rbcast.Job
	result *rbcast.Result
}

// sampleSize is how many responses a run re-checks: the ops with the
// smallest seeded hash ranks, so the sample spreads over the whole window
// whatever its length.
const sampleSize = 32

// keep adds s to a bottom-sampleSize sample.
func keep(sample []sampled, s sampled) []sampled {
	if len(sample) < sampleSize {
		return append(sample, s)
	}
	top := 0
	for i := range sample {
		if sample[i].rank > sample[top].rank {
			top = i
		}
	}
	if s.rank < sample[top].rank {
		sample[top] = s
	}
	return sample
}

// tally is what a set of closed-loop clients observed.
type tally struct {
	ops, failed, elements, fresh int
	latencies                    []time.Duration
	errs                         []string
	samples                      []sampled
	elapsed                      time.Duration
	// traced-only client-side timings (zero when untraced).
	fingerprintTime, encodeTime time.Duration
	fingerprints                int
	networks                    map[string]rbcast.Job
}

func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.elements += o.elements
	t.fresh += o.fresh
	t.elapsed += o.elapsed
	t.latencies = append(t.latencies, o.latencies...)
	for _, s := range o.samples {
		t.samples = keep(t.samples, s)
	}
	t.fingerprintTime += o.fingerprintTime
	t.fingerprints += o.fingerprints
	t.encodeTime += o.encodeTime
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
	for k, j := range o.networks {
		if t.networks == nil {
			t.networks = make(map[string]rbcast.Job)
		}
		t.networks[k] = j
	}
}

// loop runs closed-loop clients over a request source until the deadline,
// then waits for every client's last request. next yields the op to send
// and false when the source is exhausted (warm-up lists end; timed streams
// do not). traced switches on the client-side layer timings.
type loop struct {
	seed    uint64
	clients int
	cl      *client.Client
	traced  bool
	// sample keeps responses for the re-run check (timed windows only).
	sample bool
}

func (l *loop) run(ctx context.Context, next func() (int, op, bool), deadline time.Time) *tally {
	var wg sync.WaitGroup
	parts := make([]tally, l.clients)
	begin := time.Now()
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i, o, ok := next()
				if !ok {
					return
				}
				l.one(ctx, t, i, o)
			}
		}(&parts[c])
	}
	wg.Wait()
	out := &tally{}
	for i := range parts {
		out.merge(&parts[i])
	}
	out.elapsed = time.Since(begin)
	return out
}

// one sends op i and books the outcome into t.
func (l *loop) one(ctx context.Context, t *tally, i int, o op) {
	jobs := o.jobs()
	start := time.Now()
	got, err := execute(ctx, l.cl, o, jobs)
	lat := time.Since(start)
	t.ops++
	if err == nil {
		var fpStart time.Time
		if l.traced {
			fpStart = time.Now()
		}
		err = verify(jobs, got)
		if l.traced {
			t.fingerprintTime += time.Since(fpStart)
			t.fingerprints += len(jobs)
		}
	}
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, fmt.Sprintf("op %d (%s): %v", i, o.template, err))
		}
		return
	}
	t.latencies = append(t.latencies, lat)
	t.elements += len(got)
	if o.fresh {
		t.fresh++
	}
	if l.sample {
		h := splitmix(l.seed ^ uint64(i)*0x2545f4914f6cdd1d)
		k := int(h>>32) % len(jobs)
		t.samples = keep(t.samples, sampled{h, jobs[k], got[k].result})
	}
	if l.traced {
		t.encodeTime += encodeTime(o.kind, got)
		if t.networks == nil {
			t.networks = make(map[string]rbcast.Job)
		}
		t.networks[networkKey(jobs[0])] = jobs[0]
	}
}

// recheck re-runs every sample in-process with rbcast.Run and requires the
// served Result to be byte-identical with Metrics.Wall zeroed. Sweep and
// batch elements are compared against scalar runs. It returns the number
// of mismatches and the first few reasons.
func recheck(samples []sampled) (int, []string) {
	bad := 0
	var why []string
	for _, s := range samples {
		want, err := rbcast.Run(s.job.Config, s.job.Plan)
		if err == nil {
			got := *s.result
			got.Metrics.Wall, want.Metrics.Wall = 0, 0
			var a, b []byte
			a, err = json.Marshal(got)
			if err == nil {
				b, err = json.Marshal(want)
			}
			if err == nil && !bytes.Equal(a, b) {
				err = fmt.Errorf("served result differs from in-process run (%d vs %d bytes)", len(a), len(b))
			}
		}
		if err != nil {
			bad++
			if len(why) < 5 {
				why = append(why, fmt.Sprintf("%.12s: %v", s.job.Fingerprint(), err))
			}
		}
	}
	return bad, why
}
