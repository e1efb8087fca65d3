package main

import (
	"testing"

	rbcast "repro"
)

// stream renders a workload's warm-up plus its first n timed requests as
// fingerprint lists, one per op.
func stream(t *testing.T, name string, seed uint64, n int) [][]string {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	add := func(o op) {
		var fps []string
		for _, j := range o.jobs() {
			fps = append(fps, j.Fingerprint())
		}
		out = append(out, fps)
	}
	for _, o := range w.warmup() {
		add(o)
	}
	for i := 0; i < n; i++ {
		add(w.at(i))
	}
	return out
}

func TestSeedDeterminesStream(t *testing.T) {
	for _, name := range workloadNames {
		a, b := stream(t, name, 7, 200), stream(t, name, 7, 200)
		if len(a) != len(b) {
			t.Fatalf("%s: same seed gave %d and %d ops", name, len(a), len(b))
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				t.Fatalf("%s: op %d differs under the same seed", name, i)
			}
			for k := range a[i] {
				if a[i][k] != b[i][k] {
					t.Fatalf("%s: op %d element %d differs under the same seed", name, i, k)
				}
			}
		}
		c := stream(t, name, 8, 200)
		same := 0
		for i := range a {
			if a[i][0] == c[i][0] {
				same++
			}
		}
		if same > len(a)/2 {
			t.Errorf("%s: seeds 7 and 8 share %d of %d leading fingerprints", name, same, len(a))
		}
	}
}

// missDistinct is the timed prefix over which run-miss never repeats a
// key: one block per code of the smallest height's permutation.
const missDistinct = 2 * missMinH * missBlock

func TestRunMissKeysDistinct(t *testing.T) {
	seen := make(map[string]int)
	for i, fps := range stream(t, "run-miss", 3, missDistinct) {
		if j, dup := seen[fps[0]]; dup {
			t.Fatalf("ops %d and %d share fingerprint %.12s", j, i, fps[0])
		}
		seen[fps[0]] = i
	}
}

// TestRunMissNoDeadParameters runs a run-miss sample through the sweep
// engine: no two requests may collapse onto one execution, so every axis
// the workload varies is outcome-relevant.
func TestRunMissNoDeadParameters(t *testing.T) {
	w := newRunMiss(5)
	var jobs []rbcast.Job
	for i := 0; i < 2*missBlock; i += 4 {
		jobs = append(jobs, w.at(i).job)
	}
	// Same height and value, different source row: still distinct.
	jobs = append(jobs, missJob(30, 0, 1, 1), missJob(30, 0, 2, 1))
	res, st := rbcast.RunSweepJobs(jobs, rbcast.BatchOptions{})
	if st.SharedResults != 0 {
		t.Fatalf("sweep shared %d results across %d run-miss jobs", st.SharedResults, len(jobs))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
}

// mixedRequests is the timed request count up to which the run-mixed
// working set (warm keys plus first-seen keys) fits the default cache.
const mixedRequests = 60000

func TestRunMixedFitsCache(t *testing.T) {
	w := newRunMixed(11)
	keys := make(map[string]bool)
	for _, o := range w.warmup() {
		fp := o.job.Fingerprint()
		if keys[fp] {
			t.Fatalf("warm key %.12s (%s) appears twice", fp, o.template)
		}
		keys[fp] = true
	}
	warm := len(keys)
	fresh := 0
	for i := 0; i < mixedRequests; i++ {
		o := w.at(i)
		fp := o.job.Fingerprint()
		if o.fresh {
			fresh++
			if keys[fp] {
				t.Fatalf("first-seen op %d reuses key %.12s", i, fp)
			}
		} else if !keys[fp] {
			t.Fatalf("op %d (%s) is neither warm nor first-seen", i, o.template)
		}
		keys[fp] = true
	}
	if want := mixedRequests * mixedFresh / mixedBlock; fresh != want {
		t.Errorf("first-seen requests = %d, want %d (%d%%)", fresh, want, 100*mixedFresh/mixedBlock)
	}
	if len(keys) > 1024 {
		t.Errorf("working set of %d keys (%d warm) exceeds the 1024-entry cache", len(keys), warm)
	}
}

// TestRunMixedKeysRun runs every warm key and a sample of first-seen keys:
// the workload must contain no request the daemon would reject.
func TestRunMixedKeysRun(t *testing.T) {
	w := newRunMixed(11)
	var jobs []rbcast.Job
	protocols := make(map[rbcast.Protocol]bool)
	families := make(map[rbcast.Topology]bool)
	for _, o := range w.warmup() {
		jobs = append(jobs, o.job)
		protocols[o.job.Config.Protocol] = true
		families[o.job.Config.Topology] = true
	}
	for f := 0; f < 64; f++ {
		jobs = append(jobs, freshJob(11, f))
	}
	for i, r := range rbcast.RunBatch(jobs, rbcast.BatchOptions{}) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	if len(protocols) != 6 || len(families) != 3 {
		t.Errorf("warm set covers %d protocols and %d topology families, want 6 and 3", len(protocols), len(families))
	}
}

func TestGridFresh(t *testing.T) {
	seen := make(map[string]int)
	n := 12 * gridCycle
	ops := stream(t, "grid", 13, n)
	g, batches := newGridWork(13), 0
	for i, fps := range ops {
		if i >= gridWarmup && g.at(i-gridWarmup).kind == opBatch {
			batches++
		}
		if want := []int{72, 36}[i%2]; len(fps) != want {
			t.Fatalf("grid op %d has %d elements, want %d", i, len(fps), want)
		}
		for _, fp := range fps {
			if j, dup := seen[fp]; dup && j != i {
				t.Fatalf("grid ops %d and %d share element %.12s", j, i, fp)
			}
			seen[fp] = i
		}
	}
	if want := n * 2 / gridCycle; batches != want {
		t.Errorf("%d batches in %d grids, want %d", batches, n, want)
	}
}
