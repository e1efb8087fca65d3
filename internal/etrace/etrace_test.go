package etrace

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/topology"
)

// TestNilRecorderIsSafe pins the tap discipline: every method on a nil
// recorder is a no-op, so call sites may thread a nil tap with no guards.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Tracing() {
		t.Fatal("nil recorder reports Tracing")
	}
	r.Broadcast(1, 2, 0, 1, topology.None, nil)
	r.Delivery(1, 3, 2, 0, 1, topology.None, nil)
	r.EvidenceEval(1, 3, 2, 1)
	r.Crash(1, 4)
	r.Spoof(1, 3, 2, 5)
	r.Commit(1, 3, 1, &Certificate{Rule: RuleDirect})
	if got := r.Events(); got != nil {
		t.Fatalf("nil recorder returned events: %v", got)
	}
}

// TestNilRecorderCountsNothing: the per-round counters on a nil recorder
// are no-ops too, and so are their snapshot and clone.
func TestNilRecorderCountsNothing(t *testing.T) {
	var r *Recorder
	r.Traffic(1, 3, 3)
	r.EvidenceEval(1, 3, 2, 1)
	r.Decision(1)
	if rows, total := r.Counts(); rows != nil || total != (RoundCounters{}) {
		t.Fatalf("nil recorder counted something: %v %+v", rows, total)
	}
	if r.Clone() != nil {
		t.Fatal("cloning a nil recorder returned a live one")
	}
}

// TestUntracedRecorderCountsOnly: a recorder built with tracing off keeps
// every counter but records no event.
func TestUntracedRecorderCountsOnly(t *testing.T) {
	r := New(false)
	if r.Tracing() {
		t.Fatal("untraced recorder reports Tracing")
	}
	r.Traffic(1, 2, 5)
	r.Broadcast(1, 2, 0, 1, topology.None, nil)
	r.Delivery(1, 3, 2, 0, 1, topology.None, nil)
	r.EvidenceEval(1, 3, 2, 1)
	r.Crash(1, 4)
	r.Spoof(1, 3, 2, 5)
	r.Commit(1, 3, 1, &Certificate{Rule: RuleDirect})
	r.Decision(1)
	if got := r.Events(); got != nil {
		t.Fatalf("untraced recorder returned events: %v", got)
	}
	want := RoundCounters{Broadcasts: 2, Deliveries: 5, EvidenceEvals: 1, Commits: 1}
	if rows, total := r.Counts(); len(rows) != 2 || rows[1] != want || total != want {
		t.Fatalf("counts = %+v, total %+v; want round 1 and total %+v", rows, total, want)
	}
}

func TestRecorderPreservesOrder(t *testing.T) {
	r := New(true)
	if !r.Tracing() {
		t.Fatal("traced recorder reports no Tracing")
	}
	r.Broadcast(0, 1, 0, 1, topology.None, nil)
	r.Delivery(0, 2, 1, 0, 1, topology.None, nil)
	r.Commit(0, 2, 1, &Certificate{Rule: RuleDirect, Value: 1})
	events := r.Events()
	want := []Kind{KindBroadcast, KindDelivery, KindCommit}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d", len(events), len(want))
	}
	for i, k := range want {
		if events[i].Kind != k {
			t.Errorf("event %d has kind %v, want %v", i, events[i].Kind, k)
		}
	}
}

// TestRecorderCopiesPaths pins the record-time copy: mutating the caller's
// path slice after recording must not corrupt the trace. The engines reuse
// message buffers, so aliasing here would be a real bug.
func TestRecorderCopiesPaths(t *testing.T) {
	r := New(true)
	path := []topology.NodeID{7, 8}
	r.Broadcast(1, 1, 2, 1, 9, path)
	path[0] = 99
	got := r.Events()[0].Path
	if want := []topology.NodeID{7, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recorded path aliases the caller's slice: got %v, want %v", got, want)
	}
}

// TestEventsReturnsCopy: mutating the returned slice must not affect later
// snapshots.
func TestEventsReturnsCopy(t *testing.T) {
	r := New(true)
	r.Crash(2, 5)
	first := r.Events()
	first[0].Node = 42
	if again := r.Events(); again[0].Node != 5 {
		t.Fatal("Events exposes internal storage")
	}
}

// TestCrashClampsNegativeRound: fault plans encode "crashed before round
// 1" with negative rounds; the trace reports those as round 0.
func TestCrashClampsNegativeRound(t *testing.T) {
	r := New(true)
	r.Crash(-3, 1)
	if got := r.Events()[0].Round; got != 0 {
		t.Fatalf("crash round = %d, want 0", got)
	}
}

// TestTotalsMatchPerRoundSums: totals are the column sums of the per-round
// rows, and only rounds that saw an event grow the histogram.
func TestTotalsMatchPerRoundSums(t *testing.T) {
	r := New(false)
	r.Traffic(0, 1, 0)
	r.Traffic(2, 4, 8)
	r.Traffic(1, 0, 8)
	r.EvidenceEval(2, 1, 2, 1)
	r.EvidenceEval(2, 1, 3, 1)
	r.Decision(0)
	r.Decision(2)
	r.Decision(2)

	rows, total := r.Counts()
	if want := (RoundCounters{Broadcasts: 5, Deliveries: 16, EvidenceEvals: 2, Commits: 3}); total != want {
		t.Fatalf("totals = %+v, want %+v", total, want)
	}
	if len(rows) != 3 {
		t.Fatalf("rounds = %d, want 3", len(rows))
	}
	var sum RoundCounters
	for _, rc := range rows {
		sum.Broadcasts += rc.Broadcasts
		sum.Deliveries += rc.Deliveries
		sum.EvidenceEvals += rc.EvidenceEvals
		sum.Commits += rc.Commits
	}
	if sum != total {
		t.Errorf("per-round sums %+v != totals %+v", sum, total)
	}
}

// TestZeroAddsAllocateNothing: a round with no traffic must not grow the
// histogram, or quiet trailing rounds would change Result.Metrics.PerRound.
func TestZeroAddsAllocateNothing(t *testing.T) {
	r := New(false)
	r.Traffic(5, 0, 0)
	r.Traffic(9, 0, 0)
	if rows, _ := r.Counts(); len(rows) != 0 {
		t.Errorf("zero adds grew the histogram to %d rounds", len(rows))
	}
}

func TestNegativeRoundClampsToZero(t *testing.T) {
	r := New(false)
	r.Traffic(-3, 2, 0)
	r.Decision(-1)
	if rows, _ := r.Counts(); len(rows) != 1 || rows[0] != (RoundCounters{Broadcasts: 2, Commits: 1}) {
		t.Errorf("negative round not clamped: %+v", rows)
	}
}

// TestConcurrentTaps drives one recorder from many goroutines, as the
// concurrent runtime's node goroutines do, and checks every count and
// event survives. Run it under -race.
func TestConcurrentTaps(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := New(traced)
		const workers = 8
		const perWorker = 500
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					round := (w + i) % 17
					r.Traffic(round, 1, 2)
					r.EvidenceEval(round, topology.NodeID(w), 0, 1)
					r.Decision(round)
					r.Commit(round, topology.NodeID(w), 1, nil)
				}
			}(w)
		}
		wg.Wait()
		_, total := r.Counts()
		n := int64(workers * perWorker)
		if want := (RoundCounters{Broadcasts: n, Deliveries: 2 * n, EvidenceEvals: n, Commits: n}); total != want {
			t.Errorf("traced=%v: totals %+v, want %+v", traced, total, want)
		}
		wantEvents := 0
		if traced {
			wantEvents = int(2 * n)
		}
		if got := len(r.Events()); got != wantEvents {
			t.Errorf("traced=%v: %d events, want %d", traced, got, wantEvents)
		}
	}
}
