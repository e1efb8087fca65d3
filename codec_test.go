package rbcast_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	rbcast "repro"
	"repro/internal/scenarios"
)

// tracedBV4 runs a traced BV4 scenario for the codec fuzz seeds. Its full
// trace runs to megabytes; the first two events of each kind keep every
// event shape in a seed small enough to mutate quickly.
func tracedBV4(tb testing.TB) rbcast.Result {
	tb.Helper()
	cfg := rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolBV4,
		T: rbcast.MaxByzantineLinf(1), Value: 1, Trace: true}
	res, err := rbcast.Run(cfg, rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyForger})
	if err != nil {
		tb.Fatal(err)
	}
	kept, seen := res.Trace[:0], map[rbcast.EventKind]int{}
	for _, ev := range res.Trace {
		if seen[ev.Kind]++; seen[ev.Kind] <= 2 {
			kept = append(kept, ev)
		}
	}
	res.Trace = kept
	return res
}

// FuzzResultJSON pins Result's hand-written JSON codec to encoding/json's
// reflection over the same fields (rbcast.PlainResult). Decoding any bytes
// must give deeply equal values and the same error text, into a zero
// receiver and into pre-filled ones; encoding a Result built from the
// bytes, or decoded from them, must give the same bytes.
func FuzzResultJSON(f *testing.F) {
	for _, sc := range scenarios.Matrix() {
		res, err := rbcast.Run(sc.Config, sc.Plan)
		if err != nil {
			f.Fatalf("%s: %v", sc.Name, err)
		}
		f.Add(mustMarshal(f, res))
	}
	f.Add(mustMarshal(f, tracedBV4(f)))
	f.Add([]byte(` { "metrics" : { } , "decisions" : { "-1,0" : { "round" : -0 } } , "honest" : 3 } `))
	f.Add([]byte(`{"faulty":[],"decisions":{},"metrics":{"per_round":[{}]},"quiesced":false}`))
	// Inputs the fast path must leave to encoding/json.
	for _, in := range []string{
		`{"decisions":{"1,2":{"value":256}}}`, `{"honest":01}`, `{"honest":1.0}`, `{"HONEST":1}`,
		`{"honest":null}`, `{"decisions":{"+1,2":{},"1,\u0032":{}}}`, `{"faulty":["1,2,3"]}`, `{} x`,
	} {
		f.Add([]byte(in))
	}
	f.Add([]byte(`{"metrics":{"per_round":[{},{"commits":2}]}}        `)) // length 52: a pre-filled PerRound
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, func() rbcast.Result { return rbcast.Result{} })
		// Which maps and slices the pre-filled receiver holds varies with
		// the input's length.
		checkDecode(t, data, func() rbcast.Result { return prefilledResult(len(data)) })
		var res rbcast.PlainResult
		if json.Unmarshal(data, &res) == nil {
			checkEncode(t, rbcast.Result(res))
		}
		checkEncode(t, resultFromBytes(data))
	})
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// prefilledResult returns a receiver with every scalar set and, as the
// bits of mask select, a non-nil Decisions, Faulty, PerRound and Trace.
// encoding/json merges into all of them.
func prefilledResult(mask int) rbcast.Result {
	res := rbcast.Result{Honest: 7, Wrong: 1, Quiesced: true, Metrics: rbcast.Metrics{Commits: 2, Wall: 5}}
	if mask&1 != 0 {
		res.Decisions = map[rbcast.Node]rbcast.Decision{{X: 1, Y: 2}: {Value: 1, Decided: true, Round: 3}}
	}
	if mask&2 != 0 {
		res.Faulty = []rbcast.Node{{X: 4, Y: 5}, {X: 6, Y: 7}}
	}
	if mask&4 != 0 {
		res.Metrics.PerRound = []rbcast.RoundMetrics{{Broadcasts: 1}, {Deliveries: 2, Commits: 1}}
	}
	if mask&8 != 0 {
		res.Trace = []rbcast.TraceEvent{{Round: 1, Kind: rbcast.EventCommit}}
	}
	return res
}

// checkDecode decodes data into fresh receivers from fill, through
// json.Unmarshal and through a direct UnmarshalJSON call (which, unlike
// json.Unmarshal, does not validate the input first), and compares both
// with encoding/json's reflection decode.
func checkDecode(t *testing.T, data []byte, fill func() rbcast.Result) {
	t.Helper()
	want := rbcast.PlainResult(fill())
	wantErr := json.Unmarshal(data, &want)
	got := fill()
	sameDecode(t, "json.Unmarshal", data, got, json.Unmarshal(data, &got), rbcast.Result(want), wantErr)
	direct := fill()
	sameDecode(t, "UnmarshalJSON", data, direct, direct.UnmarshalJSON(data), rbcast.Result(want), wantErr)
}

func sameDecode(t *testing.T, via string, data []byte, got rbcast.Result, err error, want rbcast.Result, wantErr error) {
	t.Helper()
	if errText(err) != errText(wantErr) {
		t.Fatalf("%s(%q): error %q, encoding/json %q", via, data, errText(err), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(%q) decoded\n  %+v\nencoding/json decoded\n  %+v", via, data, got, want)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkEncode compares json.Marshal and a direct MarshalJSON call (which
// skips encoding/json's compaction) with the reflection encoding.
func checkEncode(t *testing.T, res rbcast.Result) {
	t.Helper()
	want, wantErr := json.Marshal((*rbcast.PlainResult)(&res))
	got, err := json.Marshal(res)
	direct, directErr := res.MarshalJSON()
	if wantErr != nil {
		// Only Trace can fail to encode. encoding/json wraps MarshalJSON's
		// error once more; the wrapped error is the reflection one.
		if err == nil || directErr == nil || errText(errors.Unwrap(err)) != wantErr.Error() || directErr.Error() != wantErr.Error() {
			t.Fatalf("encoding %+v: errors %v / %v, encoding/json %v", res, err, directErr, wantErr)
		}
		return
	}
	if err != nil || directErr != nil {
		t.Fatalf("encoding %+v: %v / %v", res, err, directErr)
	}
	if !bytes.Equal(got, want) || !bytes.Equal(direct, want) {
		t.Fatalf("encoding %+v:\n  json.Marshal %s\n  MarshalJSON  %s\n  reflection   %s", res, got, direct, want)
	}
}

// fuzzBytes deals fuzz input out as Result fields; past its end every
// read is zero.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// int favours small and boundary values, negative ones included, over
// uniform 64-bit ones.
func (b *fuzzBytes) int() int {
	switch c := b.byte(); c % 4 {
	case 0:
		return int(int8(b.byte()))
	case 1:
		return []int{0, 9, 10, 11, 99, 100, -1, -9, -10, -100, math.MaxInt, math.MinInt, math.MaxInt / 10, math.MinInt / 10, 1e18, -1e18}[c/4%16]
	case 2:
		return int(int16(uint16(b.byte()) | uint16(b.byte())<<8))
	default:
		var w [8]byte
		for i := range w {
			w[i] = b.byte()
		}
		return int(int64(binary.LittleEndian.Uint64(w[:])))
	}
}

// length picks nil (-1), empty (0) or a short length.
func (b *fuzzBytes) length() int {
	c := b.byte()
	switch c % 4 {
	case 0:
		return -1
	case 1:
		return 0
	}
	return int(c>>2) % 24
}

func (b *fuzzBytes) node() rbcast.Node { return rbcast.Node{X: b.int(), Y: b.int()} }

// resultFromBytes builds a Result from fuzz input: every field, extreme
// and negative coordinates, nil versus empty maps and slices, and now and
// then a trace (with an unencodable event kind when the byte is 255).
func resultFromBytes(data []byte) rbcast.Result {
	b := fuzzBytes(data)
	res := rbcast.Result{
		Honest: b.int(), Correct: b.int(), Wrong: b.int(), Undecided: b.int(),
		Faults: b.int(), MaxFaultsPerNbd: b.int(), Rounds: b.int(),
		Broadcasts: b.int(), Deliveries: b.int(), Quiesced: b.byte()&1 == 1,
	}
	if n := b.length(); n >= 0 {
		res.Decisions = make(map[rbcast.Node]rbcast.Decision, n)
		for range n {
			res.Decisions[b.node()] = rbcast.Decision{Value: b.byte(), Decided: b.byte()&1 == 1, Round: b.int()}
		}
	}
	if n := b.length(); n >= 0 {
		res.Faulty = make([]rbcast.Node, n)
		for i := range res.Faulty {
			res.Faulty[i] = b.node()
		}
	}
	res.Metrics = rbcast.Metrics{EvidenceEvals: b.int(), Commits: b.int(), Wall: time.Duration(b.int())}
	if n := b.length(); n >= 0 {
		res.Metrics.PerRound = make([]rbcast.RoundMetrics, n)
		for i := range res.Metrics.PerRound {
			res.Metrics.PerRound[i] = rbcast.RoundMetrics{Broadcasts: b.int(), Deliveries: b.int(), EvidenceEvals: b.int(), Commits: b.int()}
		}
	}
	if n := b.length(); n >= 0 {
		res.Trace = make([]rbcast.TraceEvent, n)
		for i := range res.Trace {
			kind := rbcast.EventKind(b.byte() % 7)
			if b.byte() == 255 {
				kind = 99
			}
			res.Trace[i] = rbcast.TraceEvent{Round: b.int(), Kind: kind, Node: b.node(), Value: b.byte()}
		}
	}
	return res
}

// FuzzDecodeTrace checks that every trace DecodeTrace accepts re-encodes
// with EncodeTrace and decodes back to the same events. The one thing the
// format does not carry is an empty-but-non-nil slice in an omitempty
// field (`"path":[]`), which comes back nil.
func FuzzDecodeTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := rbcast.EncodeTrace(&buf, tracedBV4(f).Trace); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("\n{\"round\":1,\"kind\":\"spoof\",\"node\":\"1,2\",\"from\":\"-3,4\",\"claimed\":\"5,6\"}\r\n\nnull\n"))
	f.Add([]byte(`{"round":2,"kind":"commit","node":"0,0","certificate":{"rule":"quorum","center":"1,1","evidence":[{"origin":"2,2","chains":[[]]}],"voters":[]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := rbcast.DecodeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := rbcast.EncodeTrace(&enc, events); err != nil {
			t.Fatalf("re-encoding %q: %v", data, err)
		}
		back, err := rbcast.DecodeTrace(&enc)
		if err != nil {
			t.Fatalf("decoding the re-encoding %q of %q: %v", enc.Bytes(), data, err)
		}
		if want := nilEmptyTraceSlices(events); !reflect.DeepEqual(back, want) {
			t.Fatalf("trace %q came back as\n  %+v\nwant\n  %+v", data, back, want)
		}
	})
}

// nilEmptyTraceSlices sets every empty omitempty slice in events to nil.
func nilEmptyTraceSlices(events []rbcast.TraceEvent) []rbcast.TraceEvent {
	for i := range events {
		if m := events[i].Message; m != nil && len(m.Path) == 0 {
			m.Path = nil
		}
		c := events[i].Certificate
		if c == nil {
			continue
		}
		if len(c.Voters) == 0 {
			c.Voters = nil
		}
		if len(c.Evidence) == 0 {
			c.Evidence = nil
		}
		if len(c.Echoes) == 0 {
			c.Echoes = nil
		}
		for j := range c.Evidence {
			if len(c.Evidence[j].Chains) == 0 {
				c.Evidence[j].Chains = nil
			}
		}
	}
	return events
}
