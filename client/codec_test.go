package client

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	rbcast "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

// servedBody issues one request to a daemon and returns the raw 200 body.
func servedBody(t testing.TB, method, url string, body any) []byte {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s: status %d, err %v: %s", method, url, resp.StatusCode, err, data)
	}
	return data
}

// servedJobBody submits a batch and returns its GET /v1/jobs/{id} body once
// the job is done.
func servedJobBody(t testing.TB, url string, jobs []rbcast.Job) []byte {
	t.Helper()
	var ack BatchAck
	if err := json.Unmarshal(servedBody(t, http.MethodPost, url+"/v1/batch", batchRequest{Jobs: jobs}), &ack); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		body := servedBody(t, http.MethodGet, url+"/v1/jobs/"+ack.ID, nil)
		if bytes.Contains(body, []byte(`"state":"done"`)) {
			return body
		}
	}
	t.Fatalf("job %s did not finish", ack.ID)
	return nil
}

// gridBodies serves the two grid shapes of the served-path benchmark: a
// 72-element flood band-crash sweep on a 16×16 r2 torus (Ts 0–5 × crash
// rounds 1–12) as /v1/sweep NDJSON, and a 36-element CPA greedy-band crash
// grid on a 16×10 r2 torus (Ts 1–3 × crash rounds 1–12) as a finished
// /v1/jobs/{id} body.
func gridBodies(t testing.TB) (sweep, job []byte) {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()
	rounds := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	flood := sweepRequest{
		Base: rbcast.Job{
			Config: rbcast.Config{Width: 16, Height: 16, Radius: 2, Protocol: rbcast.ProtocolFlood, Value: 1, SourceX: 3, SourceY: 5, LockStep: true},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
		},
		Axes: rbcast.SweepAxes{Ts: []int{0, 1, 2, 3, 4, 5}, CrashRounds: rounds},
	}
	sweep = servedBody(t, http.MethodPost, ts.URL+"/v1/sweep", flood)
	cpa := rbcast.SweepSpec{
		Base: rbcast.Job{
			Config: rbcast.Config{Width: 16, Height: 10, Radius: 2, Protocol: rbcast.ProtocolCPA, Value: 1, SourceX: 2, SourceY: 4},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyCrash},
		},
		Axes: rbcast.SweepAxes{Ts: []int{1, 2, 3}, CrashRounds: rounds},
	}
	jobs, err := cpa.Elements()
	if err != nil {
		t.Fatal(err)
	}
	return sweep, servedJobBody(t, ts.URL, jobs)
}

// TestEnvelopeDecodeAllocs guards the client decode's allocation budget on
// the benchmark's two grid bodies. With encoding/json decoding the
// envelopes, and Result's decoder growing Faulty and PerRound by append,
// the 72-element sweep took 1,318 allocations and the 36-element job
// status 485. The envelope codec with presized slices takes 579 and 298:
// per element the fingerprint, the Result, its Decisions map, Faulty and
// PerRound. The bounds trip on any per-element return of reflection or
// slice growth.
func TestEnvelopeDecodeAllocs(t *testing.T) {
	sweep, job := gridBodies(t)
	const maxSweep, maxJob = 800, 400
	if avg := testing.AllocsPerRun(5, func() {
		sr, err := parseSweepStream(sweep)
		if err != nil || len(sr.Elements) != 72 {
			t.Fatalf("sweep decode: %d elements, %v", len(sr.Elements), err)
		}
	}); avg > maxSweep {
		t.Errorf("decoding the 72-element sweep body allocated %.0f times, budget %d", avg, maxSweep)
	}
	if avg := testing.AllocsPerRun(5, func() {
		st, err := decodeJobStatus(job)
		if err != nil || len(st.Results) != 36 {
			t.Fatalf("job decode: %d results, %v", len(st.Results), err)
		}
	}); avg > maxJob {
		t.Errorf("decoding the 36-element job status allocated %.0f times, budget %d", avg, maxJob)
	}
}

// BenchmarkEnvelopeDecode times the client decode of the two grid bodies
// TestEnvelopeDecodeAllocs bounds.
func BenchmarkEnvelopeDecode(b *testing.B) {
	sweep, job := gridBodies(b)
	b.Run("sweep72", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(sweep)))
		for range b.N {
			if _, err := parseSweepStream(sweep); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("job36", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(job)))
		for range b.N {
			if _, err := decodeJobStatus(job); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// envelopeSeeds are served bodies of every envelope kind, small enough to
// fuzz quickly, and hand-written edge inputs.
func envelopeSeeds(t testing.TB) [][]byte {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()
	small := rbcast.Job{
		Config: rbcast.Config{Width: 8, Height: 6, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
		Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash, CrashRound: 2},
	}
	traced := small
	traced.Config.Width, traced.Config.Height, traced.Config.Trace = 5, 5, true
	bv4 := testScenario()
	run := servedBody(t, http.MethodPost, ts.URL+"/v1/run", small)
	sweep := servedBody(t, http.MethodPost, ts.URL+"/v1/sweep", sweepRequest{Base: small, Axes: rbcast.SweepAxes{CrashRounds: []int{1, 2, 3}}})
	seeds := [][]byte{
		run,
		servedBody(t, http.MethodPost, ts.URL+"/v1/run", traced),
		servedBody(t, http.MethodPost, ts.URL+"/v1/run", bv4),
		sweep,
		servedBody(t, http.MethodPost, ts.URL+"/v1/sweep", sweepRequest{Base: small, Axes: rbcast.SweepAxes{CrashRounds: []int{1, 2}}}),
		servedJobBody(t, ts.URL, []rbcast.Job{small, traced, small}),
		sweep[:len(sweep)-len(sweep)/3], // a truncated last line
		bytes.ReplaceAll(sweep, []byte("\n"), []byte(" \r\n\t")),
		append(append([]byte(nil), run...), " {}"...),
	}
	for _, s := range []string{
		`null`,
		`{}`,
		`{"fingerprint":null,"result":null}`,
		`{"result":{"honest":1,"correct":1,"decisions":{"0,0":{"value":1,"decided":true}},"metrics":{}},"fingerprint":"ab"}`,
		`{"fingerprint":"a","fingerprint":"b","result":{},"result":{"honest":2}}`,
		`{"Fingerprint":"a","RESULT":{"Honest":3}}`,
		"{\"fingerprint\":\"\\u0061\\n\\ud800 <\\u2028> \xff\",\"result\":{}}",
		`{"fingerprint":"a","result":{},"cached":true}`,
		`{"fingerprint":"a","result":{"honest":1.5}}`,
		`{"fingerprint":"a","result":{"honest":1}`,
		`{"elements":-1}` + "\n" + `{"stats":{}}`,
		`{"elements":2}` + "\n" + `{"index":0,"fingerprint":"f"}` + "\n" + `{"stats":{"forks":1}}`,
		`{"elements":1}` + "\n" + `{"index":7,"fingerprint":"f","error":"cut <&>","partial":true,"result":{"rounds":2}}{"stats":{"elements":1}} junk`,
		`{"elements":1}{"index":0,"fingerprint":"f","cached":false,"cached":true,"index":1}{"stats":{"node_rounds":9223372036854775807},"stats":{"forks":-1}}`,
		`{"elements":1}` + "\n" + `null` + "\n" + `{"stats":null}`,
		`{"id":"job-1","state":"running","jobs":3}`,
		`{"id":"j","state":"done","jobs":0,"results":[]}`,
		`{"id":"j","state":"done","jobs":1,"results":null}`,
		`{"id":"j","jobs":2,"results":[{"fingerprint":"a","result":{"honest":1}},{"fingerprint":"b","error":"x","index":1}]}`,
		`{"id":"j","results":[{"fingerprint":"a","cached":true}],"results":[{"fingerprint":"b"}]}`,
		`{"id":"j","results":[null,{"fingerprint":"a","result":{"faulty":["1,2"]}}]}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzEnvelopeDecode feeds the same bytes to the client's run, sweep and
// job-status decoders and to encoding/json on the client types. Both must
// accept the same inputs, fail with the same error text and produce equal
// values: the envelope codec's fast path only ever takes inputs
// encoding/json decodes to the same value.
func FuzzEnvelopeDecode(f *testing.F) {
	for _, seed := range envelopeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := decodeRun(data)
		var wantRun RunResult
		wantErr := json.Unmarshal(data, &wantRun)
		if wantErr != nil {
			wantRun = RunResult{}
		}
		agree(t, "run", run, err, wantRun, wantErr)

		sweep, err := parseSweepStream(data)
		wantSweep, wantErr := reflectSweepStream(data)
		agree(t, "sweep", sweep, err, wantSweep, wantErr)

		job, err := decodeJobStatus(data)
		var wantJob JobStatus
		wantErr = json.Unmarshal(data, &wantJob)
		if wantErr != nil {
			wantJob = JobStatus{}
		}
		agree(t, "job status", job, err, wantJob, wantErr)
	})
}

// agree fails unless a decoder and its encoding/json reference agree.
func agree[T any](t *testing.T, what string, got T, err error, want T, wantErr error) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s: decoder error %v, encoding/json error %v", what, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s: error text %q, encoding/json %q", what, err, wantErr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s: decoded\n %+v\nencoding/json decoded\n %+v", what, got, want)
	}
}

// TestFastPathTakesServedBodies checks that the envelope codec's fast path,
// not the encoding/json fallback, decodes what the daemon serves.
func TestFastPathTakesServedBodies(t *testing.T) {
	seeds := envelopeSeeds(t)
	for i, body := range seeds[:3] {
		if _, _, ok := wire.DecodeRun(body); !ok {
			t.Errorf("run body %d fell back to encoding/json: %.200s", i, body)
		}
	}
	for i, body := range seeds[3:5] {
		if _, _, ok := wire.DecodeSweep(body); !ok {
			t.Errorf("sweep body %d fell back to encoding/json: %.200s", i, body)
		}
	}
	if _, ok := wire.DecodeJobStatus(seeds[5]); !ok {
		t.Errorf("job body fell back to encoding/json: %.200s", seeds[5])
	}
}
