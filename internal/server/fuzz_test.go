package server

import (
	"encoding/json"
	"reflect"
	"testing"

	rbcast "repro"
)

// FuzzDecodeRunRequest feeds arbitrary /v1/run bodies to the request
// decoder and to the Config validation every run starts with. Neither may
// panic, and a body both accept must re-encode to JSON that decodes to the
// same Job. GraphSpec.Edges is omitempty, so an explicit empty edge list
// comes back as nil; the comparison treats the two alike, the one
// difference the encoding cannot carry.
func FuzzDecodeRunRequest(f *testing.F) {
	for _, job := range envelopeCases() {
		body, err := json.Marshal(RunRequest{Config: job.Config, Plan: job.Plan})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, seed := range []string{
		`{}`,
		`null`,
		`{"config":{"width":16,"height":10,"radius":1,"protocol":"bv4","t":2,"value":1},"plan":{"placement":"greedy-band","strategy":"silent"}}`,
		`{"config":{"width":16},"config":{"height":10}}`,
		`{"CONFIG":{"Width":8,"HEIGHT":8,"radius":1,"protocol":"flood"}}`,
		`{"config":{"widht":16}}`,
		`{"config":{"width":16}} trailing`,
		`{"config":{"width":16}}{"config":{}}`,
		`{"config":{"width":1e3,"loss_rate":-0,"rgg_radius":0.5}}`,
		`{"config":{"topology":"custom","graph":{"nodes":2,"edges":[]},"protocol":"cpa"}}`,
		`{"config":{"topology":"custom","graph":{"nodes":2,"edges":[[0,1],[1,0]]},"protocol":"cpa"}}`,
		`{"config":{"topology":"rgg","nodes":48,"rgg_radius":0.25,"graph":null}}`,
		`{"config":{"protocol":"nope"}}`,
		`{"config":{"value":256}}`,
		`{"config":{"t":-1,"max_rounds":9223372036854775807}}`,
		`{"plan":{"placement":"percolation","probability":0.5,"seed":-9223372036854775808}}`,
		`{"config":{"source_x":"1"}}`,
		"{\"config\":{\"protocol\":\"fl\\u006fod\"}}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if decodeStrict(body, &req) != nil || req.Config.Validate() != nil {
			return
		}
		job := rbcast.Job{Config: req.Config, Plan: req.Plan}
		job.Fingerprint()
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		var back RunRequest
		if err := decodeStrict(again, &back); err != nil {
			t.Fatalf("re-encoded request %s does not decode: %v", again, err)
		}
		if g := job.Config.Graph; g != nil && g.Edges != nil && len(g.Edges) == 0 {
			job.Config.Graph = &rbcast.GraphSpec{Nodes: g.Nodes}
		}
		if got := (rbcast.Job{Config: back.Config, Plan: back.Plan}); !reflect.DeepEqual(got, job) {
			t.Fatalf("round trip changed the job:\n got  %+v\n want %+v", got, job)
		}
	})
}
