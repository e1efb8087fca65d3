// Package wire is rbcastd's envelope codec: the JSON bodies that carry an
// rbcast.Result. Those are the /v1/run and GET /v1/cache/{fp} responses,
// each /v1/sweep element line and GET /v1/jobs/{id}.
//
// The encoders write the bytes encoding/json writes for the server's
// envelope types, HTML escaping included, but have Result.AppendJSON write
// each result in place, where encoding/json would scan and copy
// MarshalJSON's output once more. The decoders parse the envelope with a
// strict fast path and hand each result value's span straight to
// Result.UnmarshalJSON, where encoding/json would scan the whole body once
// to validate it and again to find each value's end. Any input the fast
// path does not take makes a decoder report false, and the caller decodes
// the same bytes with encoding/json, so what is accepted, the error text
// and the values stay encoding/json's.
package wire

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	rbcast "repro"
	"repro/internal/jsonscan"
)

// Element is the envelope around one Result. A /v1/sweep line carries
// Index; a GET /v1/jobs/{id} results entry is the same object without it;
// a /v1/run body is an unindexed Element with only Fingerprint and Result.
type Element struct {
	Index       int
	Fingerprint string
	Result      *rbcast.Result
	Error       string
	Cached      bool
	Partial     bool
}

// JobStatus is the GET /v1/jobs/{id} body; Results are unindexed.
type JobStatus struct {
	ID      string
	State   string
	Jobs    int
	Results []Element
}

// AppendElement appends e as one JSON object: "index" first when indexed,
// then "fingerprint", and "result", "error", "cached" and "partial" when
// set, as encoding/json writes them under omitempty.
func AppendElement(b []byte, e *Element, indexed bool) ([]byte, error) {
	b = append(b, '{')
	if indexed {
		b = strconv.AppendInt(append(b, `"index":`...), int64(e.Index), 10)
		b = append(b, ',')
	}
	b = appendString(append(b, `"fingerprint":`...), e.Fingerprint)
	if e.Result != nil {
		var err error
		if b, err = e.Result.AppendJSON(append(b, `,"result":`...)); err != nil {
			return b, err
		}
	}
	if e.Error != "" {
		b = appendString(append(b, `,"error":`...), e.Error)
	}
	if e.Cached {
		b = append(b, `,"cached":true`...)
	}
	if e.Partial {
		b = append(b, `,"partial":true`...)
	}
	return append(b, '}'), nil
}

// AppendJobStatus appends st as one JSON object, its results omitted
// while there are none.
func AppendJobStatus(b []byte, st *JobStatus) ([]byte, error) {
	b = appendString(append(b, `{"id":`...), st.ID)
	b = appendString(append(b, `,"state":`...), st.State)
	b = strconv.AppendInt(append(b, `,"jobs":`...), int64(st.Jobs), 10)
	for i := range st.Results {
		if i == 0 {
			b = append(b, `,"results":[`...)
		} else {
			b = append(b, ',')
		}
		var err error
		if b, err = AppendElement(b, &st.Results[i], false); err != nil {
			return b, err
		}
	}
	if len(st.Results) > 0 {
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendString appends s quoted as encoding/json quotes it. Printable
// ASCII without '"', '\\', '<', '>' or '&' is copied as is; anything else
// goes through json.Marshal, which escapes it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// DecodeRun parses a /v1/run or GET /v1/cache/{fp} body into its
// fingerprint and result.
func DecodeRun(data []byte) (fp string, res rbcast.Result, ok bool) {
	d := decoder{jsonscan.Decoder{Data: data}}
	ok = d.Object(func(key []byte) bool {
		switch string(key) {
		case "fingerprint":
			return d.string(&fp)
		case "result":
			return d.result(&res)
		}
		return false
	}) && d.AtEnd()
	return fp, res, ok
}

// DecodeSweep parses a /v1/sweep NDJSON body: the header line with the
// element count, that many indexed element lines, and the stats trailer.
func DecodeSweep(data []byte) ([]Element, rbcast.SweepStats, bool) {
	d := decoder{jsonscan.Decoder{Data: data}}
	var stats rbcast.SweepStats
	n := -1
	if !d.Object(func(key []byte) bool { return string(key) == "elements" && d.Int(&n) }) || n < 0 {
		return nil, stats, false
	}
	// Every element line takes at least 2 bytes, which bounds the hint
	// by the input.
	elems := make([]Element, 0, min(n, len(data)/2))
	for range n {
		elems = append(elems, Element{})
		if !d.element(&elems[len(elems)-1], true) {
			return nil, stats, false
		}
	}
	ok := d.Object(func(key []byte) bool {
		return string(key) == "stats" && d.Object(func(key []byte) bool { return d.statsField(&stats, key) })
	}) && d.AtEnd()
	return elems, stats, ok
}

// DecodeJobStatus parses a GET /v1/jobs/{id} body.
func DecodeJobStatus(data []byte) (JobStatus, bool) {
	d := decoder{jsonscan.Decoder{Data: data}}
	var st JobStatus
	ok := d.Object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return d.string(&st.ID)
		case "state":
			return d.string(&st.State)
		case "jobs":
			return d.Int(&st.Jobs)
		case "results":
			if st.Results != nil {
				return false // encoding/json would decode into the first array
			}
			st.Results = []Element{}
			return d.Array(func() bool {
				st.Results = append(st.Results, Element{})
				return d.element(&st.Results[len(st.Results)-1], false)
			})
		}
		return false
	}) && d.AtEnd()
	return st, ok
}

// decoder is the envelope fast path. It decodes a repeated key into the
// same field, as encoding/json does: a scalar keeps the last value, and a
// repeated result is a second Result.UnmarshalJSON call on the first
// one's Result. A repeated results array, which encoding/json decodes
// into the first one's elements, is refused.
type decoder struct {
	jsonscan.Decoder
}

func (d *decoder) element(e *Element, indexed bool) bool {
	return d.Object(func(key []byte) bool {
		switch string(key) {
		case "index":
			return indexed && d.Int(&e.Index)
		case "fingerprint":
			return d.string(&e.Fingerprint)
		case "result":
			if e.Result == nil {
				e.Result = new(rbcast.Result)
			}
			return d.result(e.Result)
		case "error":
			return d.string(&e.Error)
		case "cached":
			return d.Bool(&e.Cached)
		case "partial":
			return d.Bool(&e.Partial)
		}
		return false
	})
}

func (d *decoder) statsField(s *rbcast.SweepStats, key []byte) bool {
	switch string(key) {
	case "elements":
		return d.Int(&s.Elements)
	case "simulations":
		return d.Int(&s.Simulations)
	case "forks":
		return d.Int(&s.Forks)
	case "shared_results":
		return d.Int(&s.SharedResults)
	case "node_rounds":
		return d.Int64(&s.NodeRounds)
	case "scalar_node_rounds":
		return d.Int64(&s.ScalarNodeRounds)
	case "prefix_node_rounds_saved":
		return d.Int64(&s.PrefixNodeRoundsSaved)
	}
	return false
}

// result hands the object span at the cursor to r.UnmarshalJSON, the
// bytes encoding/json would hand it. A wrong span cannot slip through:
// UnmarshalJSON accepts only a complete JSON object, whose end is where
// Span puts it.
func (d *decoder) result(r *rbcast.Result) bool {
	d.SkipSpace()
	if d.Pos == len(d.Data) || d.Data[d.Pos] != '{' {
		return false
	}
	span, ok := d.Span()
	return ok && r.UnmarshalJSON(span) == nil
}

// string reads a JSON string. Valid UTF-8 without escapes is taken as
// is; any other string is decoded by encoding/json, which unescapes it and
// replaces invalid UTF-8 as it would in a field.
func (d *decoder) string(p *string) bool {
	start := d.Pos
	if s, ok := d.RawString(); ok && utf8.Valid(s) {
		*p = string(s)
		return true
	}
	d.Pos = start
	d.SkipSpace()
	if d.Pos == len(d.Data) || d.Data[d.Pos] != '"' {
		return false
	}
	span, ok := d.Span()
	return ok && json.Unmarshal(span, p) == nil
}
