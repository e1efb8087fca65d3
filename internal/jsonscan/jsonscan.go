// Package jsonscan is the strict, allocation-free JSON reader under the
// hand-written codecs: rbcast.Result's UnmarshalJSON and the rbcastd
// envelopes in internal/wire. It reads the shapes those codecs emit —
// objects, arrays, escape-free strings, plain integers, true and false —
// and reports false on the first byte it does not expect, so the caller
// can hand the same input to encoding/json and keep its semantics.
package jsonscan

import (
	"bytes"
	"math"
)

// Decoder reads Data from Pos. Each method skips leading whitespace and
// reports false on the first byte it does not expect, leaving Pos
// somewhere past the last byte it accepted.
type Decoder struct {
	Data []byte
	Pos  int
}

// SkipSpace advances past JSON whitespace.
func (d *Decoder) SkipSpace() {
	for d.Pos < len(d.Data) {
		switch d.Data[d.Pos] {
		case ' ', '\t', '\n', '\r':
			d.Pos++
		default:
			return
		}
	}
}

// AtEnd reports whether only whitespace is left.
func (d *Decoder) AtEnd() bool {
	d.SkipSpace()
	return d.Pos == len(d.Data)
}

// Consume skips whitespace and then c, if c is next.
func (d *Decoder) Consume(c byte) bool {
	d.SkipSpace()
	if d.Pos < len(d.Data) && d.Data[d.Pos] == c {
		d.Pos++
		return true
	}
	return false
}

// Object reads a JSON object, calling field after each key and its colon
// to read the value.
func (d *Decoder) Object(field func(key []byte) bool) bool {
	if !d.Consume('{') {
		return false
	}
	if d.Consume('}') {
		return true
	}
	for {
		key, ok := d.RawString()
		if !ok || !d.Consume(':') || !field(key) {
			return false
		}
		if !d.Consume(',') {
			return d.Consume('}')
		}
	}
}

// Array reads a JSON array, calling elem to read each element.
func (d *Decoder) Array(elem func() bool) bool {
	if !d.Consume('[') {
		return false
	}
	if d.Consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.Consume(',') {
			return d.Consume(']')
		}
	}
}

// RawString reads a JSON string without escapes or control bytes and
// returns its contents as they are in Data.
func (d *Decoder) RawString() ([]byte, bool) {
	if !d.Consume('"') {
		return nil, false
	}
	for i := d.Pos; i < len(d.Data); i++ {
		switch c := d.Data[i]; {
		case c == '"':
			s := d.Data[d.Pos:i]
			d.Pos = i + 1
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// Span reads the string, object or array that starts at the next
// non-space byte and returns its bytes. It matches brackets and steps over
// strings but validates nothing else: the caller hands the span to a
// parser that does.
func (d *Decoder) Span() ([]byte, bool) {
	d.SkipSpace()
	data, start, depth := d.Data, d.Pos, 0
	for i := start; i < len(data); i++ {
		switch data[i] {
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
			if i >= len(data) {
				return nil, false
			}
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		default:
			if i == start {
				return nil, false // not a string, object or array
			}
			continue
		}
		if depth == 0 {
			d.Pos = i + 1
			return data[start:d.Pos], true
		}
		if depth < 0 {
			return nil, false
		}
	}
	return nil, false
}

// Bool reads true or false.
func (d *Decoder) Bool(p *bool) bool {
	d.SkipSpace()
	rest := d.Data[d.Pos:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*p = true
		d.Pos += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*p = false
		d.Pos += 5
	default:
		return false
	}
	return true
}

// Int reads a JSON integer that fits an int.
func (d *Decoder) Int(p *int) bool {
	v, ok := d.Number(math.MinInt, math.MaxInt)
	*p = int(v)
	return ok
}

// Int64 reads a JSON integer that fits an int64.
func (d *Decoder) Int64(p *int64) bool {
	v, ok := d.Number(math.MinInt64, math.MaxInt64)
	*p = v
	return ok
}

// Number reads a JSON integer in [lo, hi]. A fraction or exponent after
// it is left for the caller's next structural check to reject.
func (d *Decoder) Number(lo, hi int64) (int64, bool) {
	d.SkipSpace()
	start := d.Pos
	if d.Pos < len(d.Data) && d.Data[d.Pos] == '-' {
		d.Pos++
	}
	digits := d.Pos
	for d.Pos < len(d.Data) && '0' <= d.Data[d.Pos] && d.Data[d.Pos] <= '9' {
		d.Pos++
	}
	if d.Pos-digits > 1 && d.Data[digits] == '0' {
		return 0, false // a leading zero is not JSON
	}
	return Decimal(d.Data[start:d.Pos], lo, hi)
}

// Decimal parses an optional '-' and 1–19 digits as an integer in
// [lo, hi]. Within that syntax it agrees with strconv.ParseInt; a minus
// sign is refused outright when lo is 0, as encoding/json refuses "-0"
// for unsigned fields.
func Decimal(s []byte, lo, hi int64) (int64, bool) {
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		s = s[1:]
	}
	if len(s) == 0 || len(s) > 19 {
		return 0, false
	}
	var u uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	if neg {
		if lo == 0 || u > uint64(-(lo+1))+1 {
			return 0, false
		}
		return -int64(u), true
	}
	if u > uint64(hi) {
		return 0, false
	}
	return int64(u), true
}
