package rbcast

// JSON/text encodings for the public scenario types, and the canonical
// scenario fingerprint that identifies a (Config, FaultPlan) pair across
// processes.
//
// Two deliberately different contracts live here:
//
//   - The JSON encoding is *lossless*: every enum marshals to its stable
//     text name ("bv4", "linf", "greedy-band", …), the zero value marshals
//     to the empty string, and decoding restores exactly the value that was
//     encoded — defaults stay implicit, as in Go code.
//
//   - The fingerprint is *canonical*: documented zero-value aliases
//     (Metric 0 ≡ MetricLinf, Placement 0 ≡ PlaceNone, Strategy 0 ≡
//     StrategyCrash, Retransmit < 1 ≡ 1) are normalized before hashing, so
//     two spellings of the same scenario share one cache entry.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/jsonscan"
)

// MarshalText encodes the protocol name ("flood", "cpa", "bv4", "bv2",
// "bracha", "bracha-auth"). The zero value encodes as "".
func (p Protocol) MarshalText() ([]byte, error) {
	return enumText("protocol", int(p), p.String())
}

// UnmarshalText decodes a protocol name; "" restores the zero value.
func (p *Protocol) UnmarshalText(text []byte) error {
	return enumParse(p, "protocol", protocolNames, text)
}

// MarshalText encodes the topology family name ("torus", "rgg", "custom").
// The zero value encodes as "".
func (t Topology) MarshalText() ([]byte, error) {
	return enumText("topology", int(t), t.String())
}

// UnmarshalText decodes a topology family name; "" restores the zero value.
func (t *Topology) UnmarshalText(text []byte) error {
	return enumParse(t, "topology", topologyNames, text)
}

// MarshalText encodes the metric name ("linf", "l2"). The zero value
// encodes as "".
func (m Metric) MarshalText() ([]byte, error) {
	return enumText("metric", int(m), m.String())
}

// UnmarshalText decodes a metric name; "" restores the zero value.
func (m *Metric) UnmarshalText(text []byte) error {
	return enumParse(m, "metric", metricNames, text)
}

// MarshalText encodes the placement name ("none", "band",
// "checkerboard-band", "greedy-band", "random-bounded", "percolation").
// The zero value encodes as "".
func (p Placement) MarshalText() ([]byte, error) {
	return enumText("placement", int(p), p.String())
}

// UnmarshalText decodes a placement name; "" restores the zero value.
func (p *Placement) UnmarshalText(text []byte) error {
	return enumParse(p, "placement", placementNames, text)
}

// MarshalText encodes the strategy name ("crash", "silent", "liar",
// "forger", "spoofer", "equivocator"). The zero value encodes as "".
func (s Strategy) MarshalText() ([]byte, error) {
	return enumText("strategy", int(s), s.String())
}

// UnmarshalText decodes a strategy name; "" restores the zero value.
func (s *Strategy) UnmarshalText(text []byte) error {
	return enumParse(s, "strategy", strategyNames, text)
}

// MarshalText encodes the event kind name ("broadcast", "delivery",
// "evidence-eval", "crash", "spoof", "commit"). The zero value encodes as
// "".
func (k EventKind) MarshalText() ([]byte, error) {
	return enumText("event kind", int(k), k.String())
}

// UnmarshalText decodes an event kind name; "" restores the zero value.
func (k *EventKind) UnmarshalText(text []byte) error {
	return enumParse(k, "event kind", eventKindNames, text)
}

// MarshalText encodes the commit rule name ("source", "direct", "quorum",
// "disjoint-chains", "votes", "flood", "ready-quorum"). The zero value
// encodes as "".
func (r CommitRule) MarshalText() ([]byte, error) {
	return enumText("commit rule", int(r), r.String())
}

// UnmarshalText decodes a commit rule name; "" restores the zero value.
func (r *CommitRule) UnmarshalText(text []byte) error {
	return enumParse(r, "commit rule", commitRuleNames, text)
}

// EncodeTrace writes the events as JSON Lines: one compact JSON object per
// event, each terminated by '\n'. The encoding is lossless — DecodeTrace
// restores exactly the slice that was encoded — and byte-deterministic for
// a given slice, so equal traces encode to equal bytes.
func EncodeTrace(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	for i := range events {
		line, err := json.Marshal(&events[i])
		if err != nil {
			return fmt.Errorf("rbcast: encoding trace event %d: %w", i, err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// DecodeTrace reads a JSON Lines trace produced by EncodeTrace. Blank
// lines are skipped; an empty stream decodes to nil.
func DecodeTrace(r io.Reader) ([]TraceEvent, error) {
	sc := bufio.NewScanner(r)
	// Commit events on dense grids carry whole chain families; allow
	// lines well beyond the 64 KiB scanner default.
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []TraceEvent
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev TraceEvent
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, fmt.Errorf("rbcast: decoding trace line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rbcast: reading trace: %w", err)
	}
	return events, nil
}

// enumText is the shared MarshalText body: zero encodes as "", names pass
// through, and the String() fallback spelling for out-of-range values
// (which always contains a parenthesis) is an encoding error rather than a
// payload that could never decode.
func enumText(kind string, raw int, name string) ([]byte, error) {
	if raw == 0 {
		return nil, nil
	}
	if strings.ContainsRune(name, '(') {
		return nil, fmt.Errorf("rbcast: cannot encode invalid %s %d", kind, raw)
	}
	return []byte(name), nil
}

// enumString is the shared String body: the value's entry in names, or
// the Type(n) fallback spelling for values outside the table.
func enumString[E ~int](typ string, names []string, v E) string {
	if v > 0 && int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", typ, int(v))
}

// enumParse is the shared UnmarshalText body: "" restores the zero value,
// a name in names its value; anything else is an error that leaves *dst
// unchanged.
func enumParse[E ~int](dst *E, kind string, names []string, text []byte) error {
	if len(text) == 0 {
		*dst = 0
		return nil
	}
	for v := 1; v < len(names); v++ {
		if names[v] == string(text) {
			*dst = E(v)
			return nil
		}
	}
	return fmt.Errorf("rbcast: unknown %s %q", kind, text)
}

// MarshalText encodes the node as "x,y", which also makes Node usable as a
// JSON map key (Result.Decisions).
func (n Node) MarshalText() ([]byte, error) {
	return appendNodeText(make([]byte, 0, 24), n), nil
}

// appendNodeText appends the "x,y" form.
func appendNodeText(b []byte, n Node) []byte {
	b = strconv.AppendInt(b, int64(n.X), 10)
	return strconv.AppendInt(append(b, ','), int64(n.Y), 10)
}

// UnmarshalText decodes the "x,y" form.
func (n *Node) UnmarshalText(text []byte) error {
	s := string(text)
	comma := strings.IndexByte(s, ',')
	if comma < 0 {
		return fmt.Errorf("rbcast: node %q is not of the form \"x,y\"", s)
	}
	x, errX := strconv.Atoi(s[:comma])
	y, errY := strconv.Atoi(s[comma+1:])
	if errX != nil || errY != nil {
		return fmt.Errorf("rbcast: node %q is not of the form \"x,y\"", s)
	}
	n.X, n.Y = x, y
	return nil
}

// plainResult is Result without its JSON methods. encoding/json encodes
// and decodes it by reflection: it is the reference MarshalJSON matches
// byte for byte, and UnmarshalJSON's fallback for every input its fast
// path does not take.
type plainResult Result

// MarshalJSON encodes r to exactly the bytes encoding/json produces for
// the Result struct (field order, omitempty rules, Metrics always present)
// without reflection. Decisions keys render as "x,y" and sort bytewise, as
// encoding/json sorts a TextMarshaler-keyed map. Trace, which only traced
// runs carry, is encoded by encoding/json.
func (r Result) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil)
}

// AppendJSON appends the bytes MarshalJSON returns to b, so an enclosing
// encoder can place them without a copy of its own.
func (r Result) AppendJSON(b []byte) ([]byte, error) {
	b = slices.Grow(b, 256+48*len(r.Decisions)+16*len(r.Faulty)+64*len(r.Metrics.PerRound))
	b = append(b, '{')
	b = appendIntField(b, `"honest":`, int64(r.Honest))
	b = appendIntField(b, `"correct":`, int64(r.Correct))
	b = appendIntField(b, `"wrong":`, int64(r.Wrong))
	b = appendIntField(b, `"undecided":`, int64(r.Undecided))
	b = appendIntField(b, `"faults":`, int64(r.Faults))
	b = appendIntField(b, `"max_faults_per_nbd":`, int64(r.MaxFaultsPerNbd))
	b = appendIntField(b, `"rounds":`, int64(r.Rounds))
	b = appendIntField(b, `"broadcasts":`, int64(r.Broadcasts))
	b = appendIntField(b, `"deliveries":`, int64(r.Deliveries))
	b = appendTrueField(b, `"quiesced":`, r.Quiesced)
	if len(r.Decisions) > 0 {
		b = appendDecisions(appendKey(b, `"decisions":`), r.Decisions)
	}
	if len(r.Faulty) > 0 {
		b = appendKey(b, `"faulty":`)
		for i, n := range r.Faulty {
			if i == 0 {
				b = append(b, '[')
			} else {
				b = append(b, ',')
			}
			b = appendNode(b, n)
		}
		b = append(b, ']')
	}
	m := r.Metrics
	b = append(appendKey(b, `"metrics":`), '{')
	b = appendIntField(b, `"evidence_evals":`, int64(m.EvidenceEvals))
	b = appendIntField(b, `"commits":`, int64(m.Commits))
	if len(m.PerRound) > 0 {
		b = appendKey(b, `"per_round":`)
		for i, rc := range m.PerRound {
			if i == 0 {
				b = append(b, '[', '{')
			} else {
				b = append(b, ',', '{')
			}
			b = appendIntField(b, `"broadcasts":`, int64(rc.Broadcasts))
			b = appendIntField(b, `"deliveries":`, int64(rc.Deliveries))
			b = appendIntField(b, `"evidence_evals":`, int64(rc.EvidenceEvals))
			b = appendIntField(b, `"commits":`, int64(rc.Commits))
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendIntField(b, `"wall_ns":`, int64(m.Wall))
	b = append(b, '}')
	if len(r.Trace) > 0 {
		trace, err := json.Marshal(r.Trace)
		if err != nil {
			return nil, err
		}
		b = append(appendKey(b, `"trace":`), trace...)
	}
	return append(b, '}'), nil
}

// appendKey appends a quoted key and its colon, preceded by a comma unless
// it opens its object.
func appendKey(b []byte, key string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	return append(b, key...)
}

// appendIntField appends an omitempty integer field.
func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(appendKey(b, key), v, 10)
}

// appendTrueField appends an omitempty boolean field.
func appendTrueField(b []byte, key string, v bool) []byte {
	if !v {
		return b
	}
	return append(appendKey(b, key), "true"...)
}

// appendNode appends n's text form as a JSON string.
func appendNode(b []byte, n Node) []byte {
	return append(appendNodeText(append(b, '"'), n), '"')
}

// appendDecisions appends the Decisions object with its "x,y" keys in
// bytewise order.
func appendDecisions(b []byte, decisions map[Node]Decision) []byte {
	b = append(b, '{')
	for _, n := range sortedNodes(decisions) {
		if b[len(b)-1] != '{' {
			b = append(b, ',')
		}
		d := decisions[n]
		b = append(appendNode(b, n), ':', '{')
		b = appendIntField(b, `"value":`, int64(d.Value))
		b = appendTrueField(b, `"decided":`, d.Decided)
		b = appendIntField(b, `"round":`, int64(d.Round))
		b = append(b, '}')
	}
	return append(b, '}')
}

// sortedNodes returns the Decisions keys in the bytewise order of their
// "x,y" text. That is the text order of X, then of Y: the comma after X
// sorts before any digit, so an X that is a prefix of another sorts first,
// as it does alone. Coordinates of up to 8 digits pack into one integer
// per node that sorts in that order; wider ones, which no topology small
// enough to simulate has, compare as text.
func sortedNodes(decisions map[Node]Decision) []Node {
	nodes := make([]Node, 0, len(decisions))
	keys := make([]uint64, 0, len(decisions))
	for n := range decisions {
		nodes = append(nodes, n)
		x, okX := packDecimal(n.X)
		y, okY := packDecimal(n.Y)
		if okX && okY {
			keys = append(keys, x<<31|y)
		}
	}
	if len(keys) < len(nodes) {
		// A coordinate too wide to pack: compare the text itself.
		slices.SortFunc(nodes, func(a, b Node) int {
			return bytes.Compare(appendNodeText(nil, a), appendNodeText(nil, b))
		})
		return nodes
	}
	slices.Sort(keys)
	for i, k := range keys {
		nodes[i] = Node{X: unpackDecimal(k >> 31), Y: unpackDecimal(k & (1<<31 - 1))}
	}
	return nodes
}

// pow10 holds 10^0 through 10^8.
var pow10 = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// packDecimal encodes v, if it has at most 8 digits, in 31 bits that
// order as strconv.Itoa(v) orders bytewise. The top bit is the sign ('-'
// sorts before every digit). Below it the magnitude, scaled to 8 digits
// (under 2^27), compares the digit strings left-aligned, and the digit
// count less one, in the low 3 bits, puts a prefix first.
func packDecimal(v int) (uint64, bool) {
	mag, sign := uint64(v), uint64(1)
	if v < 0 {
		mag, sign = -mag, 0
	}
	if mag >= pow10[8] {
		return 0, false
	}
	digits := 1
	for digits < 8 && mag >= pow10[digits] {
		digits++
	}
	return sign<<30 | mag*pow10[8-digits]<<3 | uint64(digits-1), true
}

// unpackDecimal inverts packDecimal.
func unpackDecimal(k uint64) int {
	digits := k&7 + 1
	mag := int(((k >> 3) & (1<<27 - 1)) / pow10[8-digits])
	if k>>30 == 0 {
		return -mag
	}
	return mag
}

// UnmarshalJSON decodes the shape MarshalJSON emits with a strict,
// reflection-free parser: any whitespace and key order, plain integers,
// true and false. Every other input (unknown or case-variant keys,
// escapes, floats, null, out-of-range numbers, a trace) goes to
// encoding/json on the same bytes, so what is accepted, the errors, and
// the merge into a non-zero receiver are encoding/json's.
func (r *Result) UnmarshalJSON(data []byte) error {
	saved := *r
	d := resultDecoder{jsonscan.Decoder{Data: data}}
	if d.result(r) {
		return nil
	}
	*r = saved
	return json.Unmarshal(data, (*plainResult)(r))
}

// resultDecoder is UnmarshalJSON's fast path over data. Each method
// reports false on the first byte it does not expect. Scalars it decodes
// in place, as encoding/json does, which merges into a non-zero receiver
// alike. encoding/json also decodes into a map or slice that is already
// non-nil, the receiver's or one an earlier repeat of the key built; the
// fast path only builds fresh ones, so it reports false for those.
type resultDecoder struct {
	jsonscan.Decoder
}

func (d *resultDecoder) result(r *Result) bool {
	return d.Object(func(key []byte) bool { return d.resultField(r, key) }) && d.AtEnd()
}

func (d *resultDecoder) resultField(r *Result, key []byte) bool {
	switch string(key) {
	case "honest":
		return d.Int(&r.Honest)
	case "correct":
		return d.Int(&r.Correct)
	case "wrong":
		return d.Int(&r.Wrong)
	case "undecided":
		return d.Int(&r.Undecided)
	case "faults":
		return d.Int(&r.Faults)
	case "max_faults_per_nbd":
		return d.Int(&r.MaxFaultsPerNbd)
	case "rounds":
		return d.Int(&r.Rounds)
	case "broadcasts":
		return d.Int(&r.Broadcasts)
	case "deliveries":
		return d.Int(&r.Deliveries)
	case "quiesced":
		return d.Bool(&r.Quiesced)
	case "decisions":
		if r.Decisions != nil {
			return false
		}
		// Every node has a decision, so Honest+Faults (when they came
		// first, as MarshalJSON puts them) sizes the map; each entry
		// takes at least 8 bytes, which bounds the hint by the input.
		hint := min(r.Honest+r.Faults, (len(d.Data)-d.Pos)/8)
		r.Decisions = make(map[Node]Decision, max(hint, 0))
		return d.Object(func(key []byte) bool {
			n, ok := parseNode(key)
			var dec Decision
			if !ok || !d.Object(func(key []byte) bool { return d.decisionField(&dec, key) }) {
				return false
			}
			r.Decisions[n] = dec
			return true
		})
	case "faulty":
		if r.Faulty != nil {
			return false
		}
		// Faults counts the list (when it came first, as MarshalJSON puts
		// it); each entry takes at least 5 bytes.
		r.Faulty = make([]Node, 0, max(min(r.Faults, (len(d.Data)-d.Pos)/5), 0))
		return d.Array(func() bool {
			s, ok := d.RawString()
			n, ok2 := parseNode(s)
			r.Faulty = append(r.Faulty, n)
			return ok && ok2
		})
	case "metrics":
		return d.Object(func(key []byte) bool { return d.metricsField(&r.Metrics, key, r.Rounds) })
	}
	return false
}

func (d *resultDecoder) decisionField(dec *Decision, key []byte) bool {
	switch string(key) {
	case "value":
		v, ok := d.Number(0, 255)
		dec.Value = byte(v)
		return ok
	case "decided":
		return d.Bool(&dec.Decided)
	case "round":
		return d.Int(&dec.Round)
	}
	return false
}

// metricsField reads one Metrics field; rounds is the Result's round
// count so far, which sizes PerRound.
func (d *resultDecoder) metricsField(m *Metrics, key []byte, rounds int) bool {
	switch string(key) {
	case "evidence_evals":
		return d.Int(&m.EvidenceEvals)
	case "commits":
		return d.Int(&m.Commits)
	case "per_round":
		if m.PerRound != nil {
			return false
		}
		// A run has a row per round from round 0; each row takes at
		// least 2 bytes.
		m.PerRound = make([]RoundMetrics, 0, max(min(rounds+1, (len(d.Data)-d.Pos)/2), 0))
		return d.Array(func() bool {
			var rc RoundMetrics
			ok := d.Object(func(key []byte) bool {
				switch string(key) {
				case "broadcasts":
					return d.Int(&rc.Broadcasts)
				case "deliveries":
					return d.Int(&rc.Deliveries)
				case "evidence_evals":
					return d.Int(&rc.EvidenceEvals)
				case "commits":
					return d.Int(&rc.Commits)
				}
				return false
			})
			m.PerRound = append(m.PerRound, rc)
			return ok
		})
	case "wall_ns":
		return d.Int64((*int64)(&m.Wall))
	}
	return false
}

// parseNode parses Node's "x,y" text form where the fast path can.
func parseNode(s []byte) (Node, bool) {
	comma := bytes.IndexByte(s, ',')
	if comma < 0 {
		return Node{}, false
	}
	x, okX := jsonscan.Decimal(s[:comma], math.MinInt, math.MaxInt)
	y, okY := jsonscan.Decimal(s[comma+1:], math.MinInt, math.MaxInt)
	return Node{X: int(x), Y: int(y)}, okX && okY
}

// fingerprintVersion prefixes every canonical serialization; bump it
// whenever the encoding below changes shape, so stale caches miss instead
// of serving results computed under different semantics.
const fingerprintVersion = "rbcast/fp/v1"

// Fingerprint returns the canonical scenario fingerprint: the hex SHA-256
// of a versioned, field-ordered serialization of (Config, Plan). It is
// deterministic across processes, releases and hosts, so it can key
// persistent result caches; rbcastd uses it for its LRU cache and
// single-flight deduplication.
//
// Scenarios that differ only in a documented zero-value alias (Metric 0 vs
// MetricLinf, Placement 0 vs PlaceNone, Strategy 0 vs StrategyCrash,
// Retransmit 0 vs 1) fingerprint identically; any semantic field change
// yields a different fingerprint. Invalid enum values still fingerprint
// (via their numeric fallback spelling) — validation is Run's job, not the
// hash's.
func (j Job) Fingerprint() string {
	sum := sha256.Sum256(j.canonical())
	return hex.EncodeToString(sum[:])
}

// canonical renders the versioned serialization Fingerprint hashes. Fields
// appear in fixed order under fixed names; floats use the exact hex form so
// no two distinct values collide and no formatting mode drifts.
func (j Job) canonical() []byte {
	c, p := j.Config, j.Plan
	if c.Metric == 0 {
		c.Metric = MetricLinf
	}
	if c.Retransmit < 1 {
		c.Retransmit = 1
	}
	if p.Placement == 0 {
		p.Placement = PlaceNone
	}
	if p.Strategy == 0 {
		p.Strategy = StrategyCrash
	}
	var b strings.Builder
	b.WriteString(fingerprintVersion)
	b.WriteByte('\n')
	fmt.Fprintf(&b,
		"config:width=%d;height=%d;radius=%d;metric=%s;protocol=%s;t=%d;value=%d;source_x=%d;source_y=%d;max_rounds=%d;concurrent=%t;exact_evidence=%t;loss_rate=%s;retransmit=%d;medium_seed=%d;spoofing_possible=%t;lock_step=%t\n",
		c.Width, c.Height, c.Radius, c.Metric, c.Protocol, c.T, c.Value,
		c.SourceX, c.SourceY, c.MaxRounds, c.Concurrent, c.ExactEvidence,
		canonicalFloat(c.LossRate), c.Retransmit, c.MediumSeed,
		c.SpoofingPossible, c.LockStep)
	fmt.Fprintf(&b,
		"plan:placement=%s;strategy=%s;budget=%d;count=%d;probability=%s;crash_round=%d;seed=%d\n",
		p.Placement, p.Strategy, p.Budget, p.Count,
		canonicalFloat(p.Probability), p.CrashRound, p.Seed)
	// Trace joined the Config after fp/v1 shipped; a conditional trailer
	// keeps every pre-existing (untraced) scenario's fingerprint stable
	// while still separating traced results (which carry Result.Trace)
	// from untraced ones in caches.
	if c.Trace {
		b.WriteString("trace:enabled\n")
	}
	// Topology families joined after fp/v1 shipped and follow the same
	// conditional-trailer discipline: torus scenarios (Topology zero or
	// TopologyTorus — a documented alias) emit nothing, so every
	// pre-family fingerprint is stable, while the non-torus families hash
	// their defining parameters. Custom graphs hash a canonical edge list
	// (endpoints low-first, lexicographically sorted) so any spelling of
	// the same graph shares a cache entry.
	if c.Topology != 0 && c.Topology != TopologyTorus {
		fmt.Fprintf(&b, "topology:family=%s;nodes=%d;rgg_radius=%s;topology_seed=%d;source=%d\n",
			c.Topology, c.Nodes, canonicalFloat(c.RGGRadius), c.TopologySeed, c.Source)
		if c.Graph != nil {
			fmt.Fprintf(&b, "graph:nodes=%d;edges=%s\n", c.Graph.Nodes, canonicalEdges(c.Graph.Edges))
		}
	}
	return []byte(b.String())
}

// executionKeyVersion prefixes execution keys; bump it whenever the
// normalization rules below change.
const executionKeyVersion = "rbcast/exec/v1"

// executionKey returns the canonical *execution* identity of a job: two
// valid jobs with equal keys produce byte-identical Results (Metrics.Wall
// aside), because they differ only in parameters the execution provably
// never consumes. The sweep engine (sweep.go) groups grid elements by this
// key so each distinct execution is simulated once.
//
// The key is strictly coarser than Fingerprint: beyond the fingerprint's
// zero-value aliases it erases parameters that are dead for the specific
// scenario. Every normalization below is justified against the actual data
// flow (faultplan.go materialize, sim.Engine, the protocol factories); when
// in doubt a parameter is kept, which only costs sharing, never correctness.
// Keys of invalid jobs may collide across differently-invalid spellings;
// that is fine because grouped elements share the representative's
// validation error too.
func (j Job) executionKey() string {
	c, p := j.Config, j.Plan
	placement := p.Placement
	if placement == 0 {
		placement = PlaceNone
	}
	strategy := p.Strategy
	if strategy == 0 {
		strategy = StrategyCrash
	}
	validStrategy := strategy >= StrategyCrash && strategy <= StrategyEquivocator
	// Placement-dead knobs. Seed only feeds the randomized placements
	// (random-bounded, percolation); Count only random-bounded;
	// Probability only percolation; Budget only the budgeted placements
	// (greedy-band, random-bounded).
	if placement != PlaceRandomBounded && placement != PlacePercolation {
		p.Seed = 0
	}
	if placement != PlaceRandomBounded {
		p.Count = 0
	}
	if placement != PlacePercolation {
		p.Probability = 0
	}
	budgeted := placement == PlaceGreedyBand || placement == PlaceRandomBounded
	if !budgeted {
		p.Budget = 0
	}
	// With no faults placed, the strategy and crash schedule act on an
	// empty set: any *valid* strategy behaves identically (an invalid one
	// still errors, so it must keep its own key).
	if placement == PlaceNone && validStrategy {
		p.Strategy = StrategyCrash
		p.CrashRound = 0
	}
	// CrashRound is consumed only by StrategyCrash (materialize builds the
	// crash map from it); the Byzantine strategies ignore it.
	if validStrategy && strategy != StrategyCrash {
		p.CrashRound = 0
	}
	// Flood ignores T in the protocol (§VII: reachability is the sole
	// criterion) and Result never echoes it — but T still resolves the
	// fault budget when a budgeted placement runs with Budget 0, and
	// validation rejects T < 0, so only the provably-dead case collapses.
	if c.Protocol == ProtocolFlood && c.T > 0 && !(budgeted && p.Budget == 0) {
		c.T = 0
	}
	// The medium's rng exists only when LossRate > 0, so MediumSeed is dead
	// on the ideal medium — except under Concurrent, where validation
	// rejects a nonzero MediumSeed outright.
	if c.LossRate == 0 && !c.Concurrent {
		c.MediumSeed = 0
	}
	return executionKeyVersion + "\n" + string(Job{Config: c, Plan: p}.canonical())
}

// canonicalEdges renders an undirected edge list canonically: each edge
// low-endpoint-first, the list sorted, rendered "a-b,c-d".
func canonicalEdges(edges [][2]int) string {
	norm := make([][2]int, len(edges))
	for i, e := range edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		norm[i] = [2]int{a, b}
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i][0] != norm[j][0] {
			return norm[i][0] < norm[j][0]
		}
		return norm[i][1] < norm[j][1]
	})
	var b strings.Builder
	for i, e := range norm {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(e[0]))
		b.WriteByte('-')
		b.WriteString(strconv.Itoa(e[1]))
	}
	return b.String()
}

// canonicalFloat renders a float exactly (hexadecimal mantissa/exponent),
// immune to decimal rounding differences. −0 renders as 0: every float
// field treats the two alike, so they share one fingerprint.
func canonicalFloat(f float64) string {
	if f == 0 {
		f = 0
	}
	return strconv.FormatFloat(f, 'x', -1, 64)
}
