// Package bench defines the one machine-readable result document every
// benchmark command emits (-bench-json): a flat list of named metrics,
// each with a unit and the direction in which it is better. Every value
// is a function of the seed and the configuration — virtual time and
// exact counts only, nothing the host machine can move — so a document
// is compared with its committed golden byte for byte, and `diff` of two
// documents, one metric per line, is the report. Host speed is measured
// by benchmark/ (go -C benchmark run .), not here.
package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"resilientos/internal/obs"
	"resilientos/internal/sim"
)

// Schema identifies the document shape; readers reject any other.
const Schema = "resilientos/bench/metrics/v1"

// Directions a metric can be better in.
const (
	Higher = "higher"
	Lower  = "lower"
)

// Metric is one named scalar. Name is a '/'-separated path over
// [a-z0-9_./=-], unique within its document.
type Metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
}

// Doc is the bench document: which command produced it, the parameters
// that select the run, and the metrics in the producer's own order.
type Doc struct {
	Schema  string            `json:"schema"`
	Source  string            `json:"source"`
	Params  map[string]string `json:"params"`
	Metrics []Metric          `json:"metrics"`
}

// New returns an empty document of the current schema.
func New(source string, params map[string]string) Doc {
	return Doc{Schema: Schema, Source: source, Params: params}
}

// Add appends one metric.
func (d *Doc) Add(name string, v float64, unit, better string) {
	d.Metrics = append(d.Metrics, Metric{Name: name, Value: v, Unit: unit, Better: better})
}

// Count appends an exact count. Counts say what a run did, not how well,
// so the direction is only nominal.
func (d *Doc) Count(name string, n int) {
	d.Add(name, float64(n), "count", Lower)
}

// Latency appends a latency distribution in virtual milliseconds as
// <stem>_count and, unless it is empty, <stem>_{mean,p50,p95,p99,max}_ms.
func (d *Doc) Latency(stem string, s obs.LatencySummary) {
	d.Count(stem+"_count", s.Count)
	if s.Count == 0 {
		return
	}
	add := func(q string, t sim.Time) { d.Add(stem+"_"+q+"_ms", float64(t)/1e6, "virt_ms", Lower) }
	add("mean", s.Mean)
	add("p50", s.P50)
	add("p95", s.P95)
	add("p99", s.P99)
	add("max", s.Max)
}

// Value returns the named metric's value.
func (d Doc) Value(name string) (float64, bool) {
	for _, m := range d.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// validate holds what both directions enforce, so nothing WriteFile
// accepts is refused by ReadFile.
func (d Doc) validate() error {
	if d.Schema != Schema {
		return fmt.Errorf("bench: schema %q, want %q", d.Schema, Schema)
	}
	seen := make(map[string]bool, len(d.Metrics))
	for _, m := range d.Metrics {
		if m.Name == "" {
			return errors.New("bench: metric without a name")
		}
		for _, c := range []byte(m.Name) {
			switch {
			case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
			case c == '_', c == '.', c == '/', c == '=', c == '-':
			default:
				return fmt.Errorf("bench: metric name %q: byte %q outside [a-z0-9_./=-]", m.Name, c)
			}
		}
		if seen[m.Name] {
			return fmt.Errorf("bench: duplicate metric %q", m.Name)
		}
		seen[m.Name] = true
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("bench: metric %q is %v", m.Name, m.Value)
		}
		if m.Better != Higher && m.Better != Lower {
			return fmt.Errorf("bench: metric %q: better %q, want %q or %q", m.Name, m.Better, Higher, Lower)
		}
	}
	return nil
}

// encode renders the canonical bytes: header fields on a line each
// (params with sorted keys), then one metric per line.
func encode(d Doc) ([]byte, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	if d.Params == nil {
		d.Params = map[string]string{}
	}
	source, err := json.Marshal(d.Source)
	if err != nil {
		return nil, err
	}
	params, err := json.Marshal(d.Params)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\n  \"schema\": %q,\n  \"source\": %s,\n  \"params\": %s,\n  \"metrics\": [",
		Schema, source, params)
	for i, m := range d.Metrics {
		b, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString("\n    ")
		buf.Write(b)
	}
	buf.WriteString("\n  ]\n}\n")
	return buf.Bytes(), nil
}

// parse is the strict reader: unknown schema, unknown fields, trailing
// data and every validate rule are errors, never panics.
func parse(b []byte) (Doc, error) {
	var d Doc
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return Doc{}, fmt.Errorf("bench: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Doc{}, errors.New("bench: data after the document")
	}
	if err := d.validate(); err != nil {
		return Doc{}, err
	}
	return d, nil
}

// WriteFile writes d to path in the canonical encoding.
func WriteFile(path string, d Doc) error {
	b, err := encode(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadFile reads and strictly validates the document at path.
func ReadFile(path string) (Doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Doc{}, err
	}
	d, err := parse(b)
	if err != nil {
		return Doc{}, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
