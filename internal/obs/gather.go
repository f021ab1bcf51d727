package obs

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"odp/internal/wire"
)

// Metrics is a node's typed metric snapshot, the one form Gather and the
// recorder read in process: counters are uint64, gauges float64 and
// latencies histogram snapshots, each keyed by its exported name. A
// wire.Record exists only as Export's output — the form management
// readers outside the process see.
type Metrics struct {
	// Counters are counts that only grow.
	Counters map[string]uint64
	// Gauges are point readings; a rollup sums them.
	Gauges map[string]float64
	// Latency holds the latency histograms, keyed by stage.
	Latency map[string]HistogramSnapshot
}

// NewMetrics returns an empty snapshot.
func NewMetrics() *Metrics {
	return &Metrics{
		Counters: make(map[string]uint64),
		Gauges:   make(map[string]float64),
		Latency:  make(map[string]HistogramSnapshot),
	}
}

// Merge adds o into m: counters and gauges sum, histograms merge
// bucket-wise. A domain rollup is its members merged in turn, so a
// rollup's quantiles are those of the merged distribution.
func (m *Metrics) Merge(o *Metrics) {
	for k, v := range o.Counters {
		m.Counters[k] += v
	}
	for k, v := range o.Gauges {
		m.Gauges[k] += v
	}
	for k, s := range o.Latency {
		acc := m.Latency[k]
		acc.Merge(s)
		m.Latency[k] = acc
	}
}

// Export writes m into rec with every key under prefix: counters as
// uint64, gauges as float64 and each histogram through FoldLatency.
func (m *Metrics) Export(rec wire.Record, prefix string) {
	for k, v := range m.Counters {
		rec[prefix+k] = v
	}
	for k, v := range m.Gauges {
		rec[prefix+k] = v
	}
	for k, s := range m.Latency {
		FoldLatency(rec, prefix+k, s)
	}
}

// lookup reads key as Export names it — a counter, a gauge,
// "<stage>_count", a non-empty histogram's "<stage>_p50/_p90/_p99" or a
// non-zero bucket's "<stage>_hist.<i>" — into v, and a count (counter,
// histogram count or bucket) into n as well; ok is false for other keys.
func (m *Metrics) lookup(key string) (v float64, n uint64, count, ok bool) {
	if c, ok := m.Counters[key]; ok {
		return float64(c), c, true, true
	}
	if g, ok := m.Gauges[key]; ok {
		return g, 0, false, true
	}
	if s, ok := m.Latency[strings.TrimSuffix(key, "_count")]; ok && strings.HasSuffix(key, "_count") {
		return float64(s.Count()), s.Count(), true, true
	}
	if base, i, ok := splitHistKey(key); ok && m.Latency[base].Buckets[i] > 0 {
		b := m.Latency[base].Buckets[i]
		return float64(b), b, true, true
	}
	for _, q := range quantileKeys {
		if base, ok := strings.CutSuffix(key, q.suffix); ok && m.Latency[base].Count() > 0 {
			return m.Latency[base].Quantile(q.q), 0, false, true
		}
	}
	return 0, 0, false, false
}

// Fold flattens the exported uint64 (and [N]uint64 histogram) fields of a
// stats struct into m's counters under prefix, converting CamelCase
// field names to snake_case: ClientStats.AcksPiggybacked folded under
// "rpc.client" becomes "rpc.client.acks_piggybacked". Every per-layer
// stats struct in the platform is shaped for this (and read by Load),
// which is what lets the management interface expose one unified
// namespace instead of n bespoke snapshot ops.
func Fold(m *Metrics, prefix string, stats interface{}) {
	v := reflect.ValueOf(stats)
	for v.Kind() == reflect.Ptr {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.PkgPath != "" { // unexported
			continue
		}
		key := prefix + "." + snakeCase(f.Name)
		fv := v.Field(i)
		switch {
		case fv.Kind() == reflect.Uint64:
			m.Counters[key] = fv.Uint()
		case fv.Kind() == reflect.Array && fv.Type().Elem().Kind() == reflect.Uint64:
			for j := 0; j < fv.Len(); j++ {
				m.Counters[fmt.Sprintf("%s.%d", key, j)] = fv.Index(j).Uint()
			}
		}
	}
}

// Load reads a stats struct its owner counts into in place, with
// atomic.AddUint64 on its fields: every exported uint64 and [N]uint64
// field — the shapes Fold folds — is loaded atomically, and every other
// field of the result is left zero for the owner to compute. So the
// exported struct is the one declaration of a layer's counters, and a
// new field is counted, read and folded without another edit. T must be
// a struct; like the adds, the loads need p's words 64-bit aligned on
// 32-bit platforms.
func Load[T any](p *T) T {
	var out T
	src, dst := reflect.ValueOf(p).Elem(), reflect.ValueOf(&out).Elem()
	word := func(v reflect.Value) *uint64 { return (*uint64)(v.Addr().UnsafePointer()) }
	for i := 0; i < src.NumField(); i++ {
		f := src.Field(i)
		if !f.CanInterface() { // unexported
			continue
		}
		switch {
		case f.Kind() == reflect.Uint64:
			*word(dst.Field(i)) = atomic.LoadUint64(word(f))
		case f.Kind() == reflect.Array && f.Type().Elem().Kind() == reflect.Uint64:
			for j := 0; j < f.Len(); j++ {
				*word(dst.Field(i).Index(j)) = atomic.LoadUint64(word(f.Index(j)))
			}
		}
	}
	return out
}

// snakeCase converts an exported Go field name to its metric key form.
func snakeCase(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 4)
	for i, r := range name {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// Record renders the span as a wire record so the management interface
// can ship it to a remote inspector (odptop). Timestamps travel as
// UnixNano so virtual-clock spans round-trip exactly.
func (s Span) Record() wire.Record {
	return wire.Record{
		"trace":  s.TraceID,
		"span":   s.SpanID,
		"parent": s.ParentID,
		"kind":   s.Kind,
		"name":   s.Name,
		"node":   s.Node,
		"start":  s.Start.UnixNano(),
		"end":    s.End.UnixNano(),
	}
}

// SpanFromRecord is the inverse of Span.Record. Missing or mistyped
// fields decode to zero values; a record without a trace id yields an
// invalid span the caller can drop.
func SpanFromRecord(rec wire.Record) Span {
	u := func(k string) uint64 { v, _ := rec[k].(uint64); return v }
	str := func(k string) string { v, _ := rec[k].(string); return v }
	ns := func(k string) time.Time { v, _ := rec[k].(int64); return time.Unix(0, v).UTC() }
	return Span{
		TraceID:  u("trace"),
		SpanID:   u("span"),
		ParentID: u("parent"),
		Kind:     str("kind"),
		Name:     str("name"),
		Node:     str("node"),
		Start:    ns("start"),
		End:      ns("end"),
	}
}

// SpansToList renders a span snapshot as a wire list of records.
func SpansToList(spans []Span) wire.List {
	out := make(wire.List, 0, len(spans))
	for _, s := range spans {
		out = append(out, s.Record())
	}
	return out
}

// SpansFromList decodes a wire list produced by SpansToList, dropping
// anything malformed.
func SpansFromList(l wire.List) []Span {
	out := make([]Span, 0, len(l))
	for _, v := range l {
		rec, ok := v.(wire.Record)
		if !ok {
			continue
		}
		if s := SpanFromRecord(rec); s.TraceID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// FormatForest renders spans (possibly merged from several nodes) as a
// deterministic ASCII forest: one tree per trace id, children indented
// under parents, siblings ordered by start instant then span id. Spans
// whose parent is absent from the set (still in flight, or evicted from
// a ring) are promoted to roots of their trace so nothing is silently
// dropped. The output is byte-stable for a fixed span set — the sim
// determinism test hashes it.
func FormatForest(spans []Span) string {
	if len(spans) == 0 {
		return ""
	}
	sorted := append([]Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.TraceID != b.TraceID {
			return a.TraceID < b.TraceID
		}
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.SpanID < b.SpanID
	})

	present := make(map[uint64]bool, len(sorted))
	for _, s := range sorted {
		present[s.SpanID] = true
	}
	children := make(map[uint64][]Span)
	var roots []Span
	for _, s := range sorted {
		if s.ParentID != 0 && present[s.ParentID] && s.ParentID != s.SpanID {
			children[s.ParentID] = append(children[s.ParentID], s)
		} else {
			roots = append(roots, s)
		}
	}

	var b strings.Builder
	var lastTrace uint64
	var render func(s Span, depth int)
	render = func(s Span, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s %s@%s [%016x/%016x] %s +%s\n",
			s.Kind, s.Name, s.Node, s.TraceID, s.SpanID,
			s.Start.UTC().Format(time.RFC3339Nano), s.Duration())
		for _, c := range children[s.SpanID] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		if r.TraceID != lastTrace {
			if lastTrace != 0 {
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "trace %016x\n", r.TraceID)
			lastTrace = r.TraceID
		}
		render(r, 1)
	}
	return b.String()
}
