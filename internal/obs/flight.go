package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"odp/internal/wire"
)

// Rule is one armed service-level objective, evaluated against every
// Recorder sample. Two shapes exist: a ceiling (breach when the watched
// Gather key exceeds Max — a dispatch p99 ceiling arms against
// "rpc.server.dispatch_p99") and a zero-progress stall (breach when the
// watched counter advances by nothing for StallWindows consecutive
// samples — liveness, not latency). Build rules with CeilingRule and
// StallRule.
type Rule struct {
	// Name labels the rule in breach reports.
	Name string
	// Key is the Gather key the rule watches.
	Key string
	// Max is the ceiling; the rule breaches when the key's value
	// exceeds it. Ignored for stall rules.
	Max float64
	// StallWindows, when > 0, makes this a stall rule: breach after
	// this many consecutive samples with zero movement on Key.
	StallWindows int
}

// CeilingRule arms a maximum on a Gather key (latency quantiles,
// queue depths).
func CeilingRule(name, key string, max float64) Rule {
	return Rule{Name: name, Key: key, Max: max}
}

// StallRule arms a zero-progress watchdog on a counter key: windows
// consecutive samples without movement is a breach.
func StallRule(name, key string, windows int) Rule {
	if windows < 1 {
		windows = 1
	}
	return Rule{Name: name, Key: key, StallWindows: windows}
}

// stall reports the rule's shape.
func (r Rule) stall() bool { return r.StallWindows > 0 }

// BreachReport is the black box captured when a rule fires: what
// triggered, when, the numeric movement of the breaching window, and
// the last spans the collector retained — enough to reconstruct what
// the node was doing without having had a debugger attached. Every
// field is deterministic under the fake clock, so a seeded simulation
// reproduces reports byte-for-byte (Format output included).
type BreachReport struct {
	// Seq numbers reports in capture order, starting at 1.
	Seq uint64
	// Rule is the objective that fired.
	Rule Rule
	// At is the sample instant that breached.
	At time.Time
	// Value is the watched key's value at capture (for stall rules,
	// the stuck counter's value).
	Value float64
	// Window is the breaching window's width (zero on a first sample).
	Window time.Duration
	// Delta is the numeric movement across the breaching window
	// (DeltaRecord of its two samples).
	Delta wire.Record
	// Spans are the most recent spans at capture, oldest first.
	Spans []Span
}

// Format renders the report as byte-stable text: fixed field order,
// sorted delta keys, and the span forest rendered by FormatForest. Sim
// scenarios assert on this exactly like trace hashes.
func (r BreachReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "blackbox #%d rule=%s key=%s value=%s at=%s window=%s\n",
		r.Seq, r.Rule.Name, r.Rule.Key,
		strconv.FormatFloat(r.Value, 'g', -1, 64),
		r.At.UTC().Format(time.RFC3339Nano), r.Window)
	keys := make([]string, 0, len(r.Delta))
	for k := range r.Delta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  delta %s %+d\n", k, r.Delta[k])
	}
	if forest := FormatForest(r.Spans); forest != "" {
		b.WriteString("  spans:\n")
		for _, line := range strings.Split(strings.TrimRight(forest, "\n"), "\n") {
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Record renders the report for the management "blackbox" op. The
// structured fields travel beside the pre-rendered deterministic text,
// so a remote inspector can either parse or print verbatim.
func (r BreachReport) Record() wire.Record {
	return wire.Record{
		"seq":       r.Seq,
		"rule":      r.Rule.Name,
		"key":       r.Rule.Key,
		"value":     r.Value,
		"at":        r.At.UnixNano(),
		"window_us": uint64(r.Window / time.Microsecond),
		"delta":     r.Delta,
		"spans":     SpansToList(r.Spans),
		"text":      r.Format(),
	}
}

// FlightStats counts flight-recorder activity for the unified snapshot
// (folded under "blackbox").
type FlightStats struct {
	// Breaches counts rule firings since start.
	Breaches uint64
	// Retained counts reports currently held in the ring.
	Retained uint64
	// Rules counts armed rules.
	Rules uint64
}

// FlightRecorder is the anomaly watchdog: it evaluates armed rules
// against every Recorder sample and, on a breach, captures a
// BreachReport into a bounded ring fetchable via the management
// "blackbox" op. Ceiling rules are edge-triggered — one report per
// excursion above the ceiling, re-armed when the value recovers — and
// stall rules re-arm after firing, so a persistent anomaly fills the
// ring with distinct excursions instead of one report per sample.
type FlightRecorder struct {
	col   *Collector
	rules []Rule

	mu        sync.Mutex
	ring      []BreachReport // flightDepth reports
	pos       int
	count     int
	seq       uint64
	tripped   []bool // ceiling rules: currently above the ceiling
	stallRuns []int  // stall rules: consecutive zero-delta windows
}

const (
	flightDepth     = 8  // breach reports retained
	flightSpanLimit = 16 // trailing spans captured per breach report
)

// NewFlightRecorder arms rules against rec's samples. col supplies the
// span ring for reports; nil (an untraced node) yields span-less
// reports.
func NewFlightRecorder(rec *Recorder, col *Collector, rules []Rule) *FlightRecorder {
	f := &FlightRecorder{
		col:       col,
		rules:     append([]Rule(nil), rules...),
		ring:      make([]BreachReport, flightDepth),
		tripped:   make([]bool, len(rules)),
		stallRuns: make([]int, len(rules)),
	}
	rec.OnSample(f.observe)
	return f
}

// observe evaluates every rule against one fresh sample. Runs on the
// recorder's sampling goroutine.
func (f *FlightRecorder) observe(prev, cur Sample, hasPrev bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, rule := range f.rules {
		if rule.stall() {
			if !hasPrev {
				continue
			}
			// A key that is absent or not an integer in either sample is
			// no counter standing still: it resets the run, as absence
			// re-arms a ceiling.
			cv, cok := toInt(cur.Rec[rule.Key])
			pv, pok := toInt(prev.Rec[rule.Key])
			if !cok || !pok || cv != pv {
				f.stallRuns[i] = 0
				continue
			}
			f.stallRuns[i]++
			if f.stallRuns[i] >= rule.StallWindows {
				f.stallRuns[i] = 0
				f.captureLocked(rule, prev, cur, hasPrev, float64(cv))
			}
			continue
		}
		v, ok := toFloat(cur.Rec[rule.Key])
		if !ok || v <= rule.Max {
			f.tripped[i] = false
			continue
		}
		if f.tripped[i] {
			continue // still the same excursion
		}
		f.tripped[i] = true
		f.captureLocked(rule, prev, cur, hasPrev, v)
	}
}

// captureLocked commits one breach report to the ring.
func (f *FlightRecorder) captureLocked(rule Rule, prev, cur Sample, hasPrev bool, value float64) {
	f.seq++
	rep := BreachReport{
		Seq:   f.seq,
		Rule:  rule,
		At:    cur.At,
		Value: value,
		Delta: DeltaRecord(prev.Rec, cur.Rec),
	}
	if hasPrev {
		rep.Window = cur.At.Sub(prev.At)
	}
	if f.col != nil {
		spans := f.col.Snapshot()
		if len(spans) > flightSpanLimit {
			spans = spans[len(spans)-flightSpanLimit:]
		}
		rep.Spans = spans
	}
	f.ring[f.pos] = rep
	f.pos++
	if f.pos == len(f.ring) {
		f.pos = 0
	}
	if f.count < len(f.ring) {
		f.count++
	}
}

// Reports returns the retained breach reports, oldest first.
func (f *FlightRecorder) Reports() []BreachReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]BreachReport, 0, f.count)
	start := f.pos - f.count
	if start < 0 {
		start += len(f.ring)
	}
	for i := 0; i < f.count; i++ {
		out = append(out, f.ring[(start+i)%len(f.ring)])
	}
	return out
}

// ReportsList renders the retained reports for the management
// "blackbox" op, oldest first.
func (f *FlightRecorder) ReportsList() wire.List {
	reps := f.Reports()
	out := make(wire.List, len(reps))
	for i, r := range reps {
		out[i] = r.Record()
	}
	return out
}

// Stats snapshots flight-recorder counters.
func (f *FlightRecorder) Stats() FlightStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FlightStats{
		Breaches: f.seq,
		Retained: uint64(f.count),
		Rules:    uint64(len(f.rules)),
	}
}

// toFloat widens any numeric wire value to float64 (rule evaluation
// compares latencies and counters alike).
func toFloat(v interface{}) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case uint64:
		return float64(n), true
	case int64:
		return float64(n), true
	case int:
		return float64(n), true
	}
	return 0, false
}
