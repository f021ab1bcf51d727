package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"odp/internal/wire"
)

// Rule is one armed service-level objective, evaluated against every
// Recorder sample. Two shapes exist: a ceiling (breach when the watched
// key exceeds Max — a dispatch p99 ceiling arms against
// "rpc.server.dispatch_p99") and a zero-progress stall (breach when the
// watched counter advances by nothing for StallWindows consecutive
// samples — liveness, not latency). Build rules with CeilingRule and
// StallRule.
type Rule struct {
	// Name labels the rule in breach reports.
	Name string
	// Key is the metric the rule watches, named as Gather exports it.
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
	// Delta is the signed movement of every count across the breaching
	// window under its exported name, zero movements dropped.
	Delta map[string]int64
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
	delta := make(wire.Record, len(r.Delta))
	for k, d := range r.Delta {
		delta[k] = d
	}
	return wire.Record{
		"seq":       r.Seq,
		"rule":      r.Rule.Name,
		"key":       r.Rule.Key,
		"value":     r.Value,
		"at":        r.At.UnixNano(),
		"window_us": uint64(r.Window / time.Microsecond),
		"delta":     delta,
		"spans":     SpansToList(r.Spans),
		"text":      r.Format(),
	}
}

// FlightStats counts the recorder's rule activity for the unified
// snapshot (folded under "blackbox" on a node with armed rules).
type FlightStats struct {
	// Breaches counts rule firings since start.
	Breaches uint64
	// Retained counts reports currently held in the ring.
	Retained uint64
	// Rules counts armed rules.
	Rules uint64
}

const (
	flightDepth     = 8  // breach reports retained
	flightSpanLimit = 16 // trailing spans captured per breach report
)

// checkLocked evaluates every rule against the newest sample.
func (r *Recorder) checkLocked() {
	for i, rule := range r.rules {
		if rule.stall() {
			if r.prev.Metrics == nil {
				continue
			}
			// A key that is absent or no count in either sample is no
			// counter standing still: it resets the run, as absence
			// re-arms a ceiling.
			v, n, isCount, _ := r.cur.Metrics.lookup(rule.Key)
			_, pn, wasCount, _ := r.prev.Metrics.lookup(rule.Key)
			if !isCount || !wasCount || n != pn {
				r.stallRuns[i] = 0
				continue
			}
			r.stallRuns[i]++
			if r.stallRuns[i] >= rule.StallWindows {
				r.stallRuns[i] = 0
				r.captureLocked(rule, v)
			}
			continue
		}
		v, _, _, ok := r.cur.Metrics.lookup(rule.Key)
		if !ok || v <= rule.Max {
			r.tripped[i] = false
			continue
		}
		if r.tripped[i] {
			continue // still the same excursion
		}
		r.tripped[i] = true
		r.captureLocked(rule, v)
	}
}

// captureLocked commits one breach report on the newest window.
func (r *Recorder) captureLocked(rule Rule, value float64) {
	r.seq++
	rep := BreachReport{
		Seq:   r.seq,
		Rule:  rule,
		At:    r.cur.At,
		Value: value,
		Delta: delta(r.prev.Metrics, r.cur.Metrics),
	}
	if r.prev.Metrics != nil {
		rep.Window = r.cur.At.Sub(r.prev.At)
	}
	if r.col != nil {
		spans := r.col.Snapshot()
		if len(spans) > flightSpanLimit {
			spans = spans[len(spans)-flightSpanLimit:]
		}
		rep.Spans = spans
	}
	r.reports.push(rep)
}

// Reports returns the retained breach reports, oldest first.
func (r *Recorder) Reports() []BreachReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reports.list()
}

// ReportsList renders the retained reports for the management
// "blackbox" op, oldest first.
func (r *Recorder) ReportsList() wire.List {
	reps := r.Reports()
	out := make(wire.List, len(reps))
	for i, rep := range reps {
		out[i] = rep.Record()
	}
	return out
}

// Stats snapshots the rule counters.
func (r *Recorder) Stats() FlightStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return FlightStats{
		Breaches: r.seq,
		Retained: uint64(r.reports.len()),
		Rules:    uint64(len(r.rules)),
	}
}
