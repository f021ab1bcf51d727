package obs

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/wire"
)

// The recorder once sampled the exported record and widened its values
// back to numbers. recInt, recFloat, recRates, recDelta and recRules
// keep those semantics here, over Export's output, as the oracle the
// typed recorder is checked against.

func recInt(v interface{}) (int64, bool) {
	switch n := v.(type) {
	case uint64:
		return int64(n), true
	case int64:
		return n, true
	case int:
		return int64(n), true
	}
	return 0, false
}

func recFloat(v interface{}) (float64, bool) {
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

// recRates is Series' rate loop over records, histogram-bucket filter
// included.
func recRates(prev, cur wire.Record, secs float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range cur {
		if strings.Contains(k, histBucketInfix) {
			continue
		}
		c, ok := recInt(v)
		if !ok {
			continue
		}
		p, _ := recInt(prev[k])
		out[k+"_per_sec"] = float64(c-p) / secs
	}
	return out
}

func recDelta(prev, cur wire.Record) map[string]int64 {
	out := map[string]int64{}
	for k, v := range cur {
		c, ok := recInt(v)
		if !ok {
			continue
		}
		p, _ := recInt(prev[k])
		if d := c - p; d != 0 {
			out[k] = d
		}
	}
	return out
}

// recRules is the rule pass over records: each pass returns the
// breaches it captures, in rule order.
type recRules struct {
	rules   []Rule
	tripped []bool
	runs    []int
	prev    wire.Record
	n       int
}

func (o *recRules) pass(cur wire.Record) []BreachReport {
	prev := o.prev
	o.prev = cur
	if o.n < 2 {
		o.n++
	}
	var out []BreachReport
	capture := func(rule Rule, v float64) {
		out = append(out, BreachReport{Rule: rule, Value: v, Delta: recDelta(prev, cur)})
	}
	for i, rule := range o.rules {
		if rule.stall() {
			if o.n < 2 {
				continue
			}
			cv, cok := recInt(cur[rule.Key])
			pv, pok := recInt(prev[rule.Key])
			if !cok || !pok || cv != pv {
				o.runs[i] = 0
				continue
			}
			o.runs[i]++
			if o.runs[i] >= rule.StallWindows {
				o.runs[i] = 0
				capture(rule, float64(cv))
			}
			continue
		}
		v, ok := recFloat(cur[rule.Key])
		if !ok || v <= rule.Max {
			o.tripped[i] = false
			continue
		}
		if o.tripped[i] {
			continue
		}
		o.tripped[i] = true
		capture(rule, v)
	}
	return out
}

func exported(m *Metrics) wire.Record {
	rec := wire.Record{}
	m.Export(rec, "")
	return rec
}

// Names are disjoint across kinds, as a node's are. Two counters carry
// the bucket infix inside their names, as a Managed prefix can.
var (
	equivCounters = []string{"rpc.client.calls", "rpc.server.requests", "gc.sweeps", "registry.c.db_hist.2.calls", "registry.c.q_hist.17.errors"}
	equivGauges   = []string{"registry.g.db.last_us", "load", "queue.depth"}
	equivHists    = []string{"rpc.client.call", "rpc.server.dispatch", "binder.resolve", "capsule.bypass"}
)

// randomPair draws a previous and a current snapshot. Each name is
// present in either with probability 4/5; counts stay below 2^62, where
// a record's int64 widening and the typed uint64 agree. Counters stand
// still, grow or jump (down too); gauges stand still or move;
// histograms are empty, sparse or full, and grow or are redrawn.
func randomPair(rng *rand.Rand) (prev, cur *Metrics) {
	prev, cur = NewMetrics(), NewMetrics()
	present := func() bool { return rng.Intn(5) != 0 }
	count := func() uint64 { return uint64(rng.Int63() >> (1 + rng.Intn(62))) }
	for _, k := range equivCounters {
		p := count()
		c := p
		switch rng.Intn(3) {
		case 1:
			c += uint64(rng.Intn(100))
		case 2:
			c = count()
		}
		if present() {
			prev.Counters[k] = p
		}
		if present() {
			cur.Counters[k] = c
		}
	}
	for _, k := range equivGauges {
		p := rng.NormFloat64() * 1000
		c := p
		if rng.Intn(3) != 0 {
			c = rng.NormFloat64() * 1000
		}
		if present() {
			prev.Gauges[k] = p
		}
		if present() {
			cur.Gauges[k] = c
		}
	}
	hist := func() HistogramSnapshot {
		var s HistogramSnapshot
		switch rng.Intn(3) {
		case 1: // sparse
			for i := rng.Intn(3); i >= 0; i-- {
				s.Buckets[rng.Intn(HistogramBuckets)] = 1 + uint64(rng.Intn(1000))
			}
		case 2: // full
			for i := range s.Buckets {
				s.Buckets[i] = 1 + uint64(rng.Intn(1000))
			}
		}
		return s
	}
	for _, k := range equivHists {
		p := hist()
		c := p
		if rng.Intn(3) == 0 {
			c = hist()
		} else {
			for i := range c.Buckets {
				if rng.Intn(4) == 0 {
					c.Buckets[i] += uint64(rng.Intn(5))
				}
			}
		}
		if present() {
			prev.Latency[k] = p
		}
		if present() {
			cur.Latency[k] = c
		}
	}
	return prev, cur
}

// ruleKeys lists every key Export writes for either snapshot, plus the
// keys of their histograms it writes for neither: an empty histogram's
// quantiles and the zero buckets.
func ruleKeys(prev, cur *Metrics) []string {
	set := map[string]bool{}
	for _, m := range []*Metrics{prev, cur} {
		for k := range exported(m) {
			set[k] = true
		}
		for k := range m.Latency {
			for _, q := range quantileKeys {
				set[k+q.suffix] = true
			}
			for i := 0; i < HistogramBuckets; i++ {
				set[k+histBucketInfix+strconv.Itoa(i)] = true
			}
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestRecorderAgreesWithRecordSemantics checks the typed recorder
// against the record oracle on seeded random snapshot pairs: every
// Series key and value, a ceiling and a stall rule's value and verdict
// on every key Export writes, and every breach delta. The one difference
// allowed is the oracle's: it rates no counter whose name contains the
// bucket infix.
func TestRecorderAgreesWithRecordSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var bucketNamed, ceilings, stalls, quiet int
	for round := 0; round < 64; round++ {
		prev, cur := randomPair(rng)
		prevRec, curRec := exported(prev), exported(cur)
		where := fmt.Sprintf("round %d", round)

		sameDelta(t, where+": first delta", delta(nil, prev), recDelta(nil, prevRec))
		sameDelta(t, where+": delta", delta(prev, cur), recDelta(prevRec, curRec))

		const window = 3 * time.Second
		fc := clock.NewFake(epoch)
		snaps := []*Metrics{prev, cur}
		r := NewRecorder(func() *Metrics { m := snaps[0]; snaps = snaps[1:]; return m }, window, fc, nil, nil)
		pass(fc, r, window)
		pass(fc, r, window)
		series := r.Series()
		want := recRates(prevRec, curRec, window.Seconds())
		for k, v := range series {
			if strings.HasPrefix(k, "series.") {
				continue
			}
			w, ok := want[k]
			if !ok && strings.Contains(k, histBucketInfix) {
				if _, counter := cur.Counters[strings.TrimSuffix(k, "_per_sec")]; counter {
					bucketNamed++
					continue
				}
			}
			if !ok || w != v {
				t.Fatalf("%s: series %s = %v, records give %v (present %v)", where, k, v, w, ok)
			}
		}
		for k, w := range want {
			if _, ok := series[k]; !ok {
				t.Fatalf("%s: series lacks %s, records give %v", where, k, w)
			}
		}

		for _, k := range ruleKeys(prev, cur) {
			// A ceiling at one of the key's two values, below both or
			// above both, so every verdict occurs.
			ceiling := []float64{-1e300, 1e300, 0, 0}
			ceiling[2], _ = recFloat(prevRec[k])
			ceiling[3], _ = recFloat(curRec[k])
			rules := []Rule{CeilingRule("ceiling", k, ceiling[rng.Intn(len(ceiling))]), StallRule("stall", k, 1)}
			fd := newFeed(rules)
			oracle := &recRules{rules: rules, tripped: make([]bool, 2), runs: make([]int, 2)}
			fd.push(prev)
			fd.push(cur)
			want := append(oracle.pass(prevRec), oracle.pass(curRec)...)
			got := fd.f.Reports()
			if len(got) != len(want) {
				t.Fatalf("%s: key %s: breaches %s, records give %s", where, k, breaches(got), breaches(want))
			}
			for i := range got {
				if got[i].Rule != want[i].Rule || got[i].Value != want[i].Value {
					t.Fatalf("%s: key %s: breach %d is %s at %v, records give %s at %v", where, k, i, got[i].Rule.Name, got[i].Value, want[i].Rule.Name, want[i].Value)
				}
				sameDelta(t, fmt.Sprintf("%s: key %s: breach %d delta", where, k, i), got[i].Delta, want[i].Delta)
				if got[i].Rule.stall() {
					stalls++
				} else {
					ceilings++
				}
			}
			if len(got) == 0 {
				quiet++
			}
		}
	}
	// The draw must reach every branch it is meant to check.
	if bucketNamed == 0 || ceilings == 0 || stalls == 0 || quiet == 0 {
		t.Fatalf("draws too narrow: %d bucket-named rates, %d ceiling and %d stall breaches, %d quiet keys", bucketNamed, ceilings, stalls, quiet)
	}
	t.Logf("%d bucket-named counter rates the records dropped; %d ceiling and %d stall breaches; %d quiet keys", bucketNamed, ceilings, stalls, quiet)
}

func sameDelta(t *testing.T, where string, got, want map[string]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %v, records give %v", where, got, want)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("%s: %s = %v, records give %v", where, k, g, w)
		}
	}
}

// breaches names each report's rule and value.
func breaches(reps []BreachReport) string {
	var b strings.Builder
	for _, r := range reps {
		fmt.Fprintf(&b, "[%s at %v]", r.Rule.Name, r.Value)
	}
	return b.String()
}
