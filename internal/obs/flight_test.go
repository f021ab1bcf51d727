package obs

import (
	"strings"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/wire"
)

// feed drives a recorder's rule pass by hand on a fake clock: each push
// makes m the next metrics snapshot, one second after the last, from
// the obs test epoch.
type feed struct {
	f  *Recorder
	fc *clock.Fake
	m  *Metrics
}

func newFeed(rules []Rule) *feed {
	fd := &feed{fc: clock.NewFake(epoch)}
	fd.f = NewRecorder(func() *Metrics { return fd.m }, time.Second, fd.fc, nil, rules)
	return fd
}

func (fd *feed) push(m *Metrics) {
	fd.m = m
	pass(fd.fc, fd.f, time.Second)
}

// gauge and count build one-key snapshots.
func gauge(k string, v float64) *Metrics {
	m := NewMetrics()
	m.Gauges[k] = v
	return m
}

func count(k string, n uint64) *Metrics {
	m := NewMetrics()
	m.Counters[k] = n
	return m
}

func TestCeilingRuleEdgeTriggered(t *testing.T) {
	fd := newFeed([]Rule{CeilingRule("p99", "dispatch_p99", 100)})

	fd.push(gauge("dispatch_p99", 50.0))
	fd.push(gauge("dispatch_p99", 150.0)) // excursion starts: breach
	fd.push(gauge("dispatch_p99", 200.0)) // still the same excursion
	fd.push(gauge("dispatch_p99", 80.0))  // recovers: re-arms
	fd.push(gauge("dispatch_p99", 101.0)) // second excursion: breach
	fd.push(NewMetrics())                 // key gone: re-arms
	fd.push(gauge("dispatch_p99", 500.0)) // third excursion: breach

	reps := fd.f.Reports()
	if len(reps) != 3 {
		t.Fatalf("reports = %d, want 3 edge-triggered breaches", len(reps))
	}
	if reps[0].Value != 150 || reps[1].Value != 101 || reps[2].Value != 500 {
		t.Fatalf("breach values = %v %v %v", reps[0].Value, reps[1].Value, reps[2].Value)
	}
	for i, r := range reps {
		if r.Seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d", i, r.Seq)
		}
		if r.Rule.Name != "p99" {
			t.Fatalf("rule = %q", r.Rule.Name)
		}
		if r.Window != time.Second {
			t.Fatalf("window = %v", r.Window)
		}
	}
	st := fd.f.Stats()
	if st.Breaches != 3 || st.Retained != 3 || st.Rules != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStallRuleFiresAfterQuietWindows(t *testing.T) {
	fd := newFeed([]Rule{StallRule("stuck", "requests", 3)})

	fd.push(count("requests", 10))
	fd.push(count("requests", 11)) // moving
	fd.push(count("requests", 11)) // quiet 1
	fd.push(count("requests", 11)) // quiet 2
	if n := len(fd.f.Reports()); n != 0 {
		t.Fatalf("fired after 2 quiet windows: %d reports", n)
	}
	fd.push(count("requests", 11)) // quiet 3: breach
	reps := fd.f.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d, want 1", len(reps))
	}
	if reps[0].Value != 11 {
		t.Fatalf("stuck value = %v", reps[0].Value)
	}

	// The counter resets after firing: three more quiet windows, not
	// one, produce the next report.
	fd.push(count("requests", 11))
	fd.push(count("requests", 11))
	if n := len(fd.f.Reports()); n != 1 {
		t.Fatalf("refired early: %d reports", n)
	}
	fd.push(count("requests", 11))
	if n := len(fd.f.Reports()); n != 2 {
		t.Fatalf("reports after reset cycle = %d, want 2", n)
	}

	// Movement clears the run.
	fd.push(count("requests", 12))
	fd.push(count("requests", 12))
	fd.push(count("requests", 12))
	if n := len(fd.f.Reports()); n != 2 {
		t.Fatalf("quiet run survived movement: %d reports", n)
	}

	// A key that is no count never stalls: one the node does not export
	// (a trader counter on a node without a trader), a float gauge that
	// moves every window, one that stands still, a standing quantile and
	// the quantile and bucket keys of an empty histogram.
	fd = newFeed([]Rule{
		StallRule("absent", "trader.imports", 2),
		StallRule("gauge", "load", 2),
		StallRule("still gauge", "still", 2),
		StallRule("quantile", "h_p99", 2),
		StallRule("empty quantile", "idle_p50", 2),
		StallRule("empty bucket", "idle_hist.3", 2),
	})
	for i := 0; i < 6; i++ {
		m := NewMetrics()
		m.Counters["requests"] = 11
		m.Gauges["load"] = 0.5 + float64(i)
		m.Gauges["still"] = 2
		m.Latency["h"] = HistogramSnapshot{Buckets: [HistogramBuckets]uint64{3: 4}}
		m.Latency["idle"] = HistogramSnapshot{}
		fd.push(m)
	}
	if reps := fd.f.Reports(); len(reps) != 0 {
		t.Fatalf("stall rules on non-counts fired %d times, first %q", len(reps), reps[0].Rule.Name)
	}

	// A histogram's count and its buckets are counts: standing still,
	// they stall.
	fd = newFeed([]Rule{
		StallRule("count", "h_count", 2),
		StallRule("bucket", "h_hist.3", 2),
	})
	for i := 0; i < 3; i++ {
		m := NewMetrics()
		m.Latency["h"] = HistogramSnapshot{Buckets: [HistogramBuckets]uint64{3: 4, 7: 1}}
		fd.push(m)
	}
	reps = fd.f.Reports()
	if len(reps) != 2 || reps[0].Rule.Name != "count" || reps[0].Value != 5 || reps[1].Rule.Name != "bucket" || reps[1].Value != 4 {
		t.Fatalf("stalled histogram reports = %+v, want count at 5 then bucket at 4", reps)
	}
}

func TestFlightRingBounded(t *testing.T) {
	fd := newFeed([]Rule{CeilingRule("c", "v", 0)})
	const breaches = flightDepth + 3
	for i := 1; i <= breaches; i++ {
		fd.push(gauge("v", float64(i))) // breach
		fd.push(NewMetrics())           // re-arm
	}
	reps := fd.f.Reports()
	if len(reps) != flightDepth {
		t.Fatalf("retained = %d, want %d", len(reps), flightDepth)
	}
	if reps[0].Seq != breaches-flightDepth+1 || reps[flightDepth-1].Seq != breaches {
		t.Fatalf("retained seqs %d..%d, want the newest %d", reps[0].Seq, reps[flightDepth-1].Seq, flightDepth)
	}
	if st := fd.f.Stats(); st.Breaches != breaches || st.Retained != flightDepth {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBreachReportFormatDeterministic(t *testing.T) {
	build := func() string {
		fd := newFeed([]Rule{CeilingRule("p99", "dispatch_p99", 100)})
		snap := func(p99 float64, requests, errs uint64) *Metrics {
			m := gauge("dispatch_p99", p99)
			m.Counters["requests"] = requests
			m.Counters["errs"] = errs
			return m
		}
		fd.push(snap(50, 10, 0))
		fd.push(snap(250.5, 17, 2))
		reps := fd.f.Reports()
		if len(reps) != 1 {
			t.Fatalf("reports = %d", len(reps))
		}
		return reps[0].Format()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("Format not byte-stable:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"blackbox #1 rule=p99 key=dispatch_p99 value=250.5",
		"window=1s",
		"delta errs +2",
		"delta requests +7",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("Format missing %q:\n%s", want, a)
		}
	}
	// Sorted delta keys: errs before requests.
	if strings.Index(a, "delta errs") > strings.Index(a, "delta requests") {
		t.Fatalf("delta keys unsorted:\n%s", a)
	}
}

func TestBreachReportRecordRoundTrip(t *testing.T) {
	fd := newFeed([]Rule{CeilingRule("p99", "dispatch_p99", 100)})
	fd.push(gauge("dispatch_p99", 50.0))
	breach := gauge("dispatch_p99", 300.0)
	breach.Counters["requests"] = 4
	fd.push(breach)
	list := fd.f.ReportsList()
	if len(list) != 1 {
		t.Fatalf("list = %d", len(list))
	}
	rec, ok := list[0].(wire.Record)
	if !ok {
		t.Fatalf("entry is %T", list[0])
	}
	if rec["rule"] != "p99" || rec["seq"] != uint64(1) || rec["value"] != 300.0 {
		t.Fatalf("record = %v", rec)
	}
	text, _ := rec["text"].(string)
	if !strings.HasPrefix(text, "blackbox #1 ") {
		t.Fatalf("text = %q", text)
	}
	// The record must survive a codec round trip: "blackbox" is a remote
	// management op.
	buf, err := wire.PackedCodec{}.Encode(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := wire.PackedCodec{}.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := back.(wire.Record)
	if got["text"] != text {
		t.Fatalf("text after round trip = %q", got["text"])
	}
	if d, _ := got["delta"].(wire.Record); len(d) != 1 || d["requests"] != int64(4) {
		t.Fatalf("delta after round trip = %v, want requests +4", got["delta"])
	}
}
