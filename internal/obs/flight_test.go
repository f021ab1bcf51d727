package obs

import (
	"strings"
	"testing"
	"time"

	"odp/internal/clock"
	"odp/internal/wire"
)

// feed drives a flight recorder by hand: the tests exercise rule
// semantics through the same observe hook the recorder calls, with
// samples spaced one second apart from the obs test epoch.
type feed struct {
	f    *FlightRecorder
	prev Sample
	n    int
}

func newFeed(rules []Rule) *feed {
	r := NewRecorder(func() wire.Record { return nil }, time.Second, clock.Real{})
	return &feed{f: NewFlightRecorder(r, nil, rules)}
}

func (fd *feed) push(rec wire.Record) {
	fd.n++
	cur := Sample{At: epoch.Add(time.Duration(fd.n) * time.Second), Rec: rec}
	fd.f.observe(fd.prev, cur, fd.n > 1)
	fd.prev = cur
}

func TestCeilingRuleEdgeTriggered(t *testing.T) {
	fd := newFeed([]Rule{CeilingRule("p99", "dispatch_p99", 100)})

	fd.push(wire.Record{"dispatch_p99": 50.0})
	fd.push(wire.Record{"dispatch_p99": 150.0}) // excursion starts: breach
	fd.push(wire.Record{"dispatch_p99": 200.0}) // still the same excursion
	fd.push(wire.Record{"dispatch_p99": 80.0})  // recovers: re-arms
	fd.push(wire.Record{"dispatch_p99": 101.0}) // second excursion: breach
	fd.push(wire.Record{})                      // key gone: re-arms
	fd.push(wire.Record{"dispatch_p99": 500.0}) // third excursion: breach

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

	fd.push(wire.Record{"requests": uint64(10)})
	fd.push(wire.Record{"requests": uint64(11)}) // moving
	fd.push(wire.Record{"requests": uint64(11)}) // quiet 1
	fd.push(wire.Record{"requests": uint64(11)}) // quiet 2
	if n := len(fd.f.Reports()); n != 0 {
		t.Fatalf("fired after 2 quiet windows: %d reports", n)
	}
	fd.push(wire.Record{"requests": uint64(11)}) // quiet 3: breach
	reps := fd.f.Reports()
	if len(reps) != 1 {
		t.Fatalf("reports = %d, want 1", len(reps))
	}
	if reps[0].Value != 11 {
		t.Fatalf("stuck value = %v", reps[0].Value)
	}

	// The counter resets after firing: three more quiet windows, not
	// one, produce the next report.
	fd.push(wire.Record{"requests": uint64(11)})
	fd.push(wire.Record{"requests": uint64(11)})
	if n := len(fd.f.Reports()); n != 1 {
		t.Fatalf("refired early: %d reports", n)
	}
	fd.push(wire.Record{"requests": uint64(11)})
	if n := len(fd.f.Reports()); n != 2 {
		t.Fatalf("reports after reset cycle = %d, want 2", n)
	}

	// Movement clears the run.
	fd.push(wire.Record{"requests": uint64(12)})
	fd.push(wire.Record{"requests": uint64(12)})
	fd.push(wire.Record{"requests": uint64(12)})
	if n := len(fd.f.Reports()); n != 2 {
		t.Fatalf("quiet run survived movement: %d reports", n)
	}
}

func TestFlightRingBounded(t *testing.T) {
	fd := newFeed([]Rule{CeilingRule("c", "v", 0)})
	const breaches = flightDepth + 3
	for i := 1; i <= breaches; i++ {
		fd.push(wire.Record{"v": float64(i)}) // breach
		fd.push(wire.Record{})                // re-arm
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
		fd.push(wire.Record{"dispatch_p99": 50.0, "requests": uint64(10), "errs": uint64(0)})
		fd.push(wire.Record{"dispatch_p99": 250.5, "requests": uint64(17), "errs": uint64(2)})
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
	fd.push(wire.Record{"dispatch_p99": 50.0})
	fd.push(wire.Record{"dispatch_p99": 300.0})
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
	if got, _ := back.(wire.Record); got["text"] != text {
		t.Fatalf("text after round trip = %q", got["text"])
	}
}
