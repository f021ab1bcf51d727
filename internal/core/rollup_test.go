package core

import (
	"strings"
	"testing"
	"time"

	"odp/internal/obs"
)

// TestGatherDomainsWidensAndRecomputesQuantiles rolls two platforms of
// one domain up and checks: float64 gauges sum as floats, uint64
// counters as integers, an untagged platform is skipped, and the
// domain's latency quantiles come from the merged buckets rather than
// from a sum of per-node quantiles.
func TestGatherDomainsWidensAndRecomputesQuantiles(t *testing.T) {
	e := newCoreEnv(t)
	a := e.platform("a", WithDomain("edge"))
	b := e.platform("b", WithDomain("edge"))
	c := e.platform("c") // untagged: skipped

	var fast, slow obs.Histogram
	for i := 0; i < 90; i++ {
		fast.Observe(2 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		slow.Observe(40 * time.Millisecond)
	}
	a.AddStatsSource(func(m *obs.Metrics) {
		m.Latency["stage"] = fast.Snapshot()
		m.Gauges["app.gauge"] = 1.25
		m.Counters["app.jobs"] = 3
	})
	b.AddStatsSource(func(m *obs.Metrics) {
		m.Latency["stage"] = slow.Snapshot()
		m.Gauges["app.gauge"] = 2.25
		m.Counters["app.jobs"] = 4
	})
	c.AddStatsSource(func(m *obs.Metrics) { m.Gauges["app.gauge"] = 100.0 })

	out := GatherDomains(a, b, c)

	if got := out["domain.edge.platforms"]; got != uint64(2) {
		t.Fatalf("platforms = %v", got)
	}
	if got := out["domain.edge.app.gauge"]; got != 3.5 {
		t.Fatalf("float gauge sum = %v (%T)", got, got)
	}
	if got := out["domain.edge.app.jobs"]; got != uint64(7) {
		t.Fatalf("counter sum = %v (%T)", got, got)
	}
	if got := out["domain.edge.stage_count"]; got != uint64(100) {
		t.Fatalf("merged count = %v", got)
	}
	for k := range out {
		if !strings.HasPrefix(k, "domain.edge.") {
			t.Fatalf("key %q outside the tagged domain: the untagged platform rolled up", k)
		}
	}

	// Node a holds the 90 fast samples, node b the 10 slow ones. The
	// merged population's p50 must land in the fast bucket — a naive sum
	// of per-node p50s (2µs + 40ms) could not — and its p99 in the slow
	// one.
	p50, ok := out["domain.edge.stage_p50"].(float64)
	if !ok {
		t.Fatalf("p50 missing: %v", out["domain.edge.stage_p50"])
	}
	if p50 > 4 {
		t.Fatalf("merged p50 = %vµs, want within the fast bucket", p50)
	}
	p99, ok := out["domain.edge.stage_p99"].(float64)
	if !ok || p99 < 1000 {
		t.Fatalf("merged p99 = %v, want the slow observation's bucket", p99)
	}
}
