package core

import (
	"odp/internal/obs"
	"odp/internal/wire"
)

// GatherDomains rolls the metrics of many platforms up into one
// per-domain record: the typed snapshots of every platform tagged
// WithDomain are merged per domain and exported once under
// "domain.<name>.", and "domain.<name>.platforms" counts the nodes. A
// federation-swarm experiment asks each domain one question — how much
// trading, how much traffic, how many collections — and this is the
// rollup that answers it without 1,000 separate records. Untagged
// platforms are skipped.
//
// Counters and gauges sum by kind. Latency histograms merge bucket-wise
// before their quantiles are exported, because the p99 of a domain is a
// property of the merged distribution, not the sum of its members' p99s.
func GatherDomains(platforms ...*Platform) wire.Record {
	domains := map[string]*obs.Metrics{}
	for _, p := range platforms {
		if p.domain == "" {
			continue
		}
		m := domains[p.domain]
		if m == nil {
			m = obs.NewMetrics()
			domains[p.domain] = m
		}
		m.Counters["platforms"]++
		m.Merge(p.metrics())
	}
	out := wire.Record{}
	for dom, m := range domains {
		m.Export(out, "domain."+dom+".")
	}
	return out
}
