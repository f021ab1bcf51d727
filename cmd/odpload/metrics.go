package main

// metricDef declares one metric: its name, unit and which direction is
// better, as BENCHMARK.json lists it. bound is the share of the
// parent's median by which an end-to-end metric may get worse;
// per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// Relative metrics are multiples of the reference round trip measured
// alongside them ("xref"): the same call costs 27–77 µs on this class of
// host depending on what else the host is doing, but a steady multiple
// of a plain socket (or channel) round trip taken in the same second.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"call_p50_rel", "xref", "lower", 0.20},
	{"call_p99_rel", "xref", "lower", 0.25},
	{"throughput_rel", "ops/ref", "higher", 0.15},
	{"allocs_per_call", "count", "lower", 0.03},
}

var perLayer = []metricDef{
	// wire rung
	{"wire.encode_ns", "ns", "lower", 0},
	{"wire.decode_ns", "ns", "lower", 0},
	{"wire.bytes_per_call", "B", "lower", 0},
	{"wire.allocs_per_op", "count", "lower", 0},
	// transport rung and coalescer counters
	{"transport.rtt_rel", "xref", "lower", 0},
	{"transport.syscalls_per_call", "count", "lower", 0},
	{"transport.datagrams_per_call", "count", "lower", 0},
	{"transport.frames_per_batch", "count", "higher", 0},
	{"transport.direct_ratio", "ratio", "higher", 0},
	{"transport.flush_delay_p99_us", "us", "lower", 0},
	{"transport.overflows", "count", "lower", 0},
	// the simulated fabric
	{"netsim.rtt_rel", "xref", "lower", 0},
	{"netsim.packets_per_call", "count", "lower", 0},
	// invocation protocol
	{"rpc.self_rel", "xref", "lower", 0},
	{"rpc.server.dispatch_p50_us", "us", "lower", 0},
	{"rpc.acks_piggybacked_ratio", "ratio", "higher", 0},
	{"rpc.retransmits_per_kcall", "count", "lower", 0},
	{"rpc.duplicates_per_kcall", "count", "lower", 0},
	{"rpc.timeouts", "count", "lower", 0},
	{"rpc.cache_evictions_per_kcall", "count", "lower", 0},
	// capsule, binder, proxy, servant
	{"capsule.self_rel", "xref", "lower", 0},
	{"capsule.bypass_ns", "ns", "lower", 0},
	{"naming.self_rel", "xref", "lower", 0},
	{"naming.relocations_per_kcall", "count", "lower", 0},
	{"core.self_rel", "xref", "lower", 0},
	{"servant.exec_ns", "ns", "lower", 0},
	// the weaver's interceptors
	{"mgmt.instrument_rel", "xref", "lower", 0},
	{"gc.lease_rel", "xref", "lower", 0},
	{"migrate.recovery_rel", "xref", "lower", 0},
	{"security.guard_rel", "xref", "lower", 0},
	// the two processes
	{"client.allocs_per_call", "count", "lower", 0},
	{"server.allocs_per_call", "count", "lower", 0},
	{"client.cpu_share", "ratio", "lower", 0},
	{"server.ctx_switches_per_call", "count", "lower", 0},
	{"client.gc_cycles_per_mcall", "count", "lower", 0},
	{"server.rss_mb", "MB", "lower", 0},
	// the ladder against the untraced run
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"ladder.residue_rel", "xref", "lower", 0},
	// context, never judged
	{"abs.call_p50_us", "us", "lower", 0},
	{"abs.call_p99_us", "us", "lower", 0},
	{"abs.calls_per_s", "1/s", "higher", 0},
	{"host.ref_rtt_us", "us", "lower", 0},
	{"host.ref_rtt_spread", "ratio", "lower", 0},
	// correctness as numbers
	{"fail_ratio", "ratio", "lower", 0},
	{"p99.slices_dropped", "count", "lower", 0},
}

// measured is one metric of one run.
type measured struct {
	summary
	Unit string `json:"unit"`
}

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
