package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"odp"
	"odp/internal/rpc"
)

// options are the knobs of one run. The zero value plus a workload name
// is not runnable; see main for the defaults.
type options struct {
	seed      int64
	seconds   float64 // length of the measured part
	trace     bool    // per-layer pass instead of the end-to-end pass
	quick     bool    // smoke-test schedule: short slices, one cold start
	inProcess bool    // tcp servers on goroutines instead of a child process
	cpus      int     // CPUs the run is pinned to
	out       string  // directory for trace files ("" writes none)
}

// alternations is how many workload slices an end-to-end pass takes; a
// slice and its reference slice share 1/alternations of the run, 4:1.
const alternations = 40

// schedule derives every duration of a run from its options.
type schedule struct {
	setupRounds int
	warm        time.Duration
	rigs        int // fresh rigs the slices are spread over
	slices      int
	work, ref   time.Duration
	count       time.Duration // per-layer pass: one uninterrupted slice for per-call counts
	ladder      time.Duration
}

func (o options) schedule(w workload) schedule {
	total := time.Duration(o.seconds * float64(time.Second))
	alt := total / alternations
	s := schedule{setupRounds: 25, rigs: rigsPerRun, warm: time.Second / 2, slices: alternations, work: alt * 4 / 5, ref: alt / 5}
	if !w.tcp {
		// A cold start on the fabric takes under a millisecond, not
		// several, and the first dozens run on a heap still being
		// paged in: many more rounds cost little and steady the median.
		s.setupRounds = 201
	}
	if o.trace {
		s.slices = alternations * 3 / 10
		s.count = total * 15 / 100
		s.ladder = total - time.Duration(s.slices)*alt - s.count
	}
	if o.quick {
		s = schedule{setupRounds: 1, rigs: 1, warm: 20 * time.Millisecond, slices: 1,
			work: 100 * time.Millisecond, ref: 25 * time.Millisecond}
		if o.trace {
			s.work, s.ref = 50*time.Millisecond, 12*time.Millisecond
			s.count, s.ladder = 25*time.Millisecond, 50*time.Millisecond
		}
	}
	return s
}

// result is everything one run reports.
type result struct {
	Workload  string              `json:"workload"`
	Trace     bool                `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	Notes     []string            `json:"notes,omitempty"`
}

func (res *result) set(name string, s summary) {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	d, ok := findDef(defs, name)
	if !ok {
		panic("odpload: undeclared metric " + name)
	}
	res.Metrics[name] = measured{summary: s, Unit: d.unit}
}

func (res *result) setValue(name string, v float64) { res.set(name, summary{Value: v, N: 1}) }

func (res *result) notef(format string, args ...interface{}) {
	res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
}

// rigsPerRun is how many freshly started rigs share the slices of one
// run. Part of what a process costs per call is settled when it starts
// and stays for its lifetime (heap and stack placement and where the
// runtime parks its threads are candidates; it was not pinned down):
// whole runs on one rig differed from each other by more than their
// slices did among themselves — tcp_announce, ten runs each, spread of
// call_p99_rel 31 % on one rig, 4.7 % over four.
const rigsPerRun = 4

// tally accumulates what the rigs of one run measured.
type tally struct {
	p50, p99, thr           []float64 // per slice, in reference round trips
	absP50, absP99, absRate []float64 // per slice, µs and 1/s
	refs                    []float64 // per reference slice, µs
	slices                  int
	ops, mallocs            float64 // over the alternations
	attempted, failed       int64
	woveOK                  bool
}

// runWorkload performs one run of w: cold starts, then on each of
// rigsPerRun fresh rigs a warm-up, its share of the measured alternation
// and the correctness checks; a per-layer run adds the counting slice
// and the ladder on the last rig. An error means the run produced no
// usable numbers; wrong answers are reported in the result instead.
func runWorkload(w workload, o options) (*result, error) {
	sch := o.schedule(w)
	res := &result{Workload: w.name, Trace: o.trace, Metrics: map[string]measured{}}
	cfg := w.rigConfig(o)

	setups := make([]float64, 0, sch.setupRounds)
	for i := 0; i < sch.setupRounds; i++ {
		began := time.Now()
		r, err := startRig(cfg)
		if err != nil {
			return nil, fmt.Errorf("cold start %d: %w", i, err)
		}
		setups = append(setups, time.Since(began).Seconds())
		r.close()
	}

	t := &tally{woveOK: true}
	for i := 0; i < sch.rigs; i++ {
		n := sch.slices / sch.rigs
		if i < sch.slices%sch.rigs {
			n++
		}
		last := i == sch.rigs-1
		if err := runOnRig(w, o, sch, cfg, n, int64(i), o.trace && last, res, t); err != nil {
			return nil, err
		}
	}
	if len(t.p99) == 0 {
		return nil, errors.New("no slice had the 1000 operations a 99th percentile needs")
	}
	if t.failed > t.attempted {
		t.failed = t.attempted
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && t.woveOK

	if !o.trace {
		res.set("setup_s", summarize(setups))
		res.set("call_p50_rel", summarizeSlices(t.p50))
		res.set("call_p99_rel", summarizeSlices(t.p99))
		res.set("throughput_rel", summarizeSlices(t.thr))
		res.setValue("allocs_per_call", t.mallocs/t.ops)
		return res, nil
	}
	res.set("abs.call_p50_us", summarizeSlices(t.absP50))
	res.set("abs.call_p99_us", summarizeSlices(t.absP99))
	res.set("abs.calls_per_s", summarizeSlices(t.absRate))
	res.set("host.ref_rtt_us", summarize(t.refs))
	res.setValue("host.ref_rtt_spread", refSpread(t.refs))
	res.setValue("p99.slices_dropped", float64(t.slices-len(t.p99)))
	res.setValue("fail_ratio", float64(t.failed)/float64(t.attempted))
	return res, nil
}

// runOnRig starts one rig, warms it up, measures slices alternations on
// it and checks its answers, adding all of it to t. With layers set it
// also makes the per-layer pass there and reports it into res.
func runOnRig(w workload, o options, sch schedule, cfg rigConfig, slices int, index int64, layers bool, res *result, t *tally) error {
	r, err := startRig(cfg)
	if err != nil {
		return err
	}
	defer r.close()
	seed := o.seed*rigsPerRun + index
	if err := r.openReference(rand.New(rand.NewSource(seed))); err != nil {
		return err
	}
	ru := newRun(w, r, seed, o.quick)
	if w.woven {
		if err := ru.proveWoven(); err != nil {
			t.woveOK = false
			res.notef("weave not live: %v", err)
		}
	}
	if err := ru.warmUp(sch.warm); err != nil {
		return err
	}

	c0, s0, err := r.stats()
	if err != nil {
		return err
	}
	ph, err := ru.alternate(slices, sch.work, sch.ref)
	if err != nil {
		return err
	}
	c1, s1, err := r.stats()
	if err != nil {
		return err
	}
	var p50 []float64
	for i, sl := range ph.slices {
		ref := ph.refFor(i)
		t.ops += float64(sl.ops)
		p50 = append(p50, float64(sl.p50ns)/ref)
		t.thr = append(t.thr, sl.opsPerSec*ref*1e-9)
		t.absP50 = append(t.absP50, float64(sl.p50ns)/1e3)
		t.absRate = append(t.absRate, sl.opsPerSec)
		if sl.hasP99 {
			t.p99 = append(t.p99, float64(sl.p99ns)/ref)
			t.absP99 = append(t.absP99, float64(sl.p99ns)/1e3)
		}
	}
	t.p50 = append(t.p50, p50...)
	t.slices += len(ph.slices)
	for _, ns := range ph.refs {
		t.refs = append(t.refs, ns/1e3)
	}
	t.mallocs += float64(c1.Mallocs-c0.Mallocs) + float64(s1.Mallocs-s0.Mallocs)

	if layers {
		if err := ru.layerPass(res, sch, o.out, summarizeSlices(p50).Value); err != nil {
			return err
		}
	}

	// Correctness: what the callers saw, what the counter says, and what
	// the protocol counters say about this rig's whole life.
	attempted, failed, lastErr := ru.totals()
	if lastErr != nil {
		res.notef("last failed operation: %v", lastErr)
	}
	missing, err := ru.finalCheck()
	if err != nil {
		return fmt.Errorf("final count: %w", err)
	}
	if missing != 0 {
		res.notef("counter is off by %d from the verified operations", missing)
	}
	cEnd, sEnd, err := r.stats()
	if err != nil {
		return err
	}
	dups := sEnd.Gather["rpc.server.duplicates"] - s0.Gather["rpc.server.duplicates"]
	timeouts := cEnd.Gather["rpc.client.timeouts"] - c0.Gather["rpc.client.timeouts"]
	if dups != 0 || timeouts != 0 {
		res.notef("protocol counters moved: %v suppressed duplicates, %v timeouts", dups, timeouts)
	}
	t.attempted += attempted
	t.failed += failed + missing + int64(dups) + int64(timeouts)
	return nil
}

// layerPass is the second half of a per-layer run: one uninterrupted
// workload slice bracketed by counter snapshots, then the ladder.
func (ru *run) layerPass(res *result, sch schedule, out string, untracedP50Rel float64) error {
	c0, s0, err := ru.rig.stats()
	if err != nil {
		return err
	}
	var scratch []int64
	ops := ru.slice(sch.count, &scratch).ops
	if ru.broken.Load() || ops == 0 {
		_, _, err := ru.totals()
		return fmt.Errorf("counting slice: %d operations: %v", ops, err)
	}
	c1, s1, err := ru.rig.stats()
	if err != nil {
		return err
	}
	counts{c0: c0, c1: c1, s0: s0, s1: s1, ops: float64(ops), tcp: ru.w.tcp}.report(res)

	plan, err := ru.buildLadder()
	if err != nil {
		return err
	}
	ladder, err := runLadder(plan.rungs, sch.ladder, ru.betweenIterations(plan))
	if err != nil {
		return err
	}
	reportLadder(res, ru.w, plan, ladder, untracedP50Rel)
	if out == "" {
		return nil
	}
	return ladder.writeTrace(filepath.Join(out, "trace_"+ru.w.name+".jsonl"))
}

// refSpread is the 90th over the 10th percentile (by nearest rank) of
// the reference slices' medians: how much the host itself moved during
// the run.
func refSpread(refs []float64) float64 {
	s := slices.Clone(refs)
	slices.Sort(s)
	rank := func(p float64) float64 { return s[max(0, int(math.Ceil(p*float64(len(s))))-1)] }
	return ratio(rank(0.90), rank(0.10))
}

// warmUp runs the workload until pools, stacks and the heap have their
// steady size and the two coalescers have negotiated the packed codec:
// the benchmark measures the tuned path, and says so by refusing to
// measure anything else.
func (ru *run) warmUp(d time.Duration) error {
	var scratch []int64
	deadline := time.Now().Add(5*time.Second + d)
	for {
		ru.slice(d, &scratch)
		if _, _, err := ru.totals(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if n, _ := ru.rig.client.Gather()["rpc.client.packed_upgrades"].(uint64); n > 0 {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("warm-up: packed codec not negotiated")
		}
	}
	return ru.checkpoint()
}

// checkpoint truncates the recovery logs of loop_woven's objects, which
// every mutating call appends to; other workloads have none.
func (ru *run) checkpoint() error {
	if !ru.w.woven {
		return nil
	}
	return ru.rig.local.checkpoint()
}

// proveWoven shows that loop_woven's target really sits behind the
// woven mechanisms: the guard turns an unsigned call away, and a signed
// one moves the instrumentation counter and the recovery log.
func (ru *run) proveWoven() error {
	r := ru.rig
	target := r.proxy.Ref()
	if _, err := r.client.Bind(target).WithQoS(callQoS).Call(ru.ctx, "get"); !errors.Is(err, rpc.ErrDenied) {
		return fmt.Errorf("unsigned call: %v, want a guard refusal", err)
	}
	const counter = "registry.c.woven.calls"
	srv := r.local.platform
	logName := "oplog/" + target.ID
	callsBefore, _ := srv.Gather()[counter].(uint64)
	logBefore, err := srv.Store.ReadLog(logName)
	if err != nil {
		return err
	}
	out, err := r.proxy.Call(ru.ctx, "add", int64(1))
	if err != nil {
		return fmt.Errorf("signed call: %w", err)
	}
	if sum, _ := out.Int(0); sum != 1 {
		return fmt.Errorf("signed call: counter reads %d, want 1", sum)
	}
	ru.added++
	ru.callers[0].lastSum = 1
	callsAfter, _ := srv.Gather()[counter].(uint64)
	logAfter, err := srv.Store.ReadLog(logName)
	if err != nil {
		return err
	}
	if callsAfter <= callsBefore {
		return fmt.Errorf("%s did not advance (%d)", counter, callsAfter)
	}
	if len(logAfter) != len(logBefore)+1 {
		return fmt.Errorf("recovery log %s holds %d records, want %d", logName, len(logAfter), len(logBefore)+1)
	}
	return nil
}

// betweenIterations is the ladder's untimed housekeeping: the plan's own
// (counting what the rungs added) plus, for the woven objects, a
// checkpoint now and then so their recovery logs stay short.
func (ru *run) betweenIterations(plan *ladderPlan) func(int) error {
	return func(iter int) error {
		if plan.between != nil {
			if err := plan.between(iter); err != nil {
				return err
			}
		}
		if iter%8192 == 8191 {
			return ru.checkpoint()
		}
		return nil
	}
}

// counts turns the counter deltas of the counting slice into per-call
// figures. Client and server are summed where both take part.
type counts struct {
	c0, c1, s0, s1 procStats
	ops            float64
	tcp            bool
}

func (c counts) client(key string) float64 { return c.c1.Gather[key] - c.c0.Gather[key] }
func (c counts) server(key string) float64 { return c.s1.Gather[key] - c.s0.Gather[key] }
func (c counts) both(key string) float64   { return c.client(key) + c.server(key) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (c counts) report(res *result) {
	const co = "transport.coalescer."
	batches := c.both(co + "batches_sent")
	res.setValue("transport.syscalls_per_call",
		ratio(float64(c.c1.Syscalls-c.c0.Syscalls)+float64(c.s1.Syscalls-c.s0.Syscalls), c.ops))
	res.setValue("transport.datagrams_per_call", ratio(batches+c.both(co+"single_sends"), c.ops))
	res.setValue("transport.frames_per_batch", ratio(c.both(co+"frames_batched"), batches))
	res.setValue("transport.direct_ratio", ratio(c.both(co+"direct_flushes"), batches))
	res.setValue("transport.flush_delay_p99_us", c.histQuantile(co+"flush_delay", 0.99, true))
	res.setValue("transport.overflows", c.both(co+"overflows"))
	res.setValue("netsim.packets_per_call", ratio(c.client("netsim.sent"), c.ops))

	calls := c.client("rpc.client.calls")
	res.setValue("rpc.server.dispatch_p50_us", c.histQuantile("rpc.server.dispatch", 0.50, false))
	res.setValue("rpc.acks_piggybacked_ratio", ratio(c.client("rpc.client.acks_piggybacked"), calls))
	res.setValue("rpc.retransmits_per_kcall", 1e3*ratio(c.client("rpc.client.retransmissions"), c.ops))
	res.setValue("rpc.duplicates_per_kcall", 1e3*ratio(c.server("rpc.server.duplicates"), c.ops))
	res.setValue("rpc.timeouts", c.client("rpc.client.timeouts"))
	res.setValue("rpc.cache_evictions_per_kcall", 1e3*ratio(c.server("rpc.server.cache_evictions"), c.ops))
	res.setValue("naming.relocations_per_kcall", 1e3*ratio(c.client("binder.relocations"), c.ops))

	clientCPU, serverCPU := float64(c.c1.CPUNs-c.c0.CPUNs), float64(c.s1.CPUNs-c.s0.CPUNs)
	res.setValue("client.allocs_per_call", ratio(float64(c.c1.Mallocs-c.c0.Mallocs), c.ops))
	res.setValue("server.allocs_per_call", ratio(float64(c.s1.Mallocs-c.s0.Mallocs), c.ops))
	res.setValue("client.cpu_share", ratio(clientCPU, clientCPU+serverCPU))
	ctx := c.s1.CtxSwitches - c.s0.CtxSwitches
	if !c.tcp { // one process: its counters are on the client side
		ctx = c.c1.CtxSwitches - c.c0.CtxSwitches
	}
	res.setValue("server.ctx_switches_per_call", ratio(float64(ctx), c.ops))
	res.setValue("client.gc_cycles_per_mcall", 1e6*ratio(float64(c.c1.NumGC-c.c0.NumGC), c.ops))
	res.setValue("server.rss_mb", float64(c.s1.RSSKB)/1024)
}

// histQuantile returns quantile q, in microseconds, of what a latency
// histogram recorded between the two snapshots, on the server or on
// both sides merged.
func (c counts) histQuantile(base string, q float64, both bool) float64 {
	delta := odp.Record{}
	add := func(a, b map[string]float64) {
		for k, v := range b {
			if strings.HasPrefix(k, base+"_hist.") {
				n, _ := delta[k].(uint64)
				delta[k] = n + uint64(v-a[k])
			}
		}
	}
	add(c.s0.Gather, c.s1.Gather)
	if both {
		add(c.c0.Gather, c.c1.Gather)
	}
	return odp.HistogramKeys(delta)[base].Quantile(q)
}

// reportLadder turns the ladder's samples into the per-layer time
// metrics, every one a multiple of the reference rung's median.
func reportLadder(res *result, w workload, plan *ladderPlan, l *ladderResult, untracedP50Rel float64) {
	ref := median(toFloats(l.samples[rungRef]))
	rel := func(s summary) summary {
		return summary{Value: s.Value / ref, IQR: s.IQR / ref, N: s.N}
	}
	self := func(upper, lower string) summary {
		return rel(summarize(pairedDiff(l.samples[upper], l.samples[lower])))
	}
	abs := func(name string) summary { return summarize(toFloats(l.samples[name])) }

	selves := map[string]summary{}
	for i, name := range chain[:len(chain)-1] {
		selves[name] = self(name, chain[i+1])
		res.set(name+".self_rel", selves[name])
	}
	bottom := rel(abs(rungTransport))
	zero := summary{N: bottom.N}
	if w.tcp {
		res.set("transport.rtt_rel", bottom)
		res.set("netsim.rtt_rel", zero)
	} else {
		res.set("transport.rtt_rel", zero)
		res.set("netsim.rtt_rel", bottom)
	}
	core := rel(abs(rungCore))
	residue := core.Value - bottom.Value
	for _, s := range selves {
		residue -= s.Value
	}
	res.set("ladder.residue_rel", summary{Value: residue, N: core.N})
	res.set("trace.overhead_ratio", summary{Value: ratio(core.Value, untracedP50Rel), N: core.N})

	res.set("wire.encode_ns", abs(rungWireEnc))
	res.set("wire.decode_ns", abs(rungWireDec))
	res.setValue("wire.bytes_per_call", float64(plan.wireBytes))
	res.setValue("wire.allocs_per_op", plan.wireAllocs)
	res.set("servant.exec_ns", abs(rungServant))
	res.set("capsule.bypass_ns", abs(rungBypass))

	steps := append(append([]string{}, plan.wovenRungs...), rungCore)
	for i, name := range []string{"mgmt.instrument_rel", "gc.lease_rel", "migrate.recovery_rel", "security.guard_rel"} {
		var s summary // zero where nothing is woven
		if w.woven {
			s = self(steps[i+1], steps[i])
		}
		res.set(name, s)
	}
}
