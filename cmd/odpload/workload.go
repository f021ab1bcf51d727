package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"odp"
	"odp/internal/wire"
)

// opKind is what one caller does per step of its closed loop.
type opKind int

const (
	opAdd      opKind = iota // add(int64) → the counter's new value
	opBulk                   // echo of a ~12 KiB structured value
	opAnnounce               // a window of announcements, then a drain
)

// announceWindow is how many announcements a tcp_announce sender issues
// before it polls the counter until all of them have arrived.
const announceWindow = 256

// workload is one of the benchmark's named sets of inputs. The reasons
// for each live in benchmark/README.md and BENCHMARK.json.
type workload struct {
	name    string
	tcp     bool
	woven   bool
	callers int
	op      opKind
}

var workloads = []workload{
	{name: "tcp_serial", tcp: true, callers: 1, op: opAdd},
	{name: "tcp_pipelined", tcp: true, callers: 8, op: opAdd},
	{name: "tcp_bulk", tcp: true, callers: 2, op: opBulk},
	{name: "tcp_announce", tcp: true, callers: 1, op: opAnnounce},
	{name: "loop_serial", callers: 1, op: opAdd},
	{name: "loop_woven", woven: true, callers: 1, op: opAdd},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// procs is the GOMAXPROCS of each process of the workload's rig when it
// is pinned to cpus CPUs. On the fabric it is cpus: one running thread.
// The tcp_* processes get one more. With a single P, the runtime's
// monitor thread takes the P away whenever a syscall outlasts 20 µs —
// which on a shared core is whenever the kernel runs the peer inside
// it — and then polls every 20 µs until fifty rounds stay quiet, so a
// process flips between two cost regimes for hundreds of milliseconds
// at a time; with a second, idle P the monitor leaves short syscalls
// alone. Measured on tcp_serial, ten runs each: spread of call_p50_rel
// 8.0 % with one P, 2.1 % with two (and a call about a fifth slower:
// a woken goroutine now also wakes a thread to look for work).
func (w workload) procs(cpus int) int {
	if w.tcp {
		return cpus + 1
	}
	return cpus
}

func (w workload) rigConfig(o options) rigConfig {
	return rigConfig{tcp: w.tcp, child: w.tcp && !o.inProcess, woven: w.woven,
		procs: w.procs(o.cpus), seed: o.seed}
}

// bulkValue builds tcp_bulk's payload: a record of an int, a 64-byte
// string, 32 short strings, 256 int64s and 8 KiB of bytes, about 12 KiB
// on the wire, every part of it drawn from rng.
func bulkValue(rng *rand.Rand) odp.Value {
	str := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	tags := make(odp.List, 32)
	for i := range tags {
		tags[i] = str(4 + rng.Intn(12))
	}
	samples := make(odp.List, 256)
	for i := range samples {
		samples[i] = int64(rng.Uint64())
	}
	blob := make([]byte, 8<<10)
	rng.Read(blob)
	return odp.Record{
		"id":      rng.Int63(),
		"name":    str(64),
		"tags":    tags,
		"samples": samples,
		"blob":    blob,
	}
}

// caller is one closed-loop client of a workload: it issues its next
// operation only when the previous one has been answered and checked.
type caller struct {
	run *run
	rng *rand.Rand

	lat       []int64 // latencies of this slice's operations, ns
	attempted int64
	failed    int64
	lastErr   error

	lastSum int64     // add: the previous reply, which the next must exceed
	payload odp.Value // bulk
}

// run is one workload on one rig, with the state its correctness checks
// need across slices.
type run struct {
	w       workload
	rig     *rig
	ctx     context.Context
	callers []*caller
	quick   bool

	added int64 // sum of every acknowledged add's delta and every sent note
	// broken is set when an invocation fails outright (as opposed to
	// answering wrongly): every further one would wait out its timeout
	// too, so the callers stop and the run ends with the error.
	broken atomic.Bool
}

func newRun(w workload, r *rig, seed int64, quick bool) *run {
	ru := &run{w: w, rig: r, ctx: context.Background(), quick: quick}
	for i := 0; i < w.callers; i++ {
		c := &caller{run: ru, rng: rand.New(rand.NewSource(seed*1000 + int64(i))), lat: make([]int64, 0, 1<<17)}
		if w.op == opBulk {
			c.payload = bulkValue(c.rng)
		}
		ru.callers = append(ru.callers, c)
	}
	return ru
}

func (c *caller) fail(err error) {
	c.failed++
	c.lastErr = err
}

// abort is fail for an invocation that returned an error.
func (c *caller) abort(err error) {
	c.fail(err)
	c.run.broken.Store(true)
}

// loop runs the caller's closed loop until d has passed since start,
// timing each operation from the completion of the one before. It
// returns the sum this caller added to the counter.
func (c *caller) loop(start time.Time, d time.Duration) (added int64) {
	proxy, ctx := c.run.rig.proxy, c.run.ctx
	prev := time.Since(start)
	for prev < d && !c.run.broken.Load() {
		switch c.run.w.op {
		case opAdd:
			delta := 1 + c.rng.Int63n(9)
			c.attempted++
			out, err := proxy.Call(ctx, "add", delta)
			switch sum, ierr := out.Int(0); {
			case err != nil:
				c.abort(err)
			case ierr != nil || !out.Is("ok"):
				// The add may have happened; the final count will say.
				c.fail(fmt.Errorf("add: outcome %q: %v", out.Name, ierr))
			case sum <= c.lastSum:
				added += delta
				c.fail(fmt.Errorf("add: reply %d does not exceed the previous %d", sum, c.lastSum))
			default:
				added += delta
				c.lastSum = sum
			}
		case opBulk:
			c.attempted++
			out, err := proxy.Call(ctx, "echo", c.payload)
			switch {
			case err != nil:
				c.abort(err)
			case !out.Is("ok") || !wire.Equal(out.Result(0), c.payload):
				c.fail(errors.New("echo: reply differs from the request"))
			}
		case opAnnounce:
			for i := 0; i < announceWindow; i++ {
				c.attempted++
				if err := proxy.Announce("note"); err != nil {
					c.abort(err)
				} else {
					added++
				}
				now := time.Since(start)
				c.lat = append(c.lat, int64(now-prev))
				prev = now
			}
			if err := c.drain(c.run.added + added); err != nil {
				// Which of the window's announcements went wrong is
				// unknown; the final count settles how many.
				c.lastErr = err
				c.run.broken.Store(true)
			}
			prev = time.Since(start)
			continue
		}
		now := time.Since(start)
		c.lat = append(c.lat, int64(now-prev))
		prev = now
	}
	return added
}

// drain polls the counter until it reads want: every announcement sent
// so far has been executed.
func (c *caller) drain(want int64) error {
	deadline := time.Now().Add(callQoS.Timeout)
	for {
		out, err := c.run.rig.proxy.Call(c.run.ctx, "get")
		if err != nil {
			return err
		}
		got, err := out.Int(0)
		if err != nil {
			return err
		}
		if got == want {
			return nil
		}
		if got > want {
			return fmt.Errorf("announce: counter reads %d, only %d sent", got, want)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("announce: counter stuck at %d of %d", got, want)
		}
		runtime.Gosched()
	}
}

// sliceStat is one workload slice: d of closed-loop operation by all
// callers.
type sliceStat struct {
	p50ns, p99ns int64
	hasP99       bool
	ops          int64   // operations issued, each answered or failed
	opsPerSec    float64 // over the time until the last caller finished
}

// slice runs every caller for d and folds their latencies. scratch is
// reused across slices.
func (ru *run) slice(d time.Duration, scratch *[]int64) sliceStat {
	var wg sync.WaitGroup
	added := make([]int64, len(ru.callers))
	before, _, _ := ru.totals()
	start := time.Now()
	for i, c := range ru.callers {
		c.lat = c.lat[:0]
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			added[i] = c.loop(start, d)
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	all := (*scratch)[:0]
	for i, c := range ru.callers {
		all = append(all, c.lat...)
		ru.added += added[i]
	}
	*scratch = all
	after, _, _ := ru.totals()
	st := sliceStat{ops: after - before}
	if len(all) == 0 {
		return st
	}
	slices.Sort(all)
	st.p50ns = percentileSorted(all, 0.50)
	// The smoke-test schedule is too short for the rule; its numbers are
	// not measurements.
	if st.hasP99 = ru.quick || supportsPercentile(len(all), p99BandHi); st.hasP99 {
		st.p99ns = bandMeanSorted(all, p99BandLo, p99BandHi)
	}
	st.opsPerSec = float64(st.ops) / elapsed.Seconds()
	return st
}

// refSlice runs the reference round trip for d and returns its median
// in nanoseconds.
func (ru *run) refSlice(d time.Duration, scratch *[]int64) (float64, error) {
	all := (*scratch)[:0]
	start := time.Now()
	prev := time.Since(start)
	for prev < d {
		n, err := ru.rig.refRoundTrip()
		if err != nil {
			return 0, err
		}
		now := time.Since(start)
		all = append(all, int64(now-prev)/int64(n))
		prev = now
	}
	*scratch = all
	slices.Sort(all)
	return float64(percentileSorted(all, 0.50)), nil
}

// phase is the measured part of a run: reference and workload slices in
// alternation, so that every workload slice has a reference slice on
// either side of it taken under the same host conditions.
type phase struct {
	slices []sliceStat
	refs   []float64 // reference medians, ns; len(slices)+1: refs[i] precedes slices[i]
}

func (ru *run) alternate(n int, work, ref time.Duration) (phase, error) {
	var ph phase
	var scratch []int64
	first, err := ru.refSlice(ref, &scratch)
	if err != nil {
		return ph, err
	}
	ph.refs = append(ph.refs, first)
	for i := 0; i < n; i++ {
		ph.slices = append(ph.slices, ru.slice(work, &scratch))
		if ru.broken.Load() {
			_, _, err := ru.totals()
			return ph, fmt.Errorf("slice %d: %w", i, err)
		}
		if err := ru.checkpoint(); err != nil {
			return ph, err
		}
		rs, err := ru.refSlice(ref, &scratch)
		if err != nil {
			return ph, err
		}
		ph.refs = append(ph.refs, rs)
	}
	return ph, nil
}

// refFor is the reference round trip slice i is measured against: the
// mean of the medians of the reference slices before and after it.
func (ph phase) refFor(i int) float64 {
	return (ph.refs[i] + ph.refs[i+1]) / 2
}

// totals sums the callers' counts.
func (ru *run) totals() (attempted, failed int64, lastErr error) {
	for _, c := range ru.callers {
		attempted += c.attempted
		failed += c.failed
		if c.lastErr != nil {
			lastErr = c.lastErr
		}
	}
	return
}

// finalCheck compares the server's counter with what the callers
// verified: every add that was acknowledged, and every announcement
// that was sent, happened exactly once. Missing or surplus executions
// are returned as failed operations.
func (ru *run) finalCheck() (missing int64, err error) {
	if ru.w.op == opBulk {
		return 0, nil
	}
	if ru.w.op == opAnnounce {
		// Let announcements still in flight land; the count below is
		// the judge either way.
		_ = ru.callers[0].drain(ru.added)
	}
	out, err := ru.rig.proxy.Call(ru.ctx, "get")
	if err != nil {
		return 0, err
	}
	got, err := out.Int(0)
	if err != nil {
		return 0, err
	}
	if got > ru.added {
		return got - ru.added, nil
	}
	return ru.added - got, nil
}
