package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"odp"
	"odp/internal/capsule"
	"odp/internal/wire"
)

// The ladder's rungs. Each is a public entry point of one layer, called
// from here with the workload's operation; a layer's self time is the
// difference between its rung and the one below it, taken within one
// iteration so that both saw the same host.
const (
	rungCore      = "core"      // Proxy.Call / Proxy.Announce
	rungNaming    = "naming"    // Platform.InvokeWith (the binder)
	rungCapsule   = "capsule"   // Platform.Capsule.InvokeWith
	rungRPC       = "rpc"       // Capsule.Client().Call
	rungTransport = "transport" // raw frame echo between two bare endpoints
	rungServant   = "servant"   // the servant's Dispatch as a Go call
	rungBypass    = "bypass"    // InvokeWith on a co-located object (§4.5)
	rungWireEnc   = "wire.encode"
	rungWireDec   = "wire.decode"
	rungRef       = "ref" // the reference round trip
)

// chain lists the rungs whose differences are self times, top down.
var chain = []string{rungCore, rungNaming, rungCapsule, rungRPC, rungTransport}

// rung is one timed call of the ladder. fn performs batch operations;
// sub-microsecond rungs batch so the clock reads do not dominate them.
type rung struct {
	name  string
	batch int
	fn    func() error
}

// span is one timed call as the trace file records it.
type span struct {
	iter       int32
	rung       int16 // index into the ladder's rungs; -1 is the iteration's root
	start, end int64 // ns since the ladder began
}

// maxTraceIters bounds how many iterations' spans are kept for the
// trace file; every iteration's durations go into the statistics.
const maxTraceIters = 4096

type ladderResult struct {
	rungs   []rung
	samples map[string][]int32 // ns per single operation, one per iteration
	spans   []span
}

// runLadder calls every rung once per iteration, back to back, starting
// one rung later each iteration so no rung always runs after the same
// neighbour. between runs, untimed, after every iteration.
func runLadder(rungs []rung, d time.Duration, between func(iter int) error) (*ladderResult, error) {
	res := &ladderResult{rungs: rungs, samples: make(map[string][]int32, len(rungs))}
	samples := make([][]int32, len(rungs))
	for i := range samples {
		samples[i] = make([]int32, 0, 1<<16)
	}
	res.spans = make([]span, 0, maxTraceIters*(len(rungs)+1))
	stride := 1
	start := time.Now()
	n := len(rungs)
	for iter := 0; ; iter++ {
		t := int64(time.Since(start))
		if t >= int64(d) {
			break
		}
		if iter == 64 {
			// Spread the kept spans over the whole pass.
			expect := float64(d) / (float64(t) / 64)
			stride = int(math.Ceil(expect / maxTraceIters))
		}
		keep := iter%stride == 0 && len(res.spans)+n+1 <= cap(res.spans)
		t0 := t
		for j := 0; j < n; j++ {
			k := (iter + j) % n
			if err := rungs[k].fn(); err != nil {
				return nil, fmt.Errorf("ladder rung %s: %w", rungs[k].name, err)
			}
			end := int64(time.Since(start))
			per := (end - t) / int64(rungs[k].batch)
			if per > math.MaxInt32 {
				per = math.MaxInt32
			}
			samples[k] = append(samples[k], int32(per))
			if keep {
				res.spans = append(res.spans, span{iter: int32(iter), rung: int16(k), start: t, end: end})
			}
			t = end
		}
		if keep {
			res.spans = append(res.spans, span{iter: int32(iter), rung: -1, start: t0, end: t})
		}
		if between != nil {
			if err := between(iter); err != nil {
				return nil, err
			}
		}
	}
	for i, r := range rungs {
		res.samples[r.name] = samples[i]
	}
	return res, nil
}

// writeTrace writes the kept spans as JSON lines: one trace per ladder
// iteration, one root span per trace, one child span per rung.
func (res *ladderResult) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, sp := range res.spans {
		if sp.rung < 0 {
			fmt.Fprintf(w, `{"trace":%d,"id":0,"parent":null,"name":"iteration","start_ns":%d,"end_ns":%d}`+"\n",
				sp.iter, sp.start, sp.end)
			continue
		}
		r := res.rungs[sp.rung]
		fmt.Fprintf(w, `{"trace":%d,"id":%d,"parent":0,"name":%q,"ops":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			sp.iter, sp.rung+1, r.name, r.batch, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// ladderPlan is the set of rungs for one workload plus what the wire
// rung learnt while it was built.
type ladderPlan struct {
	rungs      []rung
	between    func(iter int) error
	wireBytes  int     // request plus reply argument lists, packed
	wireAllocs float64 // allocations of one encode + decode of both lists
	wovenRungs []string
}

// buildLadder assembles the rungs for the run's workload. Every rung
// performs the workload's operation; the interrogating ones check the
// outcome name so that a rung cannot silently measure an error path.
func (ru *run) buildLadder() (*ladderPlan, error) {
	r, ctx := ru.rig, ru.ctx
	plan := &ladderPlan{}
	target := r.proxy.Ref()
	cfg := capsule.DefaultInvokeConfig()
	cfg.QoS = callQoS
	client := r.client
	dest := target.Endpoints[0]

	op := "add"
	args := []odp.Value{int64(3)}
	reply := []odp.Value{int64(1) << 22} // a counter some seconds into a run
	// small is the batch of the sub-microsecond rungs.
	small := 16
	if ru.w.op == opBulk {
		op, small = "echo", 1
		args = []odp.Value{ru.callers[0].payload}
		reply = args
	}
	if ru.w.op == opAnnounce {
		op, args, reply = "note", nil, nil
	}

	// Guarded objects take a credential in front of the arguments, good
	// for one call: every rung below the proxy signs its own.
	send := func() ([]odp.Value, error) { return args, nil }
	if ru.w.woven {
		signer := odp.NewSigner(wovenPrincipal, wovenSecret)
		send = func() ([]odp.Value, error) { return signer.Wrap(op, args) }
	}
	okOutcome := func(name string, err error) error {
		if err == nil && name != "ok" {
			err = fmt.Errorf("outcome %q", name)
		}
		return err
	}

	encReq, err := wire.EncodeAllInto(odp.PackedCodec{}, nil, args)
	if err != nil {
		return nil, err
	}
	encReply, err := wire.EncodeAllInto(odp.PackedCodec{}, nil, reply)
	if err != nil {
		return nil, err
	}
	plan.wireBytes = len(encReq) + len(encReply)
	// A raw frame the size of the request packet: protocol header, object
	// id, operation name, argument list.
	frame := make([]byte, 16+len(target.ID)+len(op)+len(encReq))
	frame[0] = frameEcho

	if err := r.warmFrames(frame); err != nil {
		return nil, err
	}

	if ru.w.op == opAnnounce {
		frame[0] = frameOneWay
		const perIteration = 4 // the rungs that reach the workload's counter
		plan.rungs = []rung{
			{rungCore, 1, func() error { return r.proxy.Announce(op) }},
			{rungNaming, 1, func() error { return client.Announce(target, op, nil) }},
			{rungCapsule, 1, func() error { return client.Capsule.AnnounceWith(target, op, nil, cfg) }},
			{rungRPC, 1, func() error { return client.Capsule.Client().Announce(dest, target.ID, op, nil, callQoS) }},
			{rungTransport, 1, func() error { return r.frames.Send(r.frameDest, frame) }},
		}
		// The server executes announcements behind the sender's back;
		// let it catch up before its queue holds more than a window.
		plan.between = func(iter int) error {
			ru.added += perIteration
			if (iter+1)%(announceWindow/perIteration) != 0 {
				return nil
			}
			return ru.callers[0].drain(ru.added)
		}
	} else {
		plan.rungs = []rung{
			{rungCore, 1, func() error {
				out, err := r.proxy.Call(ctx, op, args...)
				return okOutcome(out.Name, err)
			}},
			{rungNaming, 1, func() error {
				a, err := send()
				if err != nil {
					return err
				}
				name, _, err := client.InvokeWith(ctx, target, op, a, cfg)
				return okOutcome(name, err)
			}},
			{rungCapsule, 1, func() error {
				a, err := send()
				if err != nil {
					return err
				}
				name, _, err := client.Capsule.InvokeWith(ctx, target, op, a, cfg)
				return okOutcome(name, err)
			}},
			{rungRPC, 1, func() error {
				a, err := send()
				if err != nil {
					return err
				}
				name, _, err := client.Capsule.Client().Call(ctx, dest, target.ID, op, a, callQoS)
				return okOutcome(name, err)
			}},
			{rungTransport, 1, func() error { return r.frameRoundTrip(frame) }},
		}
		if ru.w.op == opAdd {
			plan.between = func(int) error { ru.added += 4 * args[0].(int64); return nil }
		}
	}

	// The servant alone, and the same servant behind the co-located
	// bypass of a platform that hosts it.
	local := &cell{}
	localRef, err := client.Publish("odpload-local", odp.Object{Servant: &cell{}})
	if err != nil {
		return nil, err
	}
	plan.rungs = append(plan.rungs,
		rung{rungServant, small, func() error {
			for i := 0; i < small; i++ {
				if _, _, err := local.Dispatch(ctx, op, args); err != nil {
					return err
				}
			}
			return nil
		}},
		rung{rungBypass, small, func() error {
			for i := 0; i < small; i++ {
				if _, _, err := client.InvokeWith(ctx, localRef, op, args, cfg); err != nil {
					return err
				}
			}
			return nil
		}},
	)

	// The codec alone: both argument lists of the call, the way the rpc
	// layer encodes (into a reused buffer) and decodes (aliasing) them.
	var encBuf []byte
	var decReq, decReply []odp.Value
	encode := func() error {
		for i := 0; i < small; i++ {
			var err error
			if encBuf, err = wire.EncodeAllInto(odp.PackedCodec{}, encBuf[:0], args); err != nil {
				return err
			}
			if encBuf, err = wire.EncodeAllInto(odp.PackedCodec{}, encBuf[:0], reply); err != nil {
				return err
			}
		}
		return nil
	}
	decode := func() error {
		for i := 0; i < small; i++ {
			var err error
			if decReq, err = (odp.PackedCodec{}).DecodeAllAlias(decReq[:0], encReq); err != nil {
				return err
			}
			if decReply, err = (odp.PackedCodec{}).DecodeAllAlias(decReply[:0], encReply); err != nil {
				return err
			}
		}
		return nil
	}
	plan.rungs = append(plan.rungs, rung{rungWireEnc, small, encode}, rung{rungWireDec, small, decode})
	const allocRounds = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRounds; i++ {
		if err := encode(); err != nil {
			return nil, err
		}
		if err := decode(); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)
	plan.wireAllocs = float64(after.Mallocs-before.Mallocs) / float64(allocRounds*small)

	refOps := 1
	if !r.cfg.tcp {
		refOps = refBatch
	}
	plan.rungs = append(plan.rungs, rung{rungRef, refOps, func() error {
		_, err := r.refRoundTrip()
		return err
	}})

	// E15's ladder: the same call to objects that add one environment
	// constraint each; the workload's own target is the fifth.
	if ru.w.woven {
		for i, ref := range r.woven[:len(r.woven)-1] {
			name := fmt.Sprintf("env%d", i)
			proxy := client.Bind(ref).WithQoS(callQoS)
			plan.wovenRungs = append(plan.wovenRungs, name)
			plan.rungs = append(plan.rungs, rung{name, 1, func() error {
				out, err := proxy.Call(ctx, op, args...)
				return okOutcome(out.Name, err)
			}})
		}
	}
	return plan, nil
}
