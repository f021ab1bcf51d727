package odp_test

// Mixed-codec simulation scenario: one fabric carries two wire regimes
// side by side — a pair speaking ansa-packed/1 (the default) and a
// text-codec pair speaking human-readable frames, all four through
// their coalescers. Tracing every call on all four nodes, the
// span forest must show the same causal shape for both regimes: every remote invocation is a singular dispatch tree —
// one root, one rpc.send, exactly one rpc.dispatch — no matter which
// codec carried the bytes. A duplicated or missing dispatch under
// either codec would mean its path re-delivered or dropped a
// request. The packed pair's coalescers run on the simulation's clock
// too, so their flush-delay histograms are part of what a seed replays.

import (
	"context"
	"testing"
	"time"

	"odp"
	"odp/internal/sim"
)

// runMixedCodecSim drives the scenario and returns the rendered span
// forest, plus the packed pair's flush-delay histograms as folded into
// Gather (transport.coalescer.flush_delay*), for determinism comparison.
func runMixedCodecSim(t *testing.T, s *sim.Sim) (forest string, flushDelay [2]odp.HistogramSnapshot) {
	t.Helper()
	ctx := context.Background()
	trace := odp.WithTracing(odp.TraceSampleEvery(1))

	// Packed regime: the default codec.
	pserver := simPlatform(t, s, "pserver", trace)
	pclient := simPlatform(t, s, "pclient", trace)
	// Text regime: same fabric, textual frames.
	tserver := simPlatform(t, s, "tserver", odp.WithCodec(odp.TextCodec{}), trace)
	tclient := simPlatform(t, s, "tclient", odp.WithCodec(odp.TextCodec{}), trace)

	packed := &countingServant{}
	pref, err := pserver.Publish("pctr", odp.Object{Servant: packed})
	if err != nil {
		t.Fatal(err)
	}
	textual := &countingServant{}
	tref, err := tserver.Publish("tctr", odp.Object{Servant: textual})
	if err != nil {
		t.Fatal(err)
	}

	qos := odp.QoS{Timeout: 30 * time.Second, Retransmit: 50 * time.Millisecond}
	call := func(p *odp.Platform, ref odp.Ref) {
		t.Helper()
		if err := driveCall(t, s, time.Minute, func() error {
			_, err := p.Bind(ref).WithQoS(qos).Call(ctx, "add")
			return err
		}); err != nil {
			t.Fatalf("call: %v", err)
		}
	}

	// One invocation per regime: these are the trees under test. The
	// packed pair's coalescers batch from the first frame.
	call(pclient, pref)
	call(tclient, tref)
	if st := pclient.BatchStats(); st.BatchesSent == 0 {
		t.Fatal("the packed client sent no batch")
	}
	// The codec was never negotiated either: the packed-side call went
	// out packed, and the text-side call did not.
	if pn, _ := pclient.Gather()["rpc.client.packed_upgrades"].(uint64); pn != 1 {
		t.Fatalf("packed client sent %d of 1 calls packed", pn)
	}
	if tn, _ := tclient.Gather()["rpc.client.packed_upgrades"].(uint64); tn != 0 {
		t.Fatalf("text-codec client sent %d calls packed", tn)
	}
	if packed.load() != 1 || textual.load() != 1 {
		t.Fatalf("executions packed=%d text=%d, want 1/1", packed.load(), textual.load())
	}

	// Freeze sampling so collecting the evidence does not grow it, then
	// merge every node's ring into one forest.
	var spans []odp.Span
	for _, p := range []*odp.Platform{pserver, pclient, tserver, tclient} {
		p.Observer().SetSampleEvery(0)
		spans = append(spans, p.Observer().Snapshot()...)
	}
	assertSingularDispatchTrees(t, spans)

	for i, p := range []*odp.Platform{pserver, pclient} {
		flushDelay[i] = odp.HistogramKeys(p.Gather())["transport.coalescer.flush_delay"]
		if flushDelay[i].Count() == 0 {
			t.Errorf("%s: no flush delay recorded", p.Capsule.Name())
		}
	}
	return odp.FormatSpans(spans), flushDelay
}

// assertSingularDispatchTrees checks that every traced remote invocation
// — packed and text alike — forms exactly one tree with exactly one
// rpc.dispatch span: the singular-dispatch property of the forest.
func assertSingularDispatchTrees(t *testing.T, spans []odp.Span) {
	t.Helper()
	type shape struct{ roots, sends, dispatches int }
	byTrace := make(map[uint64]*shape)
	dispatchNodes := make(map[uint64]string)
	for _, sp := range spans {
		sh := byTrace[sp.TraceID]
		if sh == nil {
			sh = &shape{}
			byTrace[sp.TraceID] = sh
		}
		switch {
		case sp.ParentID == 0:
			sh.roots++
		}
		switch sp.Kind {
		case "rpc.send":
			sh.sends++
		case "rpc.dispatch":
			sh.dispatches++
			dispatchNodes[sp.TraceID] = sp.Node
		}
	}
	var packedTrees, textTrees int
	for id, sh := range byTrace {
		if sh.sends == 0 {
			continue // a management or local trace, not a remote call
		}
		if sh.roots != 1 || sh.sends != 1 || sh.dispatches != 1 {
			t.Errorf("trace %x is not a singular dispatch tree: %d roots, %d sends, %d dispatches\n%s",
				id, sh.roots, sh.sends, sh.dispatches, odp.FormatSpans(spans))
		}
		switch dispatchNodes[id] {
		case "pserver":
			packedTrees++
		case "tserver":
			textTrees++
		}
	}
	if packedTrees == 0 || textTrees == 0 {
		t.Errorf("forest misses a regime: %d packed trees, %d text trees\n%s",
			packedTrees, textTrees, odp.FormatSpans(spans))
	}
}

// TestSimMixedCodecSingularDispatch pins both the structural property
// and its determinism: the same seed replayed twice renders the
// byte-identical mixed-codec forest, batches and all.
func TestSimMixedCodecSingularDispatch(t *testing.T) {
	run := func() (string, [2]odp.HistogramSnapshot) {
		s := sim.New(41,
			sim.WithDefaultLink(odp.LinkProfile{Latency: 500 * time.Microsecond}),
		)
		defer s.Close()
		return runMixedCodecSim(t, s)
	}
	f1, d1 := run()
	f2, d2 := run()
	if f1 != f2 {
		t.Fatalf("mixed-codec span forest diverged for seed 41:\n--- run 1\n%s\n--- run 2\n%s", f1, f2)
	}
	if d1 != d2 {
		t.Fatalf("coalescer flush-delay histograms diverged for seed 41 (wall time in a virtual-time snapshot?):\n--- run 1\n%v\n--- run 2\n%v", d1, d2)
	}
	t.Logf("seed=41 mixed-codec span forest (%d bytes):\n%s", len(f1), f1)
}
