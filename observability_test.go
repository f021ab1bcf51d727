package odp_test

// Observability acceptance tests: a sim-driven traced interrogation
// yields one deterministic cross-node span tree retrievable through the
// management interface, and tracing left unsampled adds nothing to the
// E1 hot path.

import (
	"context"
	"strings"
	"testing"
	"time"

	"odp"
	"odp/internal/sim"
)

// fetchSpans interrogates a node's management interface for its span
// ring, driving virtual time until the reply lands.
func fetchSpans(t *testing.T, s *sim.Sim, from *odp.Platform, agentRef odp.Ref) []odp.Span {
	t.Helper()
	var spans []odp.Span
	if err := driveCall(t, s, time.Minute, func() error {
		out, err := from.Bind(agentRef).
			WithQoS(odp.QoS{Timeout: 30 * time.Second, Retransmit: 5 * time.Millisecond}).
			Call(context.Background(), "spans")
		if err != nil {
			return err
		}
		list, _ := out.Result(0).(odp.List)
		spans = odp.SpansFromList(list)
		return nil
	}); err != nil {
		t.Fatalf("spans via management interface: %v", err)
	}
	return spans
}

// runTracedSim drives one remote and one co-located traced invocation
// under the simulation harness, retrieves both nodes' span rings through
// the management interface, and returns the rendered forest. The forest
// is the determinism artifact: same seed, same bytes.
func runTracedSim(t *testing.T, s *sim.Sim) string {
	t.Helper()
	ctx := context.Background()
	server := simPlatform(t, s, "server", odp.WithTracing(odp.TraceSampleEvery(1)))
	client := simPlatform(t, s, "client", odp.WithTracing(odp.TraceSampleEvery(1)))

	remote := &countingServant{}
	ref, err := server.Publish("ctr", odp.Object{Servant: remote})
	if err != nil {
		t.Fatal(err)
	}
	local := &countingServant{}
	lref, err := client.Publish("loc", odp.Object{Servant: local})
	if err != nil {
		t.Fatal(err)
	}

	qos := odp.QoS{Timeout: 30 * time.Second, Retransmit: 5 * time.Millisecond}
	// One remote interrogation: stub → rpc.send → (server dispatch, ack).
	if err := driveCall(t, s, time.Minute, func() error {
		_, err := client.Bind(ref).WithQoS(qos).Call(ctx, "add")
		return err
	}); err != nil {
		t.Fatalf("remote call: %v", err)
	}
	// One co-located interrogation: stub → bypass, nothing on the wire.
	if err := driveCall(t, s, time.Minute, func() error {
		_, err := client.Bind(lref).Call(ctx, "add")
		return err
	}); err != nil {
		t.Fatalf("co-located call: %v", err)
	}
	if remote.load() != 1 || local.load() != 1 {
		t.Fatalf("executions remote=%d local=%d, want 1/1", remote.load(), local.load())
	}

	// Freeze sampling so retrieving the evidence does not grow it.
	client.Observer().SetSampleEvery(0)
	server.Observer().SetSampleEvery(0)

	serverSpans := fetchSpans(t, s, client, server.Agent.Ref())
	clientSpans := fetchSpans(t, s, client, client.Agent.Ref())

	// The unified snapshot folds every layer into one namespace.
	if err := driveCall(t, s, time.Minute, func() error {
		out, err := client.Bind(server.Agent.Ref()).WithQoS(qos).Call(ctx, "gather")
		if err != nil {
			return err
		}
		rec, _ := out.Result(0).(odp.Record)
		for _, key := range []string{
			"rpc.server.requests", "rpc.client.calls", "binder.invocations",
			"gc.collected", "obs.sampled",
		} {
			if _, ok := rec[key]; !ok {
				t.Errorf("gather record missing %q (got %d keys)", key, len(rec))
			}
		}
		if n, _ := rec["rpc.server.requests"].(uint64); n == 0 {
			t.Error("gather: rpc.server.requests = 0, want > 0")
		}
		return nil
	}); err != nil {
		t.Fatalf("gather via management interface: %v", err)
	}

	all := append(serverSpans, clientSpans...)
	assertTracedShapes(t, all)
	return odp.FormatSpans(all)
}

// assertTracedShapes checks the two causal trees the scenario must have
// produced: the remote invocation's cross-node tree and the co-located
// invocation's bypass tree.
func assertTracedShapes(t *testing.T, spans []odp.Span) {
	t.Helper()
	children := make(map[uint64][]odp.Span)
	for _, sp := range spans {
		children[sp.ParentID] = append(children[sp.ParentID], sp)
	}
	childOfKind := func(parent odp.Span, kind string) (odp.Span, bool) {
		for _, c := range children[parent.SpanID] {
			if c.Kind == kind {
				return c, true
			}
		}
		return odp.Span{}, false
	}

	var remoteTree, bypassTree bool
	for _, sp := range spans {
		if sp.Kind != "stub" || sp.Name != "add" || sp.ParentID != 0 {
			continue
		}
		if send, ok := childOfKind(sp, "rpc.send"); ok {
			d, okD := childOfKind(send, "rpc.dispatch")
			_, okA := childOfKind(send, "rpc.ack")
			if okD && okA && d.Node == "server" && d.TraceID == sp.TraceID {
				remoteTree = true
			}
			continue
		}
		if bp, ok := childOfKind(sp, "bypass"); ok && bp.Node == "client" {
			bypassTree = true
		}
	}
	if !remoteTree {
		t.Errorf("no remote tree (stub → rpc.send → {rpc.dispatch@server, rpc.ack}) in:\n%s",
			odp.FormatSpans(spans))
	}
	if !bypassTree {
		t.Errorf("no co-located tree (stub → bypass@client) in:\n%s",
			odp.FormatSpans(spans))
	}
}

// TestSimTracedInterrogation is the observability determinism pin: the
// same seed replayed twice must render byte-identical span forests —
// span ids from the node-keyed deterministic source, timestamps from the
// fake clock — and because both are seed-anchored, `go test -count=2`
// reproduces the same bytes again.
func TestSimTracedInterrogation(t *testing.T) {
	run := func() string {
		s := sim.New(29,
			sim.WithDefaultLink(odp.LinkProfile{Latency: 500 * time.Microsecond}),
		)
		defer s.Close()
		return runTracedSim(t, s)
	}
	f1, f2 := run(), run()
	if f1 != f2 {
		t.Fatalf("span forest diverged for seed 29:\n--- run 1\n%s\n--- run 2\n%s", f1, f2)
	}
	if !strings.Contains(f1, "bypass") || !strings.Contains(f1, "rpc.dispatch") {
		t.Fatalf("forest misses expected span kinds:\n%s", f1)
	}
	t.Logf("seed=29 span forest (%d bytes):\n%s", len(f1), f1)
}

// TestE7RelocationSpanTree is the E7 (§5.4) transparency assertion in
// span-tree form: where the counter form checks Relocations totals, the
// tree form proves *which invocation* needed the relocator and where the
// consultation sits in its causal chain. A stationary interface's tree
// must carry no binder.resolve span at all; after the object re-hosts
// without leaving a forward, the stale-reference invocation's tree must
// show the failed send, the binder.resolve consultation (with the
// lookup's own nested send), and the successful retry — all under one
// stub root.
func TestE7RelocationSpanTree(t *testing.T) {
	ctx := context.Background()
	s := sim.New(17,
		sim.WithDefaultLink(odp.LinkProfile{Latency: 200 * time.Microsecond}),
	)
	t.Cleanup(s.Close)
	home := simPlatform(t, s, "home")
	away := simPlatform(t, s, "away", odp.WithRelocator(home.RelocRef))
	client := simPlatform(t, s, "client",
		odp.WithRelocator(home.RelocRef),
		odp.WithTracing(odp.TraceSampleEvery(1)))

	ref, err := home.Publish("cell", odp.Object{Servant: &countingServant{}})
	if err != nil {
		t.Fatal(err)
	}
	qos := odp.QoS{Timeout: 30 * time.Second, Retransmit: 5 * time.Millisecond}
	call := func() error {
		return driveCall(t, s, time.Minute, func() error {
			_, err := client.Bind(ref).WithQoS(qos).Call(ctx, "add")
			return err
		})
	}

	// 1. Stationary: the object is where the reference says.
	if err := call(); err != nil {
		t.Fatalf("stationary call: %v", err)
	}

	// 2. The object re-hosts WITHOUT a forward (host restart, not a
	// graceful migration): the old capsule forgets the id, the new host
	// exports the same identity, and only the relocation service learns
	// the bumped epoch.
	home.Capsule.Unexport(ref.ID)
	moved, err := away.Publish(ref.ID, odp.Object{Servant: &countingServant{}})
	if err != nil {
		t.Fatal(err)
	}
	moved.Epoch = ref.Epoch + 1
	home.RelocTable.Register(moved)

	// 3. The same stale reference still works — the binder recovers.
	if err := call(); err != nil {
		t.Fatalf("post-move call via stale ref: %v", err)
	}

	client.Observer().SetSampleEvery(0)
	spans := fetchSpans(t, s, client, client.Agent.Ref())

	children := make(map[uint64][]odp.Span)
	for _, sp := range spans {
		children[sp.ParentID] = append(children[sp.ParentID], sp)
	}
	kindsOf := func(parent odp.Span) map[string]int {
		m := make(map[string]int)
		for _, c := range children[parent.SpanID] {
			m[c.Kind]++
		}
		return m
	}

	var stationary, relocated bool
	for _, sp := range spans {
		if sp.Kind != "stub" || sp.Name != "add" || sp.ParentID != 0 {
			continue
		}
		kinds := kindsOf(sp)
		if kinds["binder.resolve"] == 0 {
			// The stationary tree: sends, but no relocator consultation —
			// the span-tree form of "no relocator traffic" (§5.4 scaling).
			if kinds["rpc.send"] > 0 {
				stationary = true
			}
			continue
		}
		// The relocated tree: failed send + retry send around exactly one
		// consultation, and the consultation's own lookup rides the wire
		// as a nested send beneath it.
		if kinds["binder.resolve"] != 1 || kinds["rpc.send"] < 2 {
			t.Fatalf("relocated tree has %d resolves and %d sends, want 1 and >=2:\n%s",
				kinds["binder.resolve"], kinds["rpc.send"], odp.FormatSpans(spans))
		}
		for _, c := range children[sp.SpanID] {
			if c.Kind != "binder.resolve" {
				continue
			}
			if c.Name != ref.ID {
				t.Fatalf("resolve span names %q, want the moved ref %q", c.Name, ref.ID)
			}
			if kindsOf(c)["rpc.send"] == 0 {
				t.Fatalf("resolve span has no nested lookup send:\n%s", odp.FormatSpans(spans))
			}
		}
		relocated = true
	}
	if !stationary {
		t.Fatalf("no stationary tree (stub → rpc.send, no binder.resolve) in:\n%s", odp.FormatSpans(spans))
	}
	if !relocated {
		t.Fatalf("no relocated tree (stub → {rpc.send, binder.resolve → rpc.send, rpc.send}) in:\n%s", odp.FormatSpans(spans))
	}
}

// TestAnnouncementStubRoot pins where an announcement's trace is rooted:
// at the binder's stub, as an interrogation's is, and nowhere below it.
// A proxy announcement on a tracing client roots exactly one parentless
// stub span named after the op, and the server's dispatch joins that
// trace; a bare capsule announcement roots none.
func TestAnnouncementStubRoot(t *testing.T) {
	for _, tc := range []struct {
		name     string
		announce func(client *odp.Platform, ref odp.Ref) error
		roots    int
	}{
		{"proxy", func(client *odp.Platform, ref odp.Ref) error {
			return client.Bind(ref).Announce("add")
		}, 1},
		{"capsule", func(client *odp.Platform, ref odp.Ref) error {
			return client.Capsule.Announce(ref, "add", nil)
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(31,
				sim.WithDefaultLink(odp.LinkProfile{Latency: 500 * time.Microsecond}),
			)
			t.Cleanup(s.Close)
			server := simPlatform(t, s, "server", odp.WithTracing(odp.TraceSampleEvery(1)))
			client := simPlatform(t, s, "client", odp.WithTracing(odp.TraceSampleEvery(1)))
			ctr := &countingServant{}
			ref, err := server.Publish("ctr", odp.Object{Servant: ctr})
			if err != nil {
				t.Fatal(err)
			}
			if err := driveCall(t, s, time.Minute, func() error { return tc.announce(client, ref) }); err != nil {
				t.Fatalf("announce: %v", err)
			}
			s.Run(t, time.Minute, func() bool { return ctr.load() == 1 })

			client.Observer().SetSampleEvery(0)
			server.Observer().SetSampleEvery(0)
			spans := append(fetchSpans(t, s, client, server.Agent.Ref()),
				fetchSpans(t, s, client, client.Agent.Ref())...)
			var roots []odp.Span
			for _, sp := range spans {
				if sp.Kind == "stub" {
					roots = append(roots, sp)
				}
			}
			if len(roots) != tc.roots {
				t.Fatalf("%d stub spans, want %d:\n%s", len(roots), tc.roots, odp.FormatSpans(spans))
			}
			if tc.roots == 0 {
				return
			}
			root := roots[0]
			if root.ParentID != 0 || root.Name != "add" || root.Node != "client" {
				t.Fatalf("stub %+v, want a parentless client root named add", root)
			}
			for _, sp := range spans {
				if sp.Kind == "rpc.dispatch" && sp.Node == "server" && sp.TraceID == root.TraceID {
					return
				}
			}
			t.Fatalf("the server's dispatch is not in the stub's trace:\n%s", odp.FormatSpans(spans))
		})
	}
}

// TestUnsampledTracingAddsNoAllocsE1 is the hot-path gate behind the
// "zero overhead until sampled" claim: an E1 remote loopback on
// platforms carrying the full tracing plumbing with sampling off must
// allocate exactly what an untraced platform does.
func TestUnsampledTracingAddsNoAllocsE1(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race: sync.Pool drops puts by design")
	}
	measure := func(opts ...odp.Option) float64 {
		server, client, e1 := e1Pair(t, opts...)
		ref, err := server.Publish("cell", odp.Object{Servant: &countingServant{}})
		if err != nil {
			t.Fatal(err)
		}
		proxy := client.Bind(ref).WithQoS(odp.QoS{Timeout: 30 * time.Second})
		ctx := context.Background()
		call := e1(func() error {
			_, err := proxy.Call(ctx, "add")
			return err
		})
		settleE1(call)
		return minAllocsPerRun(200, call)
	}
	untraced := measure()
	traced := measure(odp.WithTracing()) // sampling off: the default
	// Real added work would cost ≥ 1 alloc per call; 0.5 absorbs
	// background jitter while still proving the path adds nothing.
	if traced > untraced+0.5 {
		t.Fatalf("unsampled tracing allocs/op = %.2f, untraced = %.2f: tracing leaked onto the hot path",
			traced, untraced)
	}
	t.Logf("allocs/op untraced=%.2f traced-unsampled=%.2f", untraced, traced)
}
