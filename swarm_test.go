package odp_test

// Federation-swarm scenarios: whole-platform populations at swarm scale
// (up to 1,000 capsules across 10 administrative domains) running under
// the deterministic simulation harness on a sparse subnet/gateway
// topology. Each scenario is hash-pinned: `go test -count=2` replays it
// in the same process and the second run must reproduce the first run's
// event-trace hash byte for byte.
//
// The scenarios deliberately exercise the three federation-sensitive
// subsystems over gateway links: trader link-following imports, replica
// group membership churn, and distributed garbage collection across an
// inter-domain reference chain — all driven by FaultPlan subnet faults.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"odp"
	"odp/internal/gc"
	"odp/internal/group"
	"odp/internal/sim"
)

// swarmHashes records each swarm test's first-run trace hash and dump;
// a repeat run of the same test in the same process (`-count=2`) must
// match, and a mismatch reports the first divergent canonical line.
var swarmHashes = map[string]string{}
var swarmDumps = map[string]string{}

func pinSwarmHash(t *testing.T, s *sim.Sim) {
	t.Helper()
	h := s.Trace.Hash()
	if prev, ok := swarmHashes[t.Name()]; ok {
		if prev != h {
			a := strings.Split(swarmDumps[t.Name()], "\n")
			b := strings.Split(s.Trace.Dump(), "\n")
			for i := 0; i < len(a) || i < len(b); i++ {
				var la, lb string
				if i < len(a) {
					la = a[i]
				}
				if i < len(b) {
					lb = b[i]
				}
				if la != lb {
					ctx := func(lines []string) string {
						lo := i - 3
						if lo < 0 {
							lo = 0
						}
						hi := i + 4
						if hi > len(lines) {
							hi = len(lines)
						}
						return strings.Join(lines[lo:hi], "\n  ")
					}
					t.Fatalf("event trace diverged across runs at canonical line %d:\n first %q\n this  %q\nfirst-run context:\n  %s\nthis-run context:\n  %s\n(hashes %s vs %s)",
						i+1, la, lb, ctx(a), ctx(b), prev, h)
				}
			}
			t.Fatalf("event trace diverged across runs:\n first %s\n this  %s", prev, h)
		}
	} else {
		swarmHashes[t.Name()] = h
		swarmDumps[t.Name()] = s.Trace.Dump()
	}
	t.Logf("trace hash %s (%d events)", h, s.Trace.Len())
}

// swarmPlatform creates one platform on the simulation fabric without a
// per-platform Cleanup: a thousand individually-drained Closes would pay
// the settle loop a thousand times, so swarm scenarios tear everything
// down in a single bulk Drain instead.
func swarmPlatform(t *testing.T, s *sim.Sim, addr string, opts ...odp.Option) *odp.Platform {
	t.Helper()
	ep, err := s.Fabric.Endpoint(addr)
	if err != nil {
		t.Fatal(err)
	}
	opts = append(opts, odp.WithClock(s.Clock))
	p, err := odp.NewPlatform(addr, ep, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// closeAll closes every platform inside one Drain (teardown parks on
// virtual timers, so the clock must keep advancing until all are down).
func closeAll(s *sim.Sim, platforms []*odp.Platform) {
	s.Drain(func() {
		for i := len(platforms) - 1; i >= 0; i-- {
			_ = platforms[i].Close()
		}
	})
}

// runTo advances virtual time to the absolute instant `at` (measured
// from the epoch), failing the test if the scenario has already run past
// it — the phase-budget assertions that keep fault-plan instants honest.
func runTo(t *testing.T, s *sim.Sim, at time.Duration) {
	t.Helper()
	if e := s.Elapsed(); e >= at {
		t.Fatalf("scenario at +%v already past checkpoint +%v", e, at)
	}
	s.RunFor(at - s.Elapsed())
}

// offGridSkew keeps fault instants off the traffic grid: every link
// latency, retransmit period and timeout in these scenarios is a
// multiple of 10µs, so a 13µs skew guarantees no fault shares an exact
// instant with a send or delivery (see the sim.FaultPlan determinism
// note).
const offGridSkew = 13 * time.Microsecond

type workServant struct{}

func (workServant) Dispatch(context.Context, string, []odp.Value) (string, []odp.Value, error) {
	return "ok", nil, nil
}

func workType() odp.Type {
	return odp.Type{
		Name: "swarm.Work",
		Ops: map[string]odp.Operation{
			"work": {Outcomes: map[string][]odp.Desc{"ok": {}}},
		},
	}
}

// TestSimSwarmTraderFederation is the 1,000-capsule federation scenario:
// 10 domains × 100 capsules on a sparse chain topology where only
// adjacent domains share a gateway link. Capsule 0 of each domain hosts
// the domain trader; every other capsule advertises a service with it.
// Traders federate along the chain, so an import from domain 0 reaches
// domain 9 only by following 9 links — and a FaultPlan partition of the
// d08|d09 gateway must make exactly that query come back empty (skipped
// peer, not a failed import) while everything nearer stays reachable.
func TestSimSwarmTraderFederation(t *testing.T) {
	const domains = 10
	perDomain := 100
	if raceEnabled {
		// The race detector multiplies every settle poll and packet copy;
		// a tenth of the population exercises the same paths.
		perDomain = 10
	}
	const (
		partitionAt = 500 * time.Millisecond
		healAt      = 650 * time.Millisecond
	)

	s := sim.New(29)
	defer s.Close()
	n := sim.Swarm{
		Domains:           domains,
		CapsulesPerDomain: perDomain,
		Intra:             odp.LinkProfile{Latency: 50 * time.Microsecond},
		Gateway:           odp.LinkProfile{Latency: 200 * time.Microsecond},
	}.Build(s)

	platforms := make([]*odp.Platform, 0, domains*perDomain)
	traders := make([]*odp.Platform, domains)
	for d := 0; d < domains; d++ {
		dom := n.Domain(d)
		for c := 0; c < perDomain; c++ {
			opts := []odp.Option{odp.WithDomain(dom)}
			if c == 0 {
				opts = append(opts,
					odp.WithTrader(dom),
					// Tight per-hop federation QoS: a partitioned far-end
					// domain costs 40ms × remaining hops of virtual time,
					// not the 2s default invocation timeout per level.
					odp.WithTraderFederationQoS(odp.QoS{
						Timeout:    40 * time.Millisecond,
						Retransmit: 7 * time.Millisecond,
					}))
			}
			p := swarmPlatform(t, s, n.Addr(d, c), opts...)
			platforms = append(platforms, p)
			if c == 0 {
				traders[d] = p
			}
		}
	}
	defer closeAll(s, platforms)

	for d := 0; d+1 < domains; d++ {
		traders[d].Trader.LinkTo("east", traders[d+1].Trader.Ref())
	}

	s.Install(sim.NewFaultPlan().
		At(partitionAt+offGridSkew).PartitionSubnets(n.Domain(domains-2), n.Domain(domains-1)).
		At(healAt+offGridSkew).HealSubnets(n.Domain(domains-2), n.Domain(domains-1)))

	// Advertise phase: every worker capsule publishes its servant and
	// registers the offer with its domain trader over the wire —
	// 990 remote advertisements, serialized for replay stability.
	ctx := context.Background()
	for d := 0; d < domains; d++ {
		dom := n.Domain(d)
		tref := traders[d].Trader.Ref()
		for c := 1; c < perDomain; c++ {
			w := platforms[d*perDomain+c]
			ref, err := w.Publish("svc", odp.Object{Servant: workServant{}, Type: workType()})
			if err != nil {
				t.Fatal(err)
			}
			tc := odp.NewTraderClient(w, tref)
			if err := driveCall(t, s, time.Minute, func() error {
				_, aerr := tc.Advertise(ctx, workType(), ref, map[string]odp.Value{"dom": dom})
				return aerr
			}); err != nil {
				t.Fatalf("advertise %s: %v", n.Addr(d, c), err)
			}
		}
	}

	importer := odp.NewTraderClient(platforms[1], traders[0].Trader.Ref())
	farDom := n.Domain(domains - 1)
	farSpec := odp.ImportSpec{
		Requirement: workType(),
		Constraints: []odp.Constraint{{Key: "dom", Op: odp.OpEq, Value: farDom}},
		MaxHops:     domains - 1,
		MaxMatches:  4,
	}
	var far []odp.Offer
	importFar := func() error {
		var err error
		far, err = importer.Import(ctx, farSpec)
		return err
	}

	// Query 1 (healthy chain): the far domain's offers come back with the
	// full 9-link context trail, so context-relative naming keeps them
	// resolvable from domain 0.
	if err := driveCall(t, s, time.Minute, importFar); err != nil {
		t.Fatal(err)
	}
	if len(far) != 4 {
		t.Fatalf("far import returned %d offers, want 4", len(far))
	}
	wantPrefix := strings.Repeat("east!", domains-1) + farDom + "/offer-"
	for _, o := range far {
		if !strings.HasPrefix(o.ID, wantPrefix) {
			t.Fatalf("far offer %q lacks the %d-link context trail %q…", o.ID, domains-1, wantPrefix)
		}
	}

	// A one-hop unconstrained import sees exactly the local and adjacent
	// domains' offers — the sparse topology means nothing further leaks in.
	var broad []odp.Offer
	if err := driveCall(t, s, time.Minute, func() error {
		var err error
		broad, err = importer.Import(ctx, odp.ImportSpec{Requirement: workType(), MaxHops: 1})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if want := 2 * (perDomain - 1); len(broad) != want {
		t.Fatalf("one-hop import returned %d offers, want %d", len(broad), want)
	}

	// Query 2 (partitioned gateway): the d08→d09 hop times out and is
	// skipped; the import itself must succeed with zero matches.
	runTo(t, s, partitionAt+10*time.Millisecond)
	if err := driveCall(t, s, time.Minute, importFar); err != nil {
		t.Fatalf("import across partition failed hard, want skipped peer: %v", err)
	}
	if len(far) != 0 {
		t.Fatalf("partitioned far import returned %d offers, want 0", len(far))
	}
	if e := s.Elapsed(); e >= healAt {
		t.Fatalf("partitioned import ran to +%v, past the heal instant +%v", e, healAt)
	}

	// Query 3 (healed): the chain answers again.
	runTo(t, s, healAt+10*time.Millisecond)
	if err := driveCall(t, s, time.Minute, importFar); err != nil {
		t.Fatal(err)
	}
	if len(far) != 4 {
		t.Fatalf("far import after heal returned %d offers, want 4", len(far))
	}

	st := s.Fabric.Stats()
	if st.Cut == 0 {
		t.Fatal("subnet partition cut no packets")
	}

	// Per-domain rollups: one Gather sweep over all 1,000 capsules.
	rec := odp.GatherDomains(platforms...)
	for d := 0; d < domains; d++ {
		dom := n.Domain(d)
		if got := rec["domain."+dom+".platforms"]; got != uint64(perDomain) {
			t.Fatalf("domain.%s.platforms = %v, want %d", dom, got, perDomain)
		}
		if got := rec["domain."+dom+".trader.offers"]; got != uint64(perDomain-1) {
			t.Fatalf("domain.%s.trader.offers = %v, want %d", dom, got, perDomain-1)
		}
	}
	// The home trader served all four imports; the far trader saw only
	// the two that crossed a healthy chain.
	if got := rec["domain."+n.Domain(0)+".trader.imports"]; got != uint64(4) {
		t.Fatalf("domain.%s.trader.imports = %v, want 4", n.Domain(0), got)
	}
	if got := rec["domain."+farDom+".trader.imports"]; got != uint64(2) {
		t.Fatalf("domain.%s.trader.imports = %v, want 2", farDom, got)
	}

	s.Mark("swarm trader done capsules=%d offers=%d cut=%d delivered=%d",
		domains*perDomain, (perDomain-1)*domains, st.Cut, st.Delivered)
	pinSwarmHash(t, s)
}

// swarmCounter is the replicated servant for the group-churn scenario.
type swarmCounter struct {
	mu sync.Mutex
	n  int64
}

func (c *swarmCounter) Dispatch(_ context.Context, op string, _ []odp.Value) (string, []odp.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch op {
	case "add":
		c.n++
		return "ok", []odp.Value{c.n}, nil
	case "total":
		return "ok", []odp.Value{c.n}, nil
	}
	return "", nil, fmt.Errorf("swarmCounter: unknown op %q", op)
}

// TestSimSwarmGroupChurn churns a 100-member replica group spread over
// 10 gateway-meshed domains: a FaultPlan isolates one whole subnet, the
// sequencer expels its 10 silent members, the subnet heals, and a fresh
// member joins the shrunken view — with replicated state surviving the
// whole episode.
func TestSimSwarmGroupChurn(t *testing.T) {
	const domains = 10
	perDomain := 10
	if raceEnabled {
		perDomain = 3
	}
	members := domains * perDomain
	const (
		isolateAt = 600 * time.Millisecond
		expelBy   = 1400 * time.Millisecond
		rejoinAt  = 1600 * time.Millisecond
	)

	s := sim.New(37)
	defer s.Close()
	n := sim.Swarm{
		Domains:           domains,
		CapsulesPerDomain: perDomain,
		Intra:             odp.LinkProfile{Latency: 50 * time.Microsecond},
		Gateway:           odp.LinkProfile{Latency: 200 * time.Microsecond},
	}.Build(s)
	// A replica group needs all-pairs reachability; the chain only links
	// neighbours, so mesh the remaining domain pairs explicitly.
	for a := 0; a < domains; a++ {
		for b := a + 2; b < domains; b++ {
			s.Fabric.LinkSubnets(n.Domain(a), n.Domain(b), odp.LinkProfile{Latency: 200 * time.Microsecond})
		}
	}

	platforms := make([]*odp.Platform, 0, members+2)
	memberPlatforms := make([]*odp.Platform, 0, members)
	for d := 0; d < domains; d++ {
		for c := 0; c < perDomain; c++ {
			p := swarmPlatform(t, s, n.Addr(d, c), odp.WithDomain(n.Domain(d)))
			platforms = append(platforms, p)
			memberPlatforms = append(memberPlatforms, p)
		}
	}
	clientAddr := n.Domain(0) + "/c900"
	s.Fabric.JoinSubnet(clientAddr, n.Domain(0))
	client := swarmPlatform(t, s, clientAddr, odp.WithDomain(n.Domain(0)))
	platforms = append(platforms, client)
	defer closeAll(s, platforms)

	spec := odp.ReplicaSpec{
		GroupID: "swarm",
		Mode:    odp.ModeActive,
		// Heartbeats fan out concurrently, so a detection pass costs one
		// call timeout (2×interval) even with a whole domain dark.
		// FailureTimeout stays several passes wide so live backups —
		// silent only between passes — never cross their own promotion
		// thresholds.
		HeartbeatInterval: 20 * time.Millisecond,
		FailureTimeout:    400 * time.Millisecond,
	}
	var rep *odp.Replicated
	if err := driveCall(t, s, time.Minute, func() error {
		var err error
		rep, err = odp.PublishReplicated(memberPlatforms, spec, func() odp.Servant { return &swarmCounter{} })
		return err
	}); err != nil {
		t.Fatalf("join phase: %v", err)
	}
	stopRep := rep
	defer func() { s.Drain(stopRep.Stop) }()

	ctx := context.Background()
	proxy := client.Bind(rep.Ref())
	add := func() {
		t.Helper()
		if err := driveCall(t, s, time.Minute, func() error {
			out, err := proxy.Call(ctx, "add")
			if err != nil {
				return err
			}
			if !out.Is("ok") {
				return fmt.Errorf("add outcome %+v", out)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	add()
	add()
	add()
	if e := s.Elapsed(); e >= isolateAt {
		t.Fatalf("join+invoke phase ran to +%v, past the isolation instant +%v", e, isolateAt)
	}

	s.Install(sim.NewFaultPlan().
		At(isolateAt + offGridSkew).IsolateSubnet(n.Domain(domains - 1)).
		At(rejoinAt + offGridSkew).RejoinSubnet(n.Domain(domains - 1)))

	// Run through the churn window: the sequencer expels all perDomain
	// members of the dark domain, one successor view per expulsion.
	runTo(t, s, expelBy)
	if _, ids := rep.Members[0].View(); len(ids) != members-perDomain {
		t.Fatalf("post-churn view has %d members, want %d", len(ids), members-perDomain)
	}
	if got := rep.Members[1].Promotions(); got != 0 {
		t.Fatalf("live backup promoted itself %d times during the detection pass", got)
	}
	// The expelled members never heard the successor views.
	if _, ids := rep.Members[members-1].View(); len(ids) != members {
		t.Fatalf("isolated member's stale view has %d members, want %d", len(ids), members)
	}

	// Heal, then a fresh member from the healed domain joins the
	// shrunken group and replays the logged invocations.
	runTo(t, s, rejoinAt+20*time.Millisecond)
	joinerAddr := n.Domain(domains-1) + "/c900"
	s.Fabric.JoinSubnet(joinerAddr, n.Domain(domains-1))
	jp := swarmPlatform(t, s, joinerAddr, odp.WithDomain(n.Domain(domains-1)))
	platforms = append(platforms, jp)
	jm, err := group.NewMember(jp.Capsule, &swarmCounter{}, group.Config{
		GroupID:           "swarm",
		Mode:              group.ModeActive,
		HeartbeatInterval: spec.HeartbeatInterval,
		FailureTimeout:    spec.FailureTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Drain(jm.Stop) }()
	if err := driveCall(t, s, time.Minute, func() error {
		return jm.Join(ctx, rep.Members[0].GroupRef())
	}); err != nil {
		t.Fatalf("post-heal join: %v", err)
	}
	jm.Start()
	// Mirror PublishReplicated's stats wiring so the joiner's execution
	// counter lands in its domain rollup too.
	jm2 := jm
	jp.AddStatsSource(func(m *odp.Metrics) {
		m.Counters["group.swarm.executed"] = jm2.Executed()
		m.Counters["group.swarm.promotions"] = jm2.Promotions()
	})

	if _, ids := rep.Members[0].View(); len(ids) != members-perDomain+1 {
		t.Fatalf("post-join view has %d members, want %d", len(ids), members-perDomain+1)
	}
	if got := jm.Executed(); got != 3 {
		t.Fatalf("joiner replayed %d invocations, want 3", got)
	}

	add()
	add()
	var total int64
	if err := driveCall(t, s, time.Minute, func() error {
		out, err := proxy.Call(ctx, "total")
		if err != nil {
			return err
		}
		total, err = out.Int(0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Fatalf("replicated total = %d across churn, want 5", total)
	}

	// Per-domain rollups: live domains executed all six ordered
	// invocations on every member; the churned domain's count is its
	// expelled members' three plus the joiner's six.
	rec := odp.GatherDomains(platforms...)
	liveDom := n.Domain(0)
	if got := rec["domain."+liveDom+".group.swarm.executed"]; got != uint64(perDomain*6) {
		t.Fatalf("domain.%s.group.swarm.executed = %v, want %d", liveDom, got, perDomain*6)
	}
	churnDom := n.Domain(domains - 1)
	if got := rec["domain."+churnDom+".group.swarm.executed"]; got != uint64(perDomain*3+6) {
		t.Fatalf("domain.%s.group.swarm.executed = %v, want %d", churnDom, got, perDomain*3+6)
	}

	st := s.Fabric.Stats()
	if st.Cut == 0 {
		t.Fatal("subnet isolation cut no packets")
	}
	s.Mark("swarm group churn members=%d view=%d total=%d cut=%d",
		members, members-perDomain+1, total, st.Cut)
	pinSwarmHash(t, s)
}

// TestSimSwarmGCRefChain stretches a distributed-GC reference chain
// across the federation: the object on domain k is kept alive solely by
// a lease holder on domain k+1, renewing over a gateway link. Cutting
// one mid-chain gateway expires exactly the lease behind it — the rest
// of the chain keeps renewing — and the collector reclaims exactly that
// object.
func TestSimSwarmGCRefChain(t *testing.T) {
	const domains = 10
	const (
		cutFrom     = 4 // the d04|d05 gateway goes dark
		partitionAt = 200 * time.Millisecond
		sweepAt     = 600 * time.Millisecond
		healAt      = 1100 * time.Millisecond
		endAt       = 1300 * time.Millisecond
	)

	s := sim.New(31)
	defer s.Close()
	n := sim.Swarm{
		Domains:           domains,
		CapsulesPerDomain: 1,
		Intra:             odp.LinkProfile{Latency: 50 * time.Microsecond},
		Gateway:           odp.LinkProfile{Latency: 200 * time.Microsecond},
	}.Build(s)

	platforms := make([]*odp.Platform, domains)
	for d := 0; d < domains; d++ {
		platforms[d] = swarmPlatform(t, s, n.Addr(d, 0),
			odp.WithDomain(n.Domain(d)), odp.WithGCGrace(50*time.Millisecond))
	}
	defer closeAll(s, platforms[:])

	// Objects o0..o8 live on d00..d08; each is leased by the next domain
	// over exactly one gateway link. Domain 9 anchors the chain's end.
	for d := 0; d < domains-1; d++ {
		if _, err := platforms[d].Publish(fmt.Sprintf("o%d", d), odp.Object{
			Servant: workServant{},
			Env:     odp.Env{Leased: &odp.LeaseSpec{}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	holders := make([]*gc.Holder, 0, domains-1)
	for d := 1; d < domains; d++ {
		h := gc.NewHolder(platforms[d].Capsule, n.Addr(d, 0), 300*time.Millisecond)
		holders = append(holders, h)
		objID := fmt.Sprintf("o%d", d-1)
		gcRef := platforms[d-1].Collector.Ref()
		if err := driveCall(t, s, time.Minute, func() error {
			h.Hold(objID, gcRef)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		s.Drain(func() {
			for _, h := range holders {
				h.Stop()
			}
		})
	}()

	s.Install(sim.NewFaultPlan().
		At(partitionAt+offGridSkew).PartitionSubnets(n.Domain(cutFrom), n.Domain(cutFrom+1)).
		At(healAt+offGridSkew).HealSubnets(n.Domain(cutFrom), n.Domain(cutFrom+1)))

	// Let the partition outlast the lease TTL, then sweep every
	// collector: only the object whose holder sits behind the cut may go.
	runTo(t, s, sweepAt)
	for d := 0; d < domains; d++ {
		victims := platforms[d].Collector.Sweep()
		switch {
		case d == cutFrom:
			if len(victims) != 1 || victims[0] != fmt.Sprintf("o%d", cutFrom) {
				t.Fatalf("d%02d sweep collected %v, want [o%d]", d, victims, cutFrom)
			}
		case len(victims) != 0:
			t.Fatalf("d%02d sweep collected %v, want nothing (its lease chain is intact)", d, victims)
		}
	}

	// Heal and run out the clock: the stranded holder's retransmissions
	// reach a collector that no longer knows the object, and every other
	// link keeps renewing.
	runTo(t, s, endAt)
	for d := 0; d < domains; d++ {
		if victims := platforms[d].Collector.Sweep(); len(victims) != 0 {
			t.Fatalf("d%02d post-heal sweep collected %v, want nothing", d, victims)
		}
	}

	rec := odp.GatherDomains(platforms...)
	for d := 0; d < domains; d++ {
		dom := n.Domain(d)
		want := uint64(0)
		if d == cutFrom {
			want = 1
		}
		if got := rec["domain."+dom+".gc.collected"]; got != want {
			t.Fatalf("domain.%s.gc.collected = %v, want %d", dom, got, want)
		}
		if d < domains-1 {
			renewals, _ := rec["domain."+dom+".gc.renewals"].(uint64)
			if d == cutFrom {
				// Only the initial Hold and the one pre-cut renewal count:
				// once o4 is collected, the stranded holder's retransmitted
				// renewals bounce off an unknown object.
				if renewals != 2 {
					t.Fatalf("domain.%s.gc.renewals = %d, want exactly 2 (pre-cut only)", dom, renewals)
				}
			} else if renewals < 3 {
				t.Fatalf("domain.%s.gc.renewals = %d, want ≥3 (chain link should keep renewing)", dom, renewals)
			}
		}
	}

	st := s.Fabric.Stats()
	if st.Cut == 0 {
		t.Fatal("gateway partition cut no renewals")
	}
	s.Mark("swarm gc chain collected=o%d cut=%d delivered=%d", cutFrom, st.Cut, st.Delivered)
	pinSwarmHash(t, s)
}
