package odp_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odp"
	"odp/internal/sim"
)

// vaultServant is the integration-test workload: a secured, migratable
// key/value vault.
type vaultServant struct {
	mu sync.Mutex
	m  map[string]int64
}

func newVault() *vaultServant { return &vaultServant{m: make(map[string]int64)} }

func (v *vaultServant) Dispatch(_ context.Context, op string, args []odp.Value) (string, []odp.Value, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	switch op {
	case "put":
		v.m[args[0].(string)] = args[1].(int64)
		return "ok", nil, nil
	case "get":
		n, ok := v.m[args[0].(string)]
		if !ok {
			return "missing", nil, nil
		}
		return "ok", []odp.Value{n}, nil
	case "size":
		return "ok", []odp.Value{int64(len(v.m))}, nil
	default:
		return "", nil, fmt.Errorf("vault: no op %q", op)
	}
}

func (v *vaultServant) Snapshot() ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	buf := make([]byte, 4)
	binary.BigEndian.PutUint32(buf, uint32(len(v.m)))
	for k, val := range v.m {
		kb := []byte(k)
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(kb)))
		buf = append(buf, l[:]...)
		buf = append(buf, kb...)
		var vb [8]byte
		binary.BigEndian.PutUint64(vb[:], uint64(val))
		buf = append(buf, vb[:]...)
	}
	return buf, nil
}

func (v *vaultServant) Restore(data []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.m = make(map[string]int64)
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	for i := uint32(0); i < n; i++ {
		l := binary.BigEndian.Uint32(data)
		data = data[4:]
		k := string(data[:l])
		data = data[l:]
		v.m[k] = int64(binary.BigEndian.Uint64(data))
		data = data[8:]
	}
	return nil
}

var vaultType = odp.Type{
	Name: "Vault",
	Ops: map[string]odp.Operation{
		"put":  {Args: []odp.Desc{odp.String, odp.Int}, Outcomes: map[string][]odp.Desc{"ok": {}}},
		"get":  {Args: []odp.Desc{odp.String}, Outcomes: map[string][]odp.Desc{"ok": {odp.Int}, "missing": {}}},
		"size": {Outcomes: map[string][]odp.Desc{"ok": {odp.Int}}},
	},
}

// TestIntegrationFullLifecycle drives one object through the platform's
// whole lifecycle, crossing module boundaries at every step: publish
// (weaver: guard + instrumentation + migration gate) → trade → import by
// signature → authenticated use → migration to another node → continued
// use through the stale reference (forward + relocator) → passivation →
// transparent reactivation → management statistics.
func TestIntegrationFullLifecycle(t *testing.T) {
	ctx := context.Background()
	fabric := odp.NewFabric(odp.WithSeed(42), odp.WithDefaultLink(odp.LinkProfile{Latency: 100 * time.Microsecond}))
	t.Cleanup(func() { _ = fabric.Close() })

	mk := func(name string, opts ...odp.Option) *odp.Platform {
		ep, err := fabric.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := odp.NewPlatform(name, ep, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		return p
	}
	home := mk("home", odp.WithTrader("hq"))
	away := mk("away", odp.WithRelocator(home.RelocRef))
	client := mk("client", odp.WithRelocator(home.RelocRef))

	// Shared secrets and factories.
	home.Keys.Share("alice", []byte("alice-key"))
	away.Keys.Share("alice", []byte("alice-key"))
	odp.RegisterFactory(away, "Vault", func() odp.MovableServant { return newVault() })
	odp.RegisterFactory(home, "Vault", func() odp.MovableServant { return newVault() })
	alice := odp.NewSigner("alice", []byte("alice-key"))

	// 1. Publish with a woven stack: guard + metrics + movable.
	ref, err := home.Publish("vault", odp.Object{
		Servant: newVault(),
		Type:    vaultType,
		Env: odp.Env{
			Secured: &odp.SecureSpec{Policy: odp.Policy{Rules: []odp.Rule{
				{Principal: "alice", Op: "*", Allow: true},
			}}},
			Managed: &odp.ManagedSpec{MetricPrefix: "vault"},
			Movable: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// 2. Trade it; 3. the client imports by structural requirement.
	if _, err := home.Trader.Advertise(vaultType, ref, map[string]odp.Value{"tier": "gold"}); err != nil {
		t.Fatal(err)
	}
	req := odp.Type{Name: "KV", Ops: map[string]odp.Operation{
		"put": {Args: []odp.Desc{odp.String, odp.Int}, Outcomes: map[string][]odp.Desc{"ok": {}}},
		"get": {Args: []odp.Desc{odp.String}, Outcomes: map[string][]odp.Desc{"ok": {odp.Int}, "missing": {}}},
	}}
	tc := odp.NewTraderClient(client, home.Trader.Ref())
	offer, err := tc.ImportOne(ctx, odp.ImportSpec{
		Requirement: req,
		Constraints: []odp.Constraint{{Key: "tier", Op: odp.OpEq, Value: "gold"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// 4. Authenticated use; unauthenticated use is refused.
	proxy := client.Bind(offer.Ref).WithSigner(alice)
	for i := 0; i < 10; i++ {
		out, err := proxy.Call(ctx, "put", fmt.Sprintf("k%d", i), int64(i*i))
		if err != nil || !out.Is("ok") {
			t.Fatalf("put %d: %+v %v", i, out, err)
		}
	}
	if _, err := client.Bind(offer.Ref).Call(ctx, "get", "k1"); err == nil {
		t.Fatal("unauthenticated access admitted")
	}

	// 5. Migrate to the away node.
	newRef, err := home.Mover.Migrate(ctx, "vault", away.Mover.AcceptorRef())
	if err != nil {
		t.Fatal(err)
	}
	if newRef.Endpoints[0] != "away" {
		t.Fatalf("migrated to %v", newRef.Endpoints)
	}

	// 6. The client's OLD reference still works. The away node never
	// published "vault", so its weaver gives the arriving incarnation what
	// its host knows: the migration gate and the type check, no guard and
	// no metrics — which is why this unsigned call is admitted. A node
	// that wants the guard there publishes the id itself (§4.5: woven
	// mechanisms are per-node engineering).
	out, err := client.Bind(offer.Ref).Call(ctx, "get", "k3")
	if err != nil || !out.Is("ok") {
		t.Fatalf("post-migration get via stale ref: %+v %v", out, err)
	}
	if n, _ := out.Int(0); n != 9 {
		t.Fatalf("state lost in migration: %d", n)
	}

	// 7. Passivate at the away node; a later invocation transparently
	// reactivates it from the store.
	if err := away.Mover.Passivate("vault"); err != nil {
		t.Fatal(err)
	}
	out, err = client.Bind(newRef).Call(ctx, "size")
	if err != nil || !out.Is("ok") {
		t.Fatalf("post-passivation size: %+v %v", out, err)
	}
	if n, _ := out.Int(0); n != 10 {
		t.Fatalf("reactivated vault has %d entries", n)
	}

	// 8. Management saw the secured traffic at the home node.
	out, err = client.Bind(home.Agent.Ref()).Call(ctx, "gather")
	if err != nil || !out.Is("ok") {
		t.Fatal(err)
	}
	gathered := out.Result(0).(odp.Record)
	calls, _ := gathered["registry.c.vault.calls"].(uint64)
	if calls < 10 {
		t.Fatalf("management lost track: %d calls", calls)
	}
}

// TestIntegrationPartitionHealing exercises the protocol stack across a
// network partition: invocations stall during the cut and succeed after
// healing, with no duplicate executions. It runs under the deterministic
// simulation harness — the partition window, retransmissions and the
// heal are all virtual-time events, so the scenario completes in
// milliseconds of wall time.
func TestIntegrationPartitionHealing(t *testing.T) {
	ctx := context.Background()
	s := sim.New(9, sim.WithDefaultLink(odp.LinkProfile{Latency: 200 * time.Microsecond}))
	t.Cleanup(s.Close)
	server := simPlatform(t, s, "server")
	client := simPlatform(t, s, "client", odp.WithRelocator(server.RelocRef))

	counter := &countingServant{}
	ref, err := server.Publish("ctr", odp.Object{Servant: counter})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-partition sanity.
	if err := driveCall(t, s, 30*time.Second, func() error {
		_, err := client.Bind(ref).Call(ctx, "add")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Cut the network mid-call: the call is issued, the partition opens,
	// then heals while the client is still retransmitting.
	s.Fabric.Partition("client", "server", true)
	done := make(chan error, 1)
	go func() {
		_, err := client.Bind(ref).
			WithQoS(odp.QoS{Timeout: 10 * time.Second, Retransmit: 10 * time.Millisecond}).
			Call(ctx, "add")
		done <- err
	}()
	// RunFor settles first, which runs the call until it has armed its
	// timers; then sit out 150ms of virtual partition: every
	// retransmission must be cut.
	s.RunFor(150 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("call completed across a partition: %v", err)
	default:
	}
	s.Fabric.Partition("client", "server", false)
	var healErr error
	s.Run(t, 30*time.Second, func() bool {
		select {
		case healErr = <-done:
			return true
		default:
			return false
		}
	})
	if healErr != nil {
		t.Fatalf("call failed after heal: %v", healErr)
	}
	if got := counter.load(); got != 2 {
		t.Fatalf("executions = %d, want 2 (no duplicates across partition)", got)
	}
}

type countingServant struct {
	mu sync.Mutex
	n  int64
}

func (c *countingServant) Dispatch(_ context.Context, op string, _ []odp.Value) (string, []odp.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return "ok", []odp.Value{c.n}, nil
}

func (c *countingServant) load() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TestIntegrationReplicatedSecuredDirectory layers replication and
// trading together: a replicated directory traded and imported by
// signature, surviving the loss of a member mid-use. It runs under the
// simulation harness: heartbeats, the failure detector and the retry
// loop all tick in virtual time.
func TestIntegrationReplicatedTradedDirectory(t *testing.T) {
	ctx := context.Background()
	s := sim.New(11)
	t.Cleanup(s.Close)
	nodes := []*odp.Platform{
		simPlatform(t, s, "n0", odp.WithTrader("hq")),
		simPlatform(t, s, "n1"),
		simPlatform(t, s, "n2"),
	}
	client := simPlatform(t, s, "client", odp.WithRelocator(nodes[0].RelocRef))

	var rep *odp.Replicated
	if err := driveCall(t, s, 30*time.Second, func() error {
		var err error
		rep, err = odp.PublishReplicated(nodes, odp.ReplicaSpec{
			GroupID:           "dir",
			Mode:              odp.ModeActive,
			HeartbeatInterval: 25 * time.Millisecond,
			FailureTimeout:    200 * time.Millisecond,
		}, func() odp.Servant { return newVault() })
		return err
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain(rep.Stop) })

	// Trade the group reference like any singleton.
	if _, err := nodes[0].Trader.Advertise(vaultType, rep.Ref(), nil); err != nil {
		t.Fatal(err)
	}
	var offer odp.Offer
	if err := driveCall(t, s, 30*time.Second, func() error {
		tc := odp.NewTraderClient(client, nodes[0].Trader.Ref())
		var err error
		offer, err = tc.ImportOne(ctx, odp.ImportSpec{Requirement: vaultType})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	write := func(k string, v int64) error {
		deadline := s.Clock.Now().Add(10 * time.Second)
		for {
			err := driveCall(t, s, 15*time.Second, func() error {
				_, err := client.Bind(offer.Ref).
					WithQoS(odp.QoS{Timeout: 400 * time.Millisecond}).
					Call(ctx, "put", k, v)
				return err
			})
			if err == nil {
				return nil
			}
			if s.Clock.Now().After(deadline) {
				return err
			}
			s.RunFor(20 * time.Millisecond)
		}
	}
	for i := 0; i < 5; i++ {
		if err := write(fmt.Sprintf("k%d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Kill a backup (not the sequencer): service continues unaffected.
	rep.Members[2].Stop()
	s.Fabric.Isolate("n2", true)
	if err := write("after-backup-loss", 99); err != nil {
		t.Fatal(err)
	}
	if err := driveCall(t, s, 30*time.Second, func() error {
		out, err := client.Bind(offer.Ref).WithQoS(odp.QoS{Timeout: 2 * time.Second}).Call(ctx, "get", "k3")
		if err != nil || !out.Is("ok") {
			return fmt.Errorf("read after backup loss: %+v %v", out, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSoakMixedWorkload runs a sustained mixed workload — plain invokes,
// transactions, announcements, migrations and sweeps concurrently — as a
// whole-platform shakedown. The workload window is measured in virtual
// time under the simulation harness, so the soak's seconds of protocol
// time cost a fraction of that in wall time (E17).
func TestSoakMixedWorkload(t *testing.T) {
	ctx := context.Background()
	s := sim.New(21, sim.WithDefaultLink(odp.LinkProfile{
		Latency: 100 * time.Microsecond, Jitter: 100 * time.Microsecond,
	}))
	t.Cleanup(s.Close)
	nodeA := simPlatform(t, s, "na", odp.WithGCGrace(50*time.Millisecond))
	nodeB := simPlatform(t, s, "nb", odp.WithRelocator(nodeA.RelocRef))
	client := simPlatform(t, s, "nc", odp.WithRelocator(nodeA.RelocRef))
	odp.RegisterFactory(nodeA, "Vault", func() odp.MovableServant { return newVault() })
	odp.RegisterFactory(nodeB, "Vault", func() odp.MovableServant { return newVault() })

	// Workload 1: plain counter traffic.
	plainRef, err := nodeA.Publish("soak-plain", odp.Object{Servant: &countingServant{}})
	if err != nil {
		t.Fatal(err)
	}
	// Workload 2: two transactional accounts.
	sep := odp.Separation{ReadOnly: map[string]bool{"get": true}}
	txRefA, err := nodeA.Publish("soak-txa", odp.Object{
		Servant: newVault(), Env: odp.Env{Atomic: &odp.AtomicSpec{Separation: sep}},
	})
	if err != nil {
		t.Fatal(err)
	}
	txRefB, err := nodeB.Publish("soak-txb", odp.Object{
		Servant: newVault(), Env: odp.Env{Atomic: &odp.AtomicSpec{Separation: sep}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Workload 3: a migrating vault.
	hotRef, err := nodeA.Publish("soak-hot", odp.Object{
		Servant: newVault(), Type: vaultType, Env: odp.Env{Movable: true},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The workload window is virtual: each goroutine runs until the
	// shared fake clock passes the deadline, parking inside calls while
	// the test goroutine advances time.
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	deadline := s.Clock.Now().Add(time.Second)
	var plainN, txnN, hotN int64

	wg.Add(1)
	go func() { // plain traffic
		defer wg.Done()
		for s.Clock.Now().Before(deadline) {
			if _, err := client.Bind(plainRef).WithQoS(odp.QoS{Timeout: 5 * time.Second}).
				Call(ctx, "hit"); err != nil {
				errCh <- fmt.Errorf("plain: %w", err)
				return
			}
			atomic.AddInt64(&plainN, 1)
		}
	}()
	wg.Add(1)
	go func() { // transactional traffic
		defer wg.Done()
		for i := 0; s.Clock.Now().Before(deadline); i++ {
			tx := client.Coordinator.Begin()
			_, _, err := tx.Invoke(ctx, txRefA, "put", []odp.Value{"k", int64(i)})
			if err == nil {
				_, _, err = tx.Invoke(ctx, txRefB, "put", []odp.Value{"k", int64(i)})
			}
			if err != nil {
				_ = tx.Abort(ctx)
				continue
			}
			if err := tx.Commit(ctx); err != nil {
				errCh <- fmt.Errorf("commit: %w", err)
				return
			}
			atomic.AddInt64(&txnN, 1)
		}
	}()
	wg.Add(1)
	go func() { // migrating object with live readers
		defer wg.Done()
		at := "na"
		for i := 0; s.Clock.Now().Before(deadline); i++ {
			if _, err := client.Bind(hotRef).WithQoS(odp.QoS{Timeout: 5 * time.Second}).
				Call(ctx, "put", fmt.Sprintf("k%d", i), int64(i)); err != nil {
				errCh <- fmt.Errorf("hot put: %w", err)
				return
			}
			if i%20 == 10 {
				src, dst := nodeA, nodeB
				if at == "nb" {
					src, dst = nodeB, nodeA
				}
				if _, err := src.Mover.Migrate(ctx, "soak-hot", dst.Mover.AcceptorRef()); err != nil {
					errCh <- fmt.Errorf("migrate: %w", err)
					return
				}
				if at == "na" {
					at = "nb"
				} else {
					at = "na"
				}
			}
			atomic.AddInt64(&hotN, 1)
		}
	}()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	s.Run(t, 30*time.Second, func() bool {
		select {
		case <-finished:
			return true
		default:
			return false
		}
	})
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&plainN) == 0 || atomic.LoadInt64(&txnN) == 0 || atomic.LoadInt64(&hotN) == 0 {
		t.Fatalf("a workload made no progress: plain=%d txn=%d hot=%d", plainN, txnN, hotN)
	}
	t.Logf("soak: %v virtual, plain=%d txn=%d hot=%d", s.Elapsed(), plainN, txnN, hotN)
}
