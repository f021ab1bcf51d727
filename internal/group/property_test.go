package group

import (
	"context"
	"fmt"
	"odp/internal/transport"
	"sync"
	"testing"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/rpc"
	"odp/internal/wire"
)

// TestPropertyTotalOrderUnderLoss drives a 3-member group over a lossy
// network with concurrent writers: the ordering protocol must keep every
// replica's history identical despite retransmissions and duplicate
// suppression at every layer.
func TestPropertyTotalOrderUnderLoss(t *testing.T) {
	f := netsim.NewFabric(netsim.WithSeed(13), netsim.WithDefaultLink(netsim.LinkProfile{
		Latency: 300 * time.Microsecond,
		Loss:    0.08,
	}))
	t.Cleanup(func() { _ = f.Close() })
	var (
		members  []*Member
		replicas []*register
	)
	cfg := Config{
		GroupID:           "lossy",
		Mode:              ModeActive,
		HeartbeatInterval: 30 * time.Millisecond,
		// Generous: loss causes retries, which must not read as death.
		FailureTimeout: 2 * time.Second,
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("m%d", i)
		ep, err := f.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		c := capsule.New(name, transport.NewCoalescer(ep, clock.Real{}, nil), codec)
		t.Cleanup(func() { _ = c.Close() })
		rep := &register{}
		m, err := NewMember(c, rep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		members = append(members, m)
		replicas = append(replicas, rep)
	}
	members[0].Bootstrap()
	for i := 1; i < 3; i++ {
		if err := members[i].Join(context.Background(), members[0].GroupRef()); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range members {
		m.Start()
	}
	cep, err := f.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	client := capsule.New("client", transport.NewCoalescer(cep, clock.Real{}, nil), codec)
	t.Cleanup(func() { _ = client.Close() })

	const writers, per = 3, 12
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := int64(w*1000 + i)
				deadline := time.Now().Add(20 * time.Second)
				for {
					_, _, err := client.Invoke(context.Background(), members[0].GroupRef(), "add",
						[]wire.Value{v}, capsule.WithQoS(rpc.QoS{
							Timeout:    3 * time.Second,
							Retransmit: 10 * time.Millisecond,
						}))
					if err == nil {
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("writer %d value %d: %v", w, v, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	waitConverge(t, &cluster{t: t, replicas: replicas}, writers*per)
	ref := replicas[0].history()
	for i := 1; i < len(replicas); i++ {
		h := replicas[i].history()
		if len(h) != len(ref) {
			t.Fatalf("replica %d length %d != %d", i, len(h), len(ref))
		}
		for j := range ref {
			if h[j] != ref[j] {
				t.Fatalf("replica %d diverges at %d under loss", i, j)
			}
		}
	}
	// Exactly one execution per logical write: at-most-once held through
	// the group layer too.
	if len(ref) != writers*per {
		t.Fatalf("history has %d entries, want %d", len(ref), writers*per)
	}
}

// TestPartitionedBackupCatchesUpViaFetch cuts a backup off mid-stream;
// after healing, the hole-filling fetch protocol must bring it back to
// the exact sequence.
func TestPartitionedBackupCatchesUpViaFetch(t *testing.T) {
	cl := newCluster(t, 3, ModeActive)
	for i := int64(1); i <= 5; i++ {
		if _, _, err := cl.invoke("add", []wire.Value{i}); err != nil {
			t.Fatal(err)
		}
	}
	waitConverge(t, cl, 5)

	// Partition backup m2 from the sequencer only (not from everything:
	// its heartbeats to/from m1 keep flowing, so expulsion is racy-slow
	// and the fetch path gets its chance after heal).
	cl.fabric.Partition(cl.capsules[0].Addr(), cl.capsules[2].Addr(), true)
	for i := int64(6); i <= 9; i++ {
		if _, _, err := cl.invoke("add", []wire.Value{i}); err != nil {
			t.Fatal(err)
		}
	}
	cl.fabric.Partition(cl.capsules[0].Addr(), cl.capsules[2].Addr(), false)

	// Whether m2 was expelled-and-stale or caught up via fetch, the
	// SURVIVING members must hold the full ordered history.
	deadline := time.After(10 * time.Second)
	for {
		h0, h1 := cl.replicas[0].history(), cl.replicas[1].history()
		if len(h0) == 9 && len(h1) == 9 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("survivors at %d/%d entries", len(cl.replicas[0].history()), len(cl.replicas[1].history()))
		case <-time.After(20 * time.Millisecond):
		}
	}
	// If m2 is still in the view, it must converge too (fetch protocol).
	_, ids := cl.members[0].View()
	stillMember := false
	for _, id := range ids {
		if id == cl.members[2].ID() {
			stillMember = true
		}
	}
	if stillMember {
		deadline := time.After(10 * time.Second)
		for len(cl.replicas[2].history()) != 9 {
			select {
			case <-deadline:
				t.Fatalf("partitioned member never caught up: %d/9", len(cl.replicas[2].history()))
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	// Service must still work either way.
	if _, _, err := cl.invoke("add", []wire.Value{int64(10)}); err != nil {
		t.Fatal(err)
	}
}

// TestExpelledMemberRejoins: a backup dies, is expelled, "restarts" (new
// member, same identity is NOT required) and rejoins through the current
// sequencer with full state transfer.
func TestExpelledMemberRejoins(t *testing.T) {
	cl := newCluster(t, 3, ModeActive)
	for i := int64(1); i <= 6; i++ {
		if _, _, err := cl.invoke("add", []wire.Value{i}); err != nil {
			t.Fatal(err)
		}
	}
	// Kill backup m2 and wait for expulsion.
	cl.members[2].Stop()
	cl.fabric.Isolate(cl.capsules[2].Addr(), true)
	deadline := time.After(10 * time.Second)
	for {
		if _, ids := cl.members[0].View(); len(ids) == 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("dead backup never expelled")
		case <-time.After(20 * time.Millisecond):
		}
	}
	// Restart: heal the network, rebuild the member on a fresh capsule.
	cl.fabric.Isolate(cl.capsules[2].Addr(), false)
	ep, err := cl.fabric.Endpoint("m2b")
	if err != nil {
		t.Fatal(err)
	}
	c := capsule.New("m2b", transport.NewCoalescer(ep, clock.Real{}, nil), codec)
	t.Cleanup(func() { _ = c.Close() })
	rep := &register{}
	m, err := NewMember(c, rep, fastCfg(ModeActive))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	if err := m.Join(context.Background(), cl.members[0].GroupRef()); err != nil {
		t.Fatal(err)
	}
	m.Start()
	// The rejoiner holds the full history and receives new traffic.
	if got := len(rep.history()); got != 6 {
		t.Fatalf("rejoiner caught up %d/6", got)
	}
	if _, _, err := cl.invoke("add", []wire.Value{int64(7)}); err != nil {
		t.Fatal(err)
	}
	deadline = time.After(5 * time.Second)
	for len(rep.history()) != 7 {
		select {
		case <-deadline:
			t.Fatalf("rejoiner stuck at %d/7", len(rep.history()))
		case <-time.After(10 * time.Millisecond):
		}
	}
	if _, ids := cl.members[0].View(); len(ids) != 3 {
		t.Fatalf("view after rejoin: %v", ids)
	}
}

// TestDoublePromotionSkipsDeadBackup kills the sequencer AND the first
// backup simultaneously: the rank-2 backup must promote itself (after
// its longer, staggered window) and serve with full state.
func TestDoublePromotionSkipsDeadBackup(t *testing.T) {
	cl := newCluster(t, 4, ModeActive)
	const before = 8
	for i := int64(1); i <= before; i++ {
		if _, _, err := cl.invoke("add", []wire.Value{i}); err != nil {
			t.Fatal(err)
		}
	}
	waitConverge(t, cl, before)
	// Kill members 0 (sequencer) and 1 (first backup) together.
	cl.members[0].Stop()
	cl.members[1].Stop()
	cl.fabric.Isolate(cl.capsules[0].Addr(), true)
	cl.fabric.Isolate(cl.capsules[1].Addr(), true)

	outcome, res, err := cl.invoke("sum", nil)
	if err != nil || outcome != "ok" {
		t.Fatalf("post-double-failure invoke: %q %v", outcome, err)
	}
	want := int64(before * (before + 1) / 2)
	if res[0].(int64) != want {
		t.Fatalf("state after double failure: %v, want %d", res[0], want)
	}
	// Exactly one survivor leads.
	deadline := time.After(10 * time.Second)
	for {
		leaders := 0
		for _, m := range cl.members[2:] {
			if m.IsSequencer() {
				leaders++
			}
		}
		if leaders == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("%d leaders after double failure", leaders)
		case <-time.After(20 * time.Millisecond):
		}
	}
}
