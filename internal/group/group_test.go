package group

import (
	"context"
	"encoding/binary"
	"fmt"
	"odp/internal/transport"
	"sync"
	"testing"
	"time"

	"odp/internal/capsule"
	"odp/internal/netsim"
	"odp/internal/rpc"
	"odp/internal/wire"
)

var codec = wire.PackedCodec{}

// register is a replica whose state is an append-only list plus a sum; it
// detects out-of-order or duplicated application by construction.
type register struct {
	mu   sync.Mutex
	vals []int64
	sum  int64
}

func (r *register) Dispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch op {
	case "add":
		v := args[0].(int64)
		r.vals = append(r.vals, v)
		r.sum += v
		return "ok", []wire.Value{r.sum}, nil
	case "sum":
		return "ok", []wire.Value{r.sum}, nil
	case "len":
		return "ok", []wire.Value{int64(len(r.vals))}, nil
	default:
		return "", nil, fmt.Errorf("register: no op %q", op)
	}
}

func (r *register) history() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int64(nil), r.vals...)
}

// snapRegister adds snapshot-based state transfer.
type snapRegister struct {
	register
}

func (r *snapRegister) Snapshot() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := make([]byte, 8*(1+len(r.vals)))
	binary.BigEndian.PutUint64(buf, uint64(len(r.vals)))
	for i, v := range r.vals {
		binary.BigEndian.PutUint64(buf[8*(i+1):], uint64(v))
	}
	return buf, nil
}

func (r *snapRegister) Restore(data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := binary.BigEndian.Uint64(data)
	r.vals = r.vals[:0]
	r.sum = 0
	for i := uint64(0); i < n; i++ {
		v := int64(binary.BigEndian.Uint64(data[8*(i+1):]))
		r.vals = append(r.vals, v)
		r.sum += v
	}
	return nil
}

type cluster struct {
	t        *testing.T
	fabric   *netsim.Fabric
	members  []*Member
	replicas []*register
	capsules []*capsule.Capsule
	client   *capsule.Capsule
}

// fastCfg keeps failure detection quick for tests.
func fastCfg(mode Mode) Config {
	return Config{
		GroupID:           "reg",
		Mode:              mode,
		HeartbeatInterval: 25 * time.Millisecond,
		FailureTimeout:    250 * time.Millisecond,
	}
}

func newCluster(t *testing.T, n int, mode Mode) *cluster {
	t.Helper()
	f := netsim.NewFabric(netsim.WithDefaultLink(netsim.LinkProfile{Latency: 200 * time.Microsecond}))
	t.Cleanup(func() { _ = f.Close() })
	cl := &cluster{t: t, fabric: f}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("m%d", i)
		ep, err := f.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		c := capsule.New(name, transport.NewCoalescer(ep), codec)
		t.Cleanup(func() { _ = c.Close() })
		rep := &register{}
		m, err := NewMember(c, rep, fastCfg(mode))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		cl.members = append(cl.members, m)
		cl.replicas = append(cl.replicas, rep)
		cl.capsules = append(cl.capsules, c)
	}
	cl.members[0].Bootstrap()
	for i := 1; i < n; i++ {
		if err := cl.members[i].Join(context.Background(), cl.members[0].GroupRef()); err != nil {
			t.Fatalf("member %d join: %v", i, err)
		}
	}
	for _, m := range cl.members {
		m.Start()
	}
	cep, err := f.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	cl.client = capsule.New("client", transport.NewCoalescer(cep), codec)
	t.Cleanup(func() { _ = cl.client.Close() })
	return cl
}

// invoke calls the group with retry across view changes.
func (cl *cluster) invoke(op string, args []wire.Value) (string, []wire.Value, error) {
	ref := cl.members[0].GroupRef()
	// Gather a full endpoint set from every member's current view.
	eps := map[string]bool{}
	for _, m := range cl.members {
		for _, ep := range m.GroupRef().Endpoints {
			eps[ep] = true
		}
	}
	ref.Endpoints = ref.Endpoints[:0]
	for ep := range eps {
		ref.Endpoints = append(ref.Endpoints, ep)
	}
	var lastErr error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		outcome, res, err := cl.client.Invoke(context.Background(), ref, op, args,
			capsule.WithQoS(rpc.QoS{Timeout: 500 * time.Millisecond}))
		if err == nil {
			return outcome, res, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	return "", nil, lastErr
}

func TestSingletonGroup(t *testing.T) {
	cl := newCluster(t, 1, ModeActive)
	for i := int64(1); i <= 5; i++ {
		outcome, res, err := cl.invoke("add", []wire.Value{i})
		if err != nil || outcome != "ok" {
			t.Fatalf("add %d: %q %v", i, outcome, err)
		}
		if res[0].(int64) != (i*(i+1))/2 {
			t.Fatalf("sum after %d: %v", i, res)
		}
	}
}

func TestActiveReplicationAllExecuteSameOrder(t *testing.T) {
	cl := newCluster(t, 3, ModeActive)
	const n = 30
	for i := int64(1); i <= n; i++ {
		if _, _, err := cl.invoke("add", []wire.Value{i}); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	// All replicas converge to the same history, in the same order.
	waitConverge(t, cl, n)
	ref := cl.replicas[0].history()
	for i, rep := range cl.replicas {
		h := rep.history()
		if len(h) != n {
			t.Fatalf("replica %d has %d entries, want %d", i, len(h), n)
		}
		for j := range h {
			if h[j] != ref[j] {
				t.Fatalf("replica %d diverges at %d: %v vs %v", i, j, h[j], ref[j])
			}
		}
	}
}

func waitConverge(t *testing.T, cl *cluster, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		all := true
		for _, rep := range cl.replicas {
			if len(rep.history()) != n {
				all = false
				break
			}
		}
		if all {
			return
		}
		select {
		case <-deadline:
			for i, rep := range cl.replicas {
				t.Logf("replica %d: %d entries", i, len(rep.history()))
			}
			t.Fatal("replicas did not converge")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestConcurrentClientsTotalOrder(t *testing.T) {
	cl := newCluster(t, 3, ModeActive)
	var wg sync.WaitGroup
	const writers, per = 4, 10
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, _, err := cl.invoke("add", []wire.Value{int64(w*100 + i)}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	waitConverge(t, cl, writers*per)
	ref := cl.replicas[0].history()
	for i := 1; i < len(cl.replicas); i++ {
		h := cl.replicas[i].history()
		for j := range ref {
			if h[j] != ref[j] {
				t.Fatalf("order diverges at %d on replica %d", j, i)
			}
		}
	}
}

func TestStandbyBackupsDoNotExecute(t *testing.T) {
	cl := newCluster(t, 3, ModeStandby)
	for i := int64(1); i <= 10; i++ {
		if _, _, err := cl.invoke("add", []wire.Value{i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.replicas[0].history(); len(got) != 10 {
		t.Fatalf("primary executed %d, want 10", len(got))
	}
	// Backups log but do not execute.
	time.Sleep(100 * time.Millisecond)
	for i := 1; i < 3; i++ {
		if n := len(cl.replicas[i].history()); n != 0 {
			t.Fatalf("standby backup %d executed %d invocations", i, n)
		}
		if cl.members[i].Executed() != 0 {
			t.Fatalf("standby backup %d executed", i)
		}
	}
}

func TestActiveFailoverNoStateLoss(t *testing.T) {
	cl := newCluster(t, 3, ModeActive)
	const before = 20
	for i := int64(1); i <= before; i++ {
		if _, _, err := cl.invoke("add", []wire.Value{i}); err != nil {
			t.Fatal(err)
		}
	}
	waitConverge(t, cl, before)

	// Kill the sequencer.
	if !cl.members[0].IsSequencer() {
		t.Fatal("member 0 should be sequencer")
	}
	cl.members[0].Stop()
	cl.fabric.Isolate(cl.capsules[0].Addr(), true)

	// The group must recover: a backup promotes and continues service.
	outcome, res, err := cl.invoke("add", []wire.Value{int64(1000)})
	if err != nil || outcome != "ok" {
		t.Fatalf("post-failover invoke: %q %v %v", outcome, res, err)
	}
	wantSum := int64(before*(before+1)/2 + 1000)
	if res[0].(int64) != wantSum {
		t.Fatalf("state lost across failover: sum %v, want %d", res[0], wantSum)
	}
	// Exactly one of the survivors is now sequencer.
	time.Sleep(200 * time.Millisecond)
	seqs := 0
	for _, m := range cl.members[1:] {
		if m.IsSequencer() {
			seqs++
		}
	}
	if seqs != 1 {
		t.Fatalf("%d sequencers after failover", seqs)
	}
}

func TestStandbyFailoverReplaysLog(t *testing.T) {
	cl := newCluster(t, 2, ModeStandby)
	const before = 15
	for i := int64(1); i <= before; i++ {
		if _, _, err := cl.invoke("add", []wire.Value{i}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(cl.replicas[1].history()); n != 0 {
		t.Fatalf("backup executed %d before failover", n)
	}
	cl.members[0].Stop()
	cl.fabric.Isolate(cl.capsules[0].Addr(), true)

	outcome, res, err := cl.invoke("sum", nil)
	if err != nil || outcome != "ok" {
		t.Fatalf("post-failover sum: %q %v", outcome, err)
	}
	want := int64(before * (before + 1) / 2)
	if res[0].(int64) != want {
		t.Fatalf("hot-standby replay incomplete: sum %v, want %d", res[0], want)
	}
	if cl.members[1].Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", cl.members[1].Promotions())
	}
}

func TestBackupExpelledWhenDead(t *testing.T) {
	cl := newCluster(t, 3, ModeActive)
	if _, _, err := cl.invoke("add", []wire.Value{int64(1)}); err != nil {
		t.Fatal(err)
	}
	// Kill a backup.
	cl.members[2].Stop()
	cl.fabric.Isolate(cl.capsules[2].Addr(), true)

	// The sequencer must expel it and keep serving.
	deadline := time.After(5 * time.Second)
	for {
		_, members := cl.members[0].View()
		if len(members) == 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("dead backup never expelled: view %v", members)
		case <-time.After(20 * time.Millisecond):
		}
	}
	outcome, _, err := cl.invoke("add", []wire.Value{int64(2)})
	if err != nil || outcome != "ok" {
		t.Fatalf("invoke after expulsion: %q %v", outcome, err)
	}
}

func TestJoinWithLogTransfer(t *testing.T) {
	cl := newCluster(t, 2, ModeActive)
	const before = 12
	for i := int64(1); i <= before; i++ {
		if _, _, err := cl.invoke("add", []wire.Value{i}); err != nil {
			t.Fatal(err)
		}
	}
	// A third member joins late and must catch up via log replay.
	ep, err := cl.fabric.Endpoint("late")
	if err != nil {
		t.Fatal(err)
	}
	c := capsule.New("late", transport.NewCoalescer(ep), codec)
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
	if got := len(rep.history()); got != before {
		t.Fatalf("joiner caught up %d/%d", got, before)
	}
	// And receives subsequent invocations.
	if _, _, err := cl.invoke("add", []wire.Value{int64(99)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(3 * time.Second)
	for len(rep.history()) != before+1 {
		select {
		case <-deadline:
			t.Fatalf("joiner stuck at %d entries", len(rep.history()))
		case <-time.After(10 * time.Millisecond):
		}
	}
	_, members := cl.members[0].View()
	if len(members) != 3 {
		t.Fatalf("view after join: %v", members)
	}
}

func TestJoinWithSnapshotTransfer(t *testing.T) {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	mk := func(name string) (*capsule.Capsule, *snapRegister, *Member) {
		ep, err := f.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		c := capsule.New(name, transport.NewCoalescer(ep), codec)
		t.Cleanup(func() { _ = c.Close() })
		rep := &snapRegister{}
		m, err := NewMember(c, rep, fastCfg(ModeActive))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		return c, rep, m
	}
	_, rep0, m0 := mk("s0")
	m0.Bootstrap()
	m0.Start()

	// Seed state directly through the group path.
	cep, _ := f.Endpoint("cli")
	cli := capsule.New("cli", transport.NewCoalescer(cep), codec)
	t.Cleanup(func() { _ = cli.Close() })
	for i := int64(1); i <= 7; i++ {
		outcome, _, err := cli.Invoke(context.Background(), m0.GroupRef(), "add", []wire.Value{i})
		if err != nil || outcome != "ok" {
			t.Fatalf("seed %d: %q %v", i, outcome, err)
		}
	}
	_, rep1, m1 := mk("s1")
	if err := m1.Join(context.Background(), m0.GroupRef()); err != nil {
		t.Fatal(err)
	}
	m1.Start()
	if rep1.sumNow() != rep0.sumNow() {
		t.Fatalf("snapshot transfer: joiner sum %d, want %d", rep1.sumNow(), rep0.sumNow())
	}
}

func (r *register) sumNow() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sum
}

func TestGroupRefLooksLikeSingleton(t *testing.T) {
	// Replication transparency: the group reference is an ordinary
	// interface reference; the client code is identical to the singleton
	// case.
	cl := newCluster(t, 3, ModeActive)
	ref := cl.members[0].GroupRef()
	if ref.ID == "" || len(ref.Endpoints) != 3 {
		t.Fatalf("group ref %v", ref)
	}
	outcome, res, err := cl.client.Invoke(context.Background(), ref, "add", []wire.Value{int64(4)})
	if err != nil || outcome != "ok" || res[0].(int64) != 4 {
		t.Fatalf("plain invoke on group ref: %q %v %v", outcome, res, err)
	}
}

func TestNonSequencerRedirects(t *testing.T) {
	cl := newCluster(t, 3, ModeActive)
	// Aim directly at a backup; the redirect must carry us to the
	// sequencer transparently (capsule follows MovedError).
	backupRef := wire.Ref{ID: "grp/reg", Endpoints: []string{cl.capsules[1].Addr()}}
	outcome, res, err := cl.client.Invoke(context.Background(), backupRef, "add", []wire.Value{int64(8)})
	if err != nil || outcome != "ok" || res[0].(int64) != 8 {
		t.Fatalf("redirected invoke: %q %v %v", outcome, res, err)
	}
}
