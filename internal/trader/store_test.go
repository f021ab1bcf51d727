package trader

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"odp/internal/types"
	"odp/internal/wire"
)

func serviceN(i int) types.Type {
	return types.Type{
		Name: fmt.Sprintf("Svc%03d", i),
		Ops: map[string]types.Operation{
			"run": {Outcomes: map[string][]types.Desc{"ok": {types.Int}}},
		},
	}
}

// TestImportLockFree: with every shard snapshot current, Import must
// complete while all 16 shard mutexes are held by someone else — the
// read path takes zero locks.
func TestImportLockFree(t *testing.T) {
	e := newEnv(t)
	tr := e.trader("t1")
	for i := 0; i < 32; i++ {
		svc := serviceN(i % 4)
		if _, err := tr.Advertise(svc, mkRef(fmt.Sprintf("r%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Prime every shard snapshot.
	if _, err := tr.Import(context.Background(), ImportSpec{Requirement: serviceN(0)}); err != nil {
		t.Fatal(err)
	}

	for i := range tr.shards {
		tr.shards[i].mu.Lock()
	}
	defer func() {
		for i := range tr.shards {
			tr.shards[i].mu.Unlock()
		}
	}()

	done := make(chan []Offer, 1)
	go func() {
		offers, err := tr.Import(context.Background(), ImportSpec{Requirement: serviceN(1)})
		if err != nil {
			done <- nil
			return
		}
		done <- offers
	}()
	select {
	case offers := <-done:
		// Every serviceN variant is structurally identical, so the
		// requirement conforms to all 32 offers.
		if len(offers) != 32 {
			t.Fatalf("lock-free import returned %d offers, want 32", len(offers))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Import blocked on a shard mutex: snapshot path is not lock-free")
	}
	if hits := tr.Stats().SnapshotHits; hits < NumShards {
		t.Fatalf("SnapshotHits = %d, want >= %d (all shards current)", hits, NumShards)
	}
}

// TestImportDeterministicOrder: repeated imports return the canonical
// order (shard, then (type, signature), then offer id) regardless of
// insertion order, and churn that restores the same offer set restores
// the same order. Run with -count=2: the FNV shard layout must be
// byte-identical across processes.
func TestImportDeterministicOrder(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(8))

	// Advertise the same logical population into two traders in
	// different orders; the import order must agree.
	mk := func(name string, perm []int) ([]string, *Trader) {
		tr := e.trader(name)
		ids := make([]string, 0, len(perm))
		for _, i := range perm {
			svc := serviceN(i % 7)
			id, err := tr.Advertise(svc, mkRef(fmt.Sprintf("r%d", i)),
				map[string]wire.Value{"slot": int64(i)})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		return ids, tr
	}
	fwd := make([]int, 40)
	for i := range fwd {
		fwd[i] = i
	}
	shuffled := append([]int(nil), fwd...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	_, trA := mk("tA", fwd)
	_, trB := mk("tB", shuffled)

	anyReq := types.Type{Name: "Any", Ops: map[string]types.Operation{}}
	keyOf := func(offers []Offer) []string {
		keys := make([]string, len(offers))
		for i, o := range offers {
			keys[i] = o.ServiceType + "/" + o.Ref.ID
		}
		return keys
	}
	// groupSeq is the order of (service type) runs in the result — fixed
	// by the FNV shard layout, independent of insertion order.
	groupSeq := func(offers []Offer) []string {
		var seq []string
		for _, o := range offers {
			if len(seq) == 0 || seq[len(seq)-1] != o.ServiceType {
				seq = append(seq, o.ServiceType)
			}
		}
		return seq
	}
	a, err := trA.Import(context.Background(), ImportSpec{Requirement: anyReq})
	if err != nil {
		t.Fatal(err)
	}
	b, err := trB.Import(context.Background(), ImportSpec{Requirement: anyReq})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("imports returned %d / %d offers, want 40", len(a), len(b))
	}
	ka := keyOf(a)
	ga, gb := groupSeq(a), groupSeq(b)
	if len(ga) != 7 || len(gb) != 7 {
		t.Fatalf("group runs %v / %v, want each of the 7 types exactly once", ga, gb)
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("group order diverges at %d: %q vs %q — shard layout depends on insertion order", i, ga[i], gb[i])
		}
	}
	// Within a group offers run in ascending offer-id order.
	for _, offers := range [][]Offer{a, b} {
		for i := 1; i < len(offers); i++ {
			if offers[i].ServiceType == offers[i-1].ServiceType && offers[i].ID <= offers[i-1].ID {
				t.Fatalf("ids out of order within group %s: %q after %q",
					offers[i].ServiceType, offers[i].ID, offers[i-1].ID)
			}
		}
	}

	// Repeat imports over an unchanged store are identical.
	a2, err := trA.Import(context.Background(), ImportSpec{Requirement: anyReq})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keyOf(a2) {
		if k != ka[i] {
			t.Fatalf("repeat import diverges at %d: %q vs %q", i, k, ka[i])
		}
	}

	// Churn: withdraw half, re-advertise the same services, and the
	// canonical order still only depends on the surviving offer set.
	ids, trC := mk("tC", fwd)
	for i := 0; i < len(ids); i += 2 {
		if err := trC.Withdraw(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	c, err := trC.Import(context.Background(), ImportSpec{Requirement: anyReq})
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 20 {
		t.Fatalf("post-churn import returned %d offers, want 20", len(c))
	}
	kc := keyOf(c)
	want := make([]string, 0, 20)
	for _, k := range ka {
		var n int
		if _, err := fmt.Sscanf(k[len(k)-ridLen(k):], "r%d", &n); err == nil && n%2 == 1 {
			want = append(want, k)
		}
	}
	for i := range kc {
		if kc[i] != want[i] {
			t.Fatalf("post-churn order diverges at %d: %q vs %q", i, kc[i], want[i])
		}
	}
}

// ridLen returns the length of the trailing "rN" ref id in a key.
func ridLen(k string) int {
	n := 0
	for i := len(k) - 1; i >= 0 && k[i] != '/'; i-- {
		n++
	}
	return n
}

// TestDefaultPolicyStrictlyFresh: every write is visible to the very next
// import.
func TestDefaultPolicyStrictlyFresh(t *testing.T) {
	e := newEnv(t)
	tr := e.trader("t1")
	svc := serviceN(0)
	for i := 0; i < 3; i++ {
		if _, err := tr.Advertise(svc, mkRef(fmt.Sprintf("r%d", i)), nil); err != nil {
			t.Fatal(err)
		}
		offers, err := tr.Import(context.Background(), ImportSpec{Requirement: svc})
		if err != nil {
			t.Fatal(err)
		}
		if len(offers) != i+1 {
			t.Fatalf("after advertise %d: %d offers, want %d", i, len(offers), i+1)
		}
	}
}

// TestTraderStats: the counter set that Platform.Gather folds.
func TestTraderStats(t *testing.T) {
	e := newEnv(t)
	tr := e.trader("t1")
	svc := serviceN(0)
	var lastID string
	for i := 0; i < 5; i++ {
		id, err := tr.Advertise(svc, mkRef(fmt.Sprintf("r%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		lastID = id
	}
	if err := tr.Withdraw(lastID); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Import(context.Background(), ImportSpec{Requirement: svc}); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Advertises != 5 || st.Withdraws != 1 || st.Imports != 1 || st.ImportedOffers != 4 {
		t.Fatalf("stats %+v", st)
	}
	if st.Offers != 4 {
		t.Fatalf("Offers = %d, want 4", st.Offers)
	}
	// All offers share one service type, so exactly one shard holds them.
	var populated int
	var sum uint64
	for _, n := range st.ShardOffers {
		if n > 0 {
			populated++
		}
		sum += n
	}
	if populated != 1 || sum != 4 {
		t.Fatalf("ShardOffers = %v, want 4 offers in exactly one shard", st.ShardOffers)
	}
	if st.SnapshotRebuilds == 0 {
		t.Fatalf("SnapshotRebuilds = 0, want > 0: %+v", st)
	}
}

// TestImportBoundedCloning: offers past MaxMatches are never deep-cloned
// — the allocation count of a single-match import over a large store
// must not scale with store size.
func TestImportBoundedCloning(t *testing.T) {
	e := newEnv(t)
	tr := e.trader("t1")
	svc := serviceN(0)
	for i := 0; i < 512; i++ {
		if _, err := tr.Advertise(svc, mkRef(fmt.Sprintf("r%03d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	spec := ImportSpec{Requirement: svc, MaxMatches: 1}
	ctx := context.Background()
	if _, err := tr.Import(ctx, spec); err != nil {
		t.Fatal(err) // prime the snapshot outside the measured region
	}
	allocs := testing.AllocsPerRun(20, func() {
		offers, err := tr.Import(ctx, spec)
		if err != nil || len(offers) != 1 {
			t.Fatalf("import: %v %v", offers, err)
		}
	})
	// One cloned offer plus fixed scan overhead. 512 stored offers would
	// cost thousands of allocations if each were cloned.
	if allocs > 64 {
		t.Fatalf("single-match import over 512 offers costs %.0f allocs/op — cloning is not bounded by MaxMatches", allocs)
	}
}
