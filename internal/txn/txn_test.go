package txn

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"odp/internal/transport"
	"sync"
	"testing"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/netsim"
	"odp/internal/rpc"
	"odp/internal/storage"
	"odp/internal/wire"
)

var codec = wire.PackedCodec{}

// account is a snapshot-able bank account servant.
type account struct {
	mu      sync.Mutex
	balance int64
}

func (a *account) Dispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "deposit":
		a.balance += args[0].(int64)
		return "ok", []wire.Value{a.balance}, nil
	case "withdraw":
		amt := args[0].(int64)
		if amt > a.balance {
			return "insufficient", []wire.Value{a.balance}, nil
		}
		a.balance -= amt
		return "ok", []wire.Value{a.balance}, nil
	case "balance":
		return "ok", []wire.Value{a.balance}, nil
	default:
		return "", nil, fmt.Errorf("account: no op %q", op)
	}
}

func (a *account) Snapshot() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, uint64(a.balance))
	return buf, nil
}

func (a *account) Restore(data []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.balance = int64(binary.BigEndian.Uint64(data))
	return nil
}

func (a *account) now() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.balance
}

var accountSep = Separation{ReadOnly: map[string]bool{"balance": true}}

type txnEnv struct {
	t      *testing.T
	fabric *netsim.Fabric
	server *capsule.Capsule
	client *capsule.Capsule
	lm     *LockManager
	coord  *Coordinator
}

func newTxnEnv(t *testing.T) *txnEnv {
	t.Helper()
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	sep, err := f.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	cep, err := f.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	server := capsule.New("server", transport.NewCoalescer(sep, clock.Real{}, nil), codec)
	client := capsule.New("client", transport.NewCoalescer(cep, clock.Real{}, nil), codec)
	t.Cleanup(func() { _ = server.Close(); _ = client.Close() })
	return &txnEnv{
		t:      t,
		fabric: f,
		server: server,
		client: client,
		lm:     NewLockManager(2*time.Second, clock.Real{}),
		coord:  NewCoordinator(client, nil),
	}
}

// export wraps a fresh account as a transactional resource on the server.
func (e *txnEnv) export(id string, initial int64, opts ...ResourceOption) (wire.Ref, *account) {
	e.t.Helper()
	acct := &account{balance: initial}
	opts = append([]ResourceOption{WithSeparation(accountSep)}, opts...)
	res, err := NewResource(id, acct, e.lm, opts...)
	if err != nil {
		e.t.Fatal(err)
	}
	ref, err := e.server.Export(res, capsule.WithID(id))
	if err != nil {
		e.t.Fatal(err)
	}
	return ref, acct
}

func TestCommitApplies(t *testing.T) {
	e := newTxnEnv(t)
	ref, acct := e.export("acct1", 100)
	tx := e.coord.Begin()
	ctx := context.Background()
	outcome, res, err := tx.Invoke(ctx, ref, "deposit", []wire.Value{int64(50)})
	if err != nil || outcome != "ok" || res[0].(int64) != 150 {
		t.Fatalf("deposit: %q %v %v", outcome, res, err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if acct.now() != 150 {
		t.Fatalf("balance %d, want 150", acct.now())
	}
	if e.lm.HeldBy(tx.ID()) {
		t.Fatal("locks leaked after commit")
	}
}

func TestAbortRollsBack(t *testing.T) {
	e := newTxnEnv(t)
	ref, acct := e.export("acct1", 100)
	tx := e.coord.Begin()
	ctx := context.Background()
	if _, _, err := tx.Invoke(ctx, ref, "deposit", []wire.Value{int64(999)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tx.Invoke(ctx, ref, "withdraw", []wire.Value{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if acct.now() != 100 {
		t.Fatalf("balance %d after abort, want 100", acct.now())
	}
	if e.lm.HeldBy(tx.ID()) {
		t.Fatal("locks leaked after abort")
	}
}

func TestIsolationUncommittedInvisible(t *testing.T) {
	e := newTxnEnv(t)
	ref, _ := e.export("acct1", 100)
	ctx := context.Background()
	tx := e.coord.Begin()
	if _, _, err := tx.Invoke(ctx, ref, "deposit", []wire.Value{int64(50)}); err != nil {
		t.Fatal(err)
	}
	// A plain read must block until the transaction finishes, then see
	// the committed value — never the intermediate one.
	type readResult struct {
		v   int64
		err error
	}
	done := make(chan readResult, 1)
	go func() {
		_, res, err := e.client.Invoke(ctx, ref, "balance", nil)
		if err != nil {
			done <- readResult{err: err}
			return
		}
		done <- readResult{v: res[0].(int64)}
	}()
	select {
	case r := <-done:
		t.Fatalf("plain read returned %v while txn uncommitted", r)
	case <-time.After(100 * time.Millisecond):
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || r.v != 150 {
			t.Fatalf("post-commit read: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("plain read never completed")
	}
}

func TestSharedReadsConcurrent(t *testing.T) {
	e := newTxnEnv(t)
	ref, _ := e.export("acct1", 100)
	ctx := context.Background()
	tx1 := e.coord.Begin()
	tx2 := e.coord.Begin()
	// Both transactions read; neither blocks the other.
	if _, _, err := tx1.Invoke(ctx, ref, "balance", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tx2.Invoke(ctx, ref, "balance", nil); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicTransferAcrossResources(t *testing.T) {
	e := newTxnEnv(t)
	refA, acctA := e.export("acctA", 100)
	refB, acctB := e.export("acctB", 10)
	ctx := context.Background()
	tx := e.coord.Begin()
	if outcome, _, err := tx.Invoke(ctx, refA, "withdraw", []wire.Value{int64(40)}); err != nil || outcome != "ok" {
		t.Fatalf("withdraw: %q %v", outcome, err)
	}
	if outcome, _, err := tx.Invoke(ctx, refB, "deposit", []wire.Value{int64(40)}); err != nil || outcome != "ok" {
		t.Fatalf("deposit: %q %v", outcome, err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if acctA.now() != 60 || acctB.now() != 50 {
		t.Fatalf("balances %d/%d, want 60/50", acctA.now(), acctB.now())
	}
}

func TestPrepareVetoAbortsEverywhere(t *testing.T) {
	e := newTxnEnv(t)
	refA, acctA := e.export("acctA", 100)
	// Resource B's ordering predicate forbids deposits after withdrawals
	// (a stand-in for any consistency rule).
	veto := func(ops []string) error {
		for _, op := range ops {
			if op == "deposit" {
				return errors.New("deposits forbidden by policy")
			}
		}
		return nil
	}
	refB, acctB := e.export("acctB", 10, WithOrderPredicate(veto))
	ctx := context.Background()
	tx := e.coord.Begin()
	if _, _, err := tx.Invoke(ctx, refA, "withdraw", []wire.Value{int64(40)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tx.Invoke(ctx, refB, "deposit", []wire.Value{int64(40)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted, got %v", err)
	}
	if acctA.now() != 100 || acctB.now() != 10 {
		t.Fatalf("balances %d/%d after veto, want 100/10", acctA.now(), acctB.now())
	}
}

func TestDeadlockDetectedAndBroken(t *testing.T) {
	e := newTxnEnv(t)
	refA, _ := e.export("acctA", 100)
	refB, _ := e.export("acctB", 100)
	ctx := context.Background()

	tx1 := e.coord.Begin()
	tx2 := e.coord.Begin()
	// tx1 locks A, tx2 locks B.
	if _, _, err := tx1.Invoke(ctx, refA, "deposit", []wire.Value{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tx2.Invoke(ctx, refB, "deposit", []wire.Value{int64(1)}); err != nil {
		t.Fatal(err)
	}
	// tx1 wants B (blocks), tx2 wants A (deadlock -> one is victim, and
	// the victim aborts promptly so the survivor proceeds).
	errCh := make(chan error, 2)
	var wg sync.WaitGroup
	run := func(tx *Txn, ref wire.Ref, delay time.Duration) {
		defer wg.Done()
		time.Sleep(delay)
		_, _, err := tx.Invoke(ctx, ref, "deposit", []wire.Value{int64(1)},
			capsule.WithQoS(qosLong()))
		if err != nil {
			_ = tx.Abort(ctx) // victim releases its locks
		} else {
			err = tx.Commit(ctx)
		}
		errCh <- err
	}
	wg.Add(2)
	go run(tx1, refB, 0)
	go run(tx2, refA, 50*time.Millisecond)
	wg.Wait()
	close(errCh)
	var deadlocks, successes int
	for err := range errCh {
		switch {
		case err == nil:
			successes++
		case remoteMentionsDeadlock(err):
			deadlocks++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if deadlocks != 1 || successes != 1 {
		t.Fatalf("deadlocks=%d successes=%d, want 1/1", deadlocks, successes)
	}
	if e.lm.Deadlocks() == 0 {
		t.Fatal("lock manager did not count the deadlock")
	}
}

// remoteMentionsDeadlock matches the deadlock error after it crossed the
// wire as a RemoteError string.
func remoteMentionsDeadlock(err error) bool {
	return err != nil && (errors.Is(err, ErrDeadlock) ||
		containsString(err.Error(), "deadlock"))
}

func containsString(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

func qosLong() rpc.QoS {
	return rpc.QoS{Timeout: 10 * time.Second}
}

func TestDurabilityAcrossRestart(t *testing.T) {
	e := newTxnEnv(t)
	store := storage.NewMemStore()
	ref, _ := e.export("acct1", 100, WithDurability(store))
	ctx := context.Background()
	tx := e.coord.Begin()
	if _, _, err := tx.Invoke(ctx, ref, "deposit", []wire.Value{int64(23)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// "Restart": a fresh servant recovers from the store.
	acct2 := &account{}
	res2, err := NewResource("acct1", acct2, NewLockManager(0, clock.Real{}),
		WithSeparation(accountSep), WithDurability(store))
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.Recover(); err != nil {
		t.Fatal(err)
	}
	if acct2.now() != 123 {
		t.Fatalf("recovered balance %d, want 123", acct2.now())
	}
}

func TestRecoverWithNothingCommitted(t *testing.T) {
	store := storage.NewMemStore()
	acct := &account{balance: 7}
	res, err := NewResource("fresh", acct, NewLockManager(0, clock.Real{}), WithDurability(store))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Recover(); err != nil {
		t.Fatal(err)
	}
	if acct.now() != 7 {
		t.Fatal("recover with empty store must not clobber state")
	}
}

func TestCommitWithoutPrepareRefused(t *testing.T) {
	e := newTxnEnv(t)
	ref, _ := e.export("acct1", 0)
	_, _, err := e.client.Invoke(context.Background(), ref, OpCommit, []wire.Value{"rogue-txn"})
	if err == nil {
		t.Fatal("commit without prepare accepted")
	}
}

func TestTxnReuseAfterFinishRejected(t *testing.T) {
	e := newTxnEnv(t)
	ref, _ := e.export("acct1", 0)
	ctx := context.Background()
	tx := e.coord.Begin()
	if _, _, err := tx.Invoke(ctx, ref, "deposit", []wire.Value{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tx.Invoke(ctx, ref, "deposit", []wire.Value{int64(1)}); !errors.Is(err, ErrDone) {
		t.Fatalf("want ErrDone, got %v", err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, ErrDone) {
		t.Fatalf("want ErrDone, got %v", err)
	}
}

func TestNonSnapshotterRejected(t *testing.T) {
	plain := capsule.ServantFunc(func(_ context.Context, _ string, _ []wire.Value) (string, []wire.Value, error) {
		return "ok", nil, nil
	})
	if _, err := NewResource("x", plain, NewLockManager(0, clock.Real{})); err == nil {
		t.Fatal("non-snapshotter accepted as transactional resource")
	}
}

func TestConcurrentTransfersConserveMoney(t *testing.T) {
	e := newTxnEnv(t)
	const accounts = 4
	refs := make([]wire.Ref, accounts)
	accts := make([]*account, accounts)
	for i := range refs {
		refs[i], accts[i] = e.export(fmt.Sprintf("acct%d", i), 1000)
	}
	var wg sync.WaitGroup
	const workers, transfers = 4, 10
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from := (w + i) % accounts
				to := (w + i + 1) % accounts
				tx := e.coord.Begin()
				ctx := context.Background()
				_, _, err := tx.Invoke(ctx, refs[from], "withdraw", []wire.Value{int64(10)},
					capsule.WithQoS(qosLong()))
				if err == nil {
					_, _, err = tx.Invoke(ctx, refs[to], "deposit", []wire.Value{int64(10)},
						capsule.WithQoS(qosLong()))
				}
				if err != nil {
					_ = tx.Abort(ctx)
					continue
				}
				if err := tx.Commit(ctx); err != nil && !errors.Is(err, ErrDone) {
					continue
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, a := range accts {
		total += a.now()
	}
	if total != accounts*1000 {
		t.Fatalf("money not conserved: %d, want %d", total, accounts*1000)
	}
}

func TestLockManagerUnit(t *testing.T) {
	lm := NewLockManager(200*time.Millisecond, clock.Real{})
	ctx := context.Background()
	// Shared locks coexist.
	if err := lm.Acquire(ctx, "t1", "r", false); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(ctx, "t2", "r", false); err != nil {
		t.Fatal(err)
	}
	// Exclusive waits, then times out (fallback detector).
	start := time.Now()
	err := lm.Acquire(ctx, "t3", "r", true)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	if time.Since(start) < 150*time.Millisecond {
		t.Fatal("timeout too early")
	}
	// Release unblocks.
	lm.ReleaseAll("t1")
	lm.ReleaseAll("t2")
	if err := lm.Acquire(ctx, "t3", "r", true); err != nil {
		t.Fatal(err)
	}
	// Reentrant acquire.
	if err := lm.Acquire(ctx, "t3", "r", true); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll("t3")
}

func TestLockUpgrade(t *testing.T) {
	lm := NewLockManager(time.Second, clock.Real{})
	ctx := context.Background()
	if err := lm.Acquire(ctx, "t1", "r", false); err != nil {
		t.Fatal(err)
	}
	// Sole shared holder upgrades in place.
	if err := lm.Acquire(ctx, "t1", "r", true); err != nil {
		t.Fatal(err)
	}
	// Now exclusive: another shared must wait.
	done := make(chan error, 1)
	go func() { done <- lm.Acquire(ctx, "t2", "r", false) }()
	select {
	case err := <-done:
		t.Fatalf("shared granted against exclusive: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	lm.ReleaseAll("t1")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll("t2")
}

func TestLockContextCancel(t *testing.T) {
	lm := NewLockManager(time.Minute, clock.Real{})
	if err := lm.Acquire(context.Background(), "t1", "r", true); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if err := lm.Acquire(ctx, "t2", "r", true); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	lm.ReleaseAll("t1")
}
