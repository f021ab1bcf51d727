package txn

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/wire"
)

// TestPropertyMutualExclusion drives the lock manager with random
// schedules and asserts the fundamental invariant: at no instant do two
// transactions both hold a resource when either holds it exclusively.
func TestPropertyMutualExclusion(t *testing.T) {
	const (
		resources = 3
		workers   = 6
		steps     = 40
	)
	lm := NewLockManager(2*time.Second, clock.Real{})

	var (
		mu       sync.Mutex
		holders  = make([]map[string]bool, resources) // r -> txn -> exclusive?
		violated string
	)
	for i := range holders {
		holders[i] = make(map[string]bool)
	}
	checkInvariant := func(r int) {
		exclusives, total := 0, 0
		for _, excl := range holders[r] {
			total++
			if excl {
				exclusives++
			}
		}
		if exclusives > 0 && total > 1 && violated == "" {
			violated = fmt.Sprintf("resource %d: %d holders with %d exclusive", r, total, exclusives)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for s := 0; s < steps; s++ {
				txnID := fmt.Sprintf("w%d-s%d", w, s)
				r := rng.Intn(resources)
				exclusive := rng.Intn(2) == 0
				err := lm.Acquire(context.Background(), txnID, fmt.Sprintf("r%d", r), exclusive)
				if err != nil {
					lm.ReleaseAll(txnID) // victim: move on
					continue
				}
				mu.Lock()
				holders[r][txnID] = exclusive
				checkInvariant(r)
				mu.Unlock()

				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)

				mu.Lock()
				delete(holders[r], txnID)
				mu.Unlock()
				lm.ReleaseAll(txnID)
			}
		}(w)
	}
	wg.Wait()
	if violated != "" {
		t.Fatalf("mutual exclusion violated: %s", violated)
	}
}

// TestPropertyMoneyConservationWithRandomAborts runs random concurrent
// transfers where a fraction of transactions abort on purpose; the sum
// over all accounts must be invariant regardless of the interleaving and
// the abort pattern (atomicity, §5.2).
func TestPropertyMoneyConservationWithRandomAborts(t *testing.T) {
	e := newTxnEnv(t)
	const accounts = 3
	ctx := context.Background()
	accts := make([]*account, accounts)
	refs := make([]wire.Ref, accounts)
	for i := 0; i < accounts; i++ {
		refs[i], accts[i] = e.export(fmt.Sprintf("acct%d", i), 1000)
	}

	var wg sync.WaitGroup
	const workers, rounds = 4, 15
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds; i++ {
				from := rng.Intn(accounts)
				to := (from + 1 + rng.Intn(accounts-1)) % accounts
				amt := int64(1 + rng.Intn(20))
				tx := e.coord.Begin()
				_, _, err := tx.Invoke(ctx, refs[from], "withdraw", []wire.Value{amt},
					capsule.WithQoS(qosLong()))
				if err == nil {
					_, _, err = tx.Invoke(ctx, refs[to], "deposit", []wire.Value{amt},
						capsule.WithQoS(qosLong()))
				}
				switch {
				case err != nil:
					_ = tx.Abort(ctx)
				case rng.Intn(3) == 0:
					// Random voluntary abort: all-or-nothing must hold.
					_ = tx.Abort(ctx)
				default:
					_ = tx.Commit(ctx)
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
		t.Fatalf("money not conserved: %d != %d", total, accounts*1000)
	}
}

// TestPropertyStrictTwoPhase asserts that locks acquired by a
// transaction are all held until the end and all released afterwards,
// over random operation mixes.
func TestPropertyStrictTwoPhase(t *testing.T) {
	e := newTxnEnv(t)
	const accounts = 4
	refs := make([]wire.Ref, accounts)
	for i := range refs {
		refs[i], _ = e.export(fmt.Sprintf("acct%d", i), 100)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		tx := e.coord.Begin()
		touched := 1 + rng.Intn(accounts)
		for i := 0; i < touched; i++ {
			op := "balance"
			var args []wire.Value
			if rng.Intn(2) == 0 {
				op = "deposit"
				args = []wire.Value{int64(1)}
			}
			if _, _, err := tx.Invoke(ctx, refs[i], op, args, capsule.WithQoS(qosLong())); err != nil {
				t.Fatal(err)
			}
			// Mid-transaction: locks must be held.
			if !e.lm.HeldBy(tx.ID()) {
				t.Fatalf("round %d: no locks held mid-transaction", round)
			}
		}
		if rng.Intn(2) == 0 {
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := tx.Abort(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if e.lm.HeldBy(tx.ID()) {
			t.Fatalf("round %d: locks leaked after finish", round)
		}
	}
}
