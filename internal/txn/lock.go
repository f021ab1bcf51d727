// Package txn implements concurrency transparency (§5.2): the ACID
// properties layered over ordinary ADT interfaces.
//
//   - Atomicity: transactional invocations are bracketed by a two-phase
//     commit driven by the client-side coordinator; "retaining of
//     versions of object state until the overall fate of a transaction is
//     decided" is the resource wrapper's undo store.
//   - Consistency: optional ordering predicates over the sequence of
//     invocations within a transaction are checked at prepare time.
//   - Isolation: "separation constraints with interface specifications
//     indicating which operation and argument combinations potentially
//     interfere" generate the concurrency-control manager: read-only
//     operations take shared locks, interfering ones exclusive locks,
//     held to transaction end (strict two-phase locking).
//   - Durability: prepared and committed state is persisted through a
//     storage.Store write-ahead discipline.
//
// "Additionally it will need to interact with a deadlock detector so that
// applications do not hang indefinitely if transactions suffer locking
// conflicts" — the lock manager maintains a wait-for graph and aborts the
// requester whose wait would close a cycle.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"odp/internal/clock"
)

// Lock modes.
type lockMode int

const (
	lockShared lockMode = iota + 1
	lockExclusive
)

// Errors returned by the transaction machinery.
var (
	// ErrDeadlock reports that the requested lock would close a wait
	// cycle; the requesting transaction is chosen as victim and must
	// abort.
	ErrDeadlock = errors.New("txn: deadlock detected")
	// ErrAborted reports use of a transaction that has been aborted.
	ErrAborted = errors.New("txn: transaction aborted")
	// ErrDone reports use of a transaction that already committed or
	// aborted.
	ErrDone = errors.New("txn: transaction already finished")
	// ErrNotPrepared reports a commit for a transaction that never
	// prepared.
	ErrNotPrepared = errors.New("txn: not prepared")
	// ErrLockTimeout reports a lock wait exceeding the manager's bound —
	// the fallback detector for deadlocks spanning multiple lock
	// managers, which no local wait-for graph can see.
	ErrLockTimeout = errors.New("txn: lock wait timed out")
)

// lockState tracks one resource's lock.
type lockState struct {
	holders map[string]lockMode // txn id -> mode held
	waiters int
}

// LockManager serialises access to a set of resources on behalf of
// transactions. One manager typically guards one capsule's resources, so
// its wait-for graph sees all local conflicts.
type LockManager struct {
	mu    sync.Mutex
	cond  *sync.Cond
	locks map[string]*lockState
	// waitsFor edges: txn -> set of txns it currently waits for.
	waitsFor map[string]map[string]bool
	// maxWait bounds any single lock wait (cross-manager deadlock
	// fallback).
	maxWait time.Duration
	clk     clock.Clock

	deadlocks uint64
}

// NewLockManager creates a lock manager whose waits run on clk. maxWait
// bounds individual lock waits; zero means 5s.
func NewLockManager(maxWait time.Duration, clk clock.Clock) *LockManager {
	if maxWait <= 0 {
		maxWait = 5 * time.Second
	}
	lm := &LockManager{
		locks:    make(map[string]*lockState),
		waitsFor: make(map[string]map[string]bool),
		maxWait:  maxWait,
		clk:      clk,
	}
	lm.cond = sync.NewCond(&lm.mu)
	return lm
}

// Deadlocks returns how many deadlocks have been detected and broken.
func (lm *LockManager) Deadlocks() uint64 {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.deadlocks
}

// Acquire takes resource in mode on behalf of txn, blocking while
// conflicting holders exist. It is reentrant: a transaction already
// holding the resource re-acquires (or upgrades shared→exclusive)
// without self-conflict. Returns ErrDeadlock when the wait would close a
// cycle, with the requester as victim.
func (lm *LockManager) Acquire(ctx context.Context, txnID, resource string, exclusive bool) error {
	mode := lockShared
	if exclusive {
		mode = lockExclusive
	}
	deadline := lm.clk.Now().Add(lm.maxWait)

	lm.mu.Lock()
	defer lm.mu.Unlock()
	for {
		ls := lm.locks[resource]
		if ls == nil {
			ls = &lockState{holders: make(map[string]lockMode)}
			lm.locks[resource] = ls
		}
		if lm.grantable(ls, txnID, mode) {
			if held, ok := ls.holders[txnID]; !ok || mode > held {
				ls.holders[txnID] = mode
			}
			delete(lm.waitsFor, txnID)
			return nil
		}
		// Record who we wait for and check for a cycle.
		blockers := make(map[string]bool)
		for holder := range ls.holders {
			if holder != txnID {
				blockers[holder] = true
			}
		}
		lm.waitsFor[txnID] = blockers
		if lm.cycleFrom(txnID) {
			delete(lm.waitsFor, txnID)
			lm.deadlocks++
			return fmt.Errorf("%w: %s waiting for %s", ErrDeadlock, txnID, resource)
		}
		if ctx.Err() != nil {
			delete(lm.waitsFor, txnID)
			return ctx.Err()
		}
		if lm.clk.Now().After(deadline) {
			delete(lm.waitsFor, txnID)
			return fmt.Errorf("%w: %s on %s", ErrLockTimeout, txnID, resource)
		}
		ls.waiters++
		lm.waitWithWakeup()
		ls.waiters--
	}
}

// waitWithWakeup waits on the condition with a periodic poll so context
// expiry and the wait deadline are honoured. Called with lm.mu held.
func (lm *LockManager) waitWithWakeup() {
	done := make(chan struct{})
	go func() {
		// A stoppable timer, not clk.After: an abandoned After waiter
		// would fire later into a channel nobody reads, a phantom
		// deadline for virtual-time drivers.
		t := lm.clk.NewTimer(20 * time.Millisecond)
		defer t.Stop()
		select {
		case <-t.C():
			lm.mu.Lock()
			lm.cond.Broadcast()
			lm.mu.Unlock()
		case <-done:
		}
	}()
	lm.cond.Wait()
	close(done)
}

// grantable reports whether txn may hold resource in mode given current
// holders. Called with lm.mu held.
func (lm *LockManager) grantable(ls *lockState, txnID string, mode lockMode) bool {
	for holder, held := range ls.holders {
		if holder == txnID {
			continue
		}
		if mode == lockExclusive || held == lockExclusive {
			return false
		}
	}
	return true
}

// cycleFrom reports whether the wait-for graph has a cycle reachable from
// start. Called with lm.mu held.
func (lm *LockManager) cycleFrom(start string) bool {
	seen := make(map[string]bool)
	var visit func(string) bool
	visit = func(t string) bool {
		if t == start && len(seen) > 0 {
			return true
		}
		if seen[t] {
			return false
		}
		seen[t] = true
		for next := range lm.waitsFor[t] {
			if visit(next) {
				return true
			}
		}
		return false
	}
	for next := range lm.waitsFor[start] {
		seen[start] = true
		if visit(next) {
			return true
		}
	}
	return false
}

// Release drops txn's lock on one resource. Two-phase commit must
// release per resource as each participant finishes its own commit or
// abort — a global release after the FIRST participant would let other
// transactions slip into participants that have not yet rolled back,
// whose later undo-restore would stomp them.
func (lm *LockManager) Release(txnID, resource string) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if ls, ok := lm.locks[resource]; ok {
		delete(ls.holders, txnID)
		if len(ls.holders) == 0 && ls.waiters == 0 {
			delete(lm.locks, resource)
		}
	}
	lm.cond.Broadcast()
}

// ReleaseAll drops every lock held by txn and clears its wait state.
func (lm *LockManager) ReleaseAll(txnID string) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for res, ls := range lm.locks {
		delete(ls.holders, txnID)
		if len(ls.holders) == 0 && ls.waiters == 0 {
			delete(lm.locks, res)
		}
	}
	delete(lm.waitsFor, txnID)
	// Remove txn from other transactions' blocker sets.
	for _, blockers := range lm.waitsFor {
		delete(blockers, txnID)
	}
	lm.cond.Broadcast()
}

// HeldBy reports whether txn currently holds any lock (test hook).
func (lm *LockManager) HeldBy(txnID string) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for _, ls := range lm.locks {
		if _, ok := ls.holders[txnID]; ok {
			return true
		}
	}
	return false
}
