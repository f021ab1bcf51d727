package txn

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"odp/internal/capsule"
	"odp/internal/storage"
	"odp/internal/wire"
)

// Coordinator creates and finishes transactions from one capsule. "When
// atomicity is provided a request-reply style invocation will carry an
// atomic activity into the invoked operation" (§5.2): Txn.Invoke wraps
// ordinary interrogations so each carries the transaction identity to the
// resource's concurrency manager.
type Coordinator struct {
	cap    *capsule.Capsule
	store  storage.Store // optional decision log
	nextID atomic.Uint64
}

// NewCoordinator creates a coordinator. store, when non-nil, records
// commit decisions (write-ahead) so that in-doubt participants could be
// resolved after a coordinator crash.
func NewCoordinator(c *capsule.Capsule, store storage.Store) *Coordinator {
	return &Coordinator{cap: c, store: store}
}

// Txn is one atomic activity.
type Txn struct {
	id    string
	coord *Coordinator

	mu           sync.Mutex
	participants map[string]wire.Ref
	order        []string
	finished     bool
	aborted      bool
}

// Begin starts a new transaction.
func (c *Coordinator) Begin() *Txn {
	return &Txn{
		id:           c.cap.Name() + "/txn-" + strconv.FormatUint(c.nextID.Add(1), 10),
		coord:        c,
		participants: make(map[string]wire.Ref),
	}
}

// ID returns the transaction identifier.
func (t *Txn) ID() string { return t.id }

// Invoke performs op on ref within the transaction. The target must be a
// transactional resource (wrapped by NewResource).
func (t *Txn) Invoke(ctx context.Context, ref wire.Ref, op string, args []wire.Value, opts ...capsule.InvokeOption) (string, []wire.Value, error) {
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return "", nil, ErrDone
	}
	if t.aborted {
		t.mu.Unlock()
		return "", nil, ErrAborted
	}
	if _, ok := t.participants[ref.ID]; !ok {
		t.participants[ref.ID] = ref
		t.order = append(t.order, ref.ID)
	}
	t.mu.Unlock()

	outcome, results, err := t.coord.cap.Invoke(ctx, ref, OpDo,
		[]wire.Value{t.id, op, wire.List(args)}, opts...)
	if err != nil {
		// A deadlock or lock timeout poisons the transaction: the caller
		// must abort (and the abort path releases whatever was locked).
		t.mu.Lock()
		t.aborted = true
		t.mu.Unlock()
		return "", nil, err
	}
	return outcome, results, nil
}

// Commit runs two-phase commit over every touched resource. On any "no"
// vote or unreachable participant the transaction aborts everywhere and
// ErrAborted is returned.
func (t *Txn) Commit(ctx context.Context) error {
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return ErrDone
	}
	if t.aborted {
		t.mu.Unlock()
		return t.Abort(ctx)
	}
	t.finished = true
	refs := t.snapshotParticipantsLocked()
	t.mu.Unlock()

	// Phase 1: prepare.
	for _, ref := range refs {
		outcome, res, err := t.coord.cap.Invoke(ctx, ref, OpPrepare, []wire.Value{t.id})
		if err != nil || outcome != "yes" {
			t.rollback(ctx, refs)
			if err != nil {
				return fmt.Errorf("%w: prepare %s: %v", ErrAborted, ref.ID, err)
			}
			return fmt.Errorf("%w: %s voted %q %v", ErrAborted, ref.ID, outcome, res)
		}
	}
	// Decision point: log commit before telling anyone (write-ahead).
	if t.coord.store != nil {
		if err := t.coord.store.AppendLog("txn-decisions", []byte("commit "+t.id)); err != nil {
			t.rollback(ctx, refs)
			return fmt.Errorf("%w: decision log: %v", ErrAborted, err)
		}
	}
	// Phase 2: commit.
	var firstErr error
	for _, ref := range refs {
		if _, _, err := t.coord.cap.Invoke(ctx, ref, OpCommit, []wire.Value{t.id}); err != nil && firstErr == nil {
			// The decision is durable; a participant that missed it is
			// in-doubt and would be resolved by recovery, not rollback.
			firstErr = fmt.Errorf("txn: commit delivery to %s: %w", ref.ID, err)
		}
	}
	return firstErr
}

// Abort rolls the transaction back everywhere.
func (t *Txn) Abort(ctx context.Context) error {
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return ErrDone
	}
	t.finished = true
	refs := t.snapshotParticipantsLocked()
	t.mu.Unlock()
	t.rollback(ctx, refs)
	return nil
}

func (t *Txn) snapshotParticipantsLocked() []wire.Ref {
	refs := make([]wire.Ref, 0, len(t.order))
	for _, id := range t.order {
		refs = append(refs, t.participants[id])
	}
	return refs
}

func (t *Txn) rollback(ctx context.Context, refs []wire.Ref) {
	if t.coord.store != nil {
		_ = t.coord.store.AppendLog("txn-decisions", []byte("abort "+t.id))
	}
	for _, ref := range refs {
		_, _, _ = t.coord.cap.Invoke(ctx, ref, OpAbort, []wire.Value{t.id})
	}
}
