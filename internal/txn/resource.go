package txn

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"odp/internal/capsule"
	"odp/internal/group"
	"odp/internal/storage"
	"odp/internal/wire"
)

// Transactional control operations, recognised by the resource wrapper.
const (
	// OpDo wraps an application operation: args = [txnID, op, argsList].
	OpDo = "t!do"
	// OpPrepare asks the resource to vote: args = [txnID].
	OpPrepare = "t!prepare"
	// OpCommit finalises: args = [txnID].
	OpCommit = "t!commit"
	// OpAbort rolls back: args = [txnID].
	OpAbort = "t!abort"
)

// Separation is the separation-constraint specification of an interface
// (§5.2): it tells the generated concurrency manager which operations
// interfere. Operations in ReadOnly take shared locks; everything else is
// assumed to modify state and takes an exclusive lock.
type Separation struct {
	// ReadOnly lists non-mutating operations.
	ReadOnly map[string]bool
}

// shared reports the lock mode for op.
func (s Separation) shared(op string) bool {
	return s.ReadOnly[op]
}

// OrderPredicate is the consistency constraint of §5.2: "associating
// ordering predicates with interfaces, where the predicate describes the
// permitted sequences of invocations within a transaction". It inspects
// the full in-transaction operation sequence and reports whether it is
// acceptable; it is evaluated at prepare time and a false vote aborts the
// transaction.
type OrderPredicate func(ops []string) error

// Resource makes a servant transactional. The servant must implement
// group.Snapshotter so pre-images can be retained ("retaining of versions
// of object state until the overall fate of a transaction is decided").
type Resource struct {
	id      string
	servant capsule.Servant
	snap    group.Snapshotter
	lm      *LockManager
	sep     Separation
	order   OrderPredicate
	store   storage.Store // optional durability

	mu       sync.Mutex
	undo     map[string][]byte   // txn -> pre-image
	prepared map[string]bool     // txn -> voted yes
	opLog    map[string][]string // txn -> in-txn operation sequence
	plainSeq atomic.Uint64       // distinguishes concurrent plain calls
}

// ResourceOption configures a Resource.
type ResourceOption func(*Resource)

// WithSeparation installs the separation constraints (default: every
// operation exclusive).
func WithSeparation(s Separation) ResourceOption {
	return func(r *Resource) { r.sep = s }
}

// WithOrderPredicate installs a consistency predicate.
func WithOrderPredicate(p OrderPredicate) ResourceOption {
	return func(r *Resource) { r.order = p }
}

// WithDurability persists prepared and committed state in store.
func WithDurability(store storage.Store) ResourceOption {
	return func(r *Resource) { r.store = store }
}

// NewResource wraps servant (which must snapshot) as transactional
// resource id, sharing lm with the other resources of its capsule.
func NewResource(id string, servant capsule.Servant, lm *LockManager, opts ...ResourceOption) (*Resource, error) {
	snap, ok := servant.(group.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("txn: servant for %q cannot snapshot; transactional resources need pre-images", id)
	}
	r := &Resource{
		id:       id,
		servant:  servant,
		snap:     snap,
		lm:       lm,
		undo:     make(map[string][]byte),
		prepared: make(map[string]bool),
		opLog:    make(map[string][]string),
	}
	for _, o := range opts {
		o(r)
	}
	return r, nil
}

var _ capsule.Servant = (*Resource)(nil)

// Dispatch implements capsule.Servant: transactional control operations
// drive the two-phase protocol; plain operations run as self-contained
// mini-transactions so they cannot observe uncommitted state.
func (r *Resource) Dispatch(ctx context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	switch op {
	case OpDo:
		return r.doTxnOp(ctx, args)
	case OpPrepare:
		return r.prepare(args)
	case OpCommit:
		return r.commit(args)
	case OpAbort:
		return r.abort(args)
	default:
		return r.doPlain(ctx, op, args)
	}
}

// Recover reloads the last committed snapshot from the durability store,
// as after a crash.
func (r *Resource) Recover() error {
	if r.store == nil {
		return nil
	}
	data, err := r.store.GetBlob("txnobj/" + r.id)
	if err != nil {
		if storageIsNotFound(err) {
			return nil // nothing committed yet
		}
		return err
	}
	return r.snap.Restore(data)
}

func storageIsNotFound(err error) bool {
	return errors.Is(err, storage.ErrNotFound)
}

// doTxnOp executes one in-transaction operation under strict 2PL.
func (r *Resource) doTxnOp(ctx context.Context, args []wire.Value) (string, []wire.Value, error) {
	if len(args) != 3 {
		return "", nil, fmt.Errorf("txn: %s wants (txnID, op, args)", OpDo)
	}
	txnID, _ := args[0].(string)
	op, _ := args[1].(string)
	realArgs, _ := args[2].(wire.List)
	if txnID == "" || op == "" {
		return "", nil, fmt.Errorf("txn: %s with empty txn or op", OpDo)
	}
	exclusive := !r.sep.shared(op)
	if err := r.lm.Acquire(ctx, txnID, r.id, exclusive); err != nil {
		return "", nil, err
	}
	// First mutation by this transaction: retain the pre-image.
	if exclusive {
		r.mu.Lock()
		_, have := r.undo[txnID]
		r.mu.Unlock()
		if !have {
			pre, err := r.snap.Snapshot()
			if err != nil {
				return "", nil, fmt.Errorf("txn: pre-image: %w", err)
			}
			r.mu.Lock()
			if _, raced := r.undo[txnID]; !raced {
				r.undo[txnID] = pre
			}
			r.mu.Unlock()
		}
	}
	r.mu.Lock()
	r.opLog[txnID] = append(r.opLog[txnID], op)
	r.mu.Unlock()
	return r.servant.Dispatch(ctx, op, realArgs)
}

// doPlain executes a non-transactional operation as a mini-transaction:
// it waits for conflicting transactions and releases immediately.
func (r *Resource) doPlain(ctx context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	miniTxn := "plain/" + r.id + "/" + strconv.FormatUint(r.plainSeq.Add(1), 10)
	exclusive := !r.sep.shared(op)
	if err := r.lm.Acquire(ctx, miniTxn, r.id, exclusive); err != nil {
		return "", nil, err
	}
	defer r.lm.ReleaseAll(miniTxn)
	return r.servant.Dispatch(ctx, op, args)
}

// prepare votes on a transaction's outcome at this resource.
func (r *Resource) prepare(args []wire.Value) (string, []wire.Value, error) {
	if len(args) != 1 {
		return "", nil, fmt.Errorf("txn: %s wants (txnID)", OpPrepare)
	}
	txnID, _ := args[0].(string)
	r.mu.Lock()
	ops := append([]string(nil), r.opLog[txnID]...)
	r.mu.Unlock()
	// Consistency: evaluate the ordering predicate over the transaction's
	// operation sequence.
	if r.order != nil {
		if err := r.order(ops); err != nil {
			return "no", []wire.Value{err.Error()}, nil
		}
	}
	// Durability: persist the post-image as a prepared intent.
	if r.store != nil {
		post, err := r.snap.Snapshot()
		if err != nil {
			return "no", []wire.Value{err.Error()}, nil
		}
		if err := r.store.PutBlob("txnintent/"+r.id+"/"+txnID, post); err != nil {
			return "no", []wire.Value{err.Error()}, nil
		}
	}
	r.mu.Lock()
	r.prepared[txnID] = true
	r.mu.Unlock()
	return "yes", nil, nil
}

// commit finalises the transaction at this resource.
func (r *Resource) commit(args []wire.Value) (string, []wire.Value, error) {
	if len(args) != 1 {
		return "", nil, fmt.Errorf("txn: %s wants (txnID)", OpCommit)
	}
	txnID, _ := args[0].(string)
	r.mu.Lock()
	wasPrepared := r.prepared[txnID]
	delete(r.prepared, txnID)
	delete(r.undo, txnID)
	delete(r.opLog, txnID)
	r.mu.Unlock()
	if !wasPrepared {
		// Committing unprepared is a coordinator bug; refuse.
		return "", nil, fmt.Errorf("%w: %s at %s", ErrNotPrepared, txnID, r.id)
	}
	if r.store != nil {
		if data, err := r.store.GetBlob("txnintent/" + r.id + "/" + txnID); err == nil {
			if err := r.store.PutBlob("txnobj/"+r.id, data); err != nil {
				return "", nil, err
			}
			_ = r.store.DeleteBlob("txnintent/" + r.id + "/" + txnID)
		}
	}
	r.lm.Release(txnID, r.id)
	return "ok", nil, nil
}

// abort rolls the transaction back at this resource.
func (r *Resource) abort(args []wire.Value) (string, []wire.Value, error) {
	if len(args) != 1 {
		return "", nil, fmt.Errorf("txn: %s wants (txnID)", OpAbort)
	}
	txnID, _ := args[0].(string)
	r.mu.Lock()
	pre, had := r.undo[txnID]
	delete(r.undo, txnID)
	delete(r.prepared, txnID)
	delete(r.opLog, txnID)
	r.mu.Unlock()
	if had {
		if err := r.snap.Restore(pre); err != nil {
			return "", nil, fmt.Errorf("txn: undo restore: %w", err)
		}
	}
	if r.store != nil {
		_ = r.store.DeleteBlob("txnintent/" + r.id + "/" + txnID)
	}
	r.lm.Release(txnID, r.id)
	return "ok", nil, nil
}
