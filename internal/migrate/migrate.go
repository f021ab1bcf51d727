// Package migrate implements migration, resource and failure transparency
// (§5.5).
//
// "An object has to take the responsibility for moving itself and its
// interfaces, since this provides for the opportunity to represent its
// state in a more compact or resilient form than if the data space of the
// active representation was simply copied out" — objects participate by
// implementing Snapshot/Restore (the code §5.5 suggests "may well be ...
// provided by an automated tool" is here the servant's own methods).
//
// The three §5.5 transparencies share one mechanism, as the paper notes
// ("there is a great deal of sharing of mechanism possible between the
// several transparencies... Transparency is therefore an effect rather
// than a mechanism"):
//
//   - Migration: snapshot → move to another capsule → re-activate
//     immediately; the old host forwards, the relocator learns the new
//     location.
//   - Resource (passivation): snapshot → stable store; the capsule's
//     activator reinstates the object transparently on next invocation.
//   - Failure: snapshot checkpoints plus a log of completed interactions;
//     recovery replays the log so "the replacement object can mirror
//     exactly the state of its predecessor".
package migrate

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"odp/internal/capsule"
	"odp/internal/group"
	"odp/internal/rpc"
	"odp/internal/storage"
	"odp/internal/types"
	"odp/internal/wire"
)

// Servant is a migratable servant: dispatchable and snapshot-able.
type Servant interface {
	capsule.Servant
	group.Snapshotter
}

// Factory reconstructs an empty servant of one type, ready for Restore.
type Factory func() Servant

// Registrar records relocations; naming.Table satisfies it.
type Registrar interface {
	Register(ref wire.Ref)
}

// Errors returned by the migration machinery.
var (
	// ErrUnknownObject reports an id this host does not manage.
	ErrUnknownObject = errors.New("migrate: unknown object")
	// ErrNoFactory reports a type with no registered factory.
	ErrNoFactory = errors.New("migrate: no factory for type")
)

// acceptorOp is the control operation hosts expose to receive movers.
const acceptorOp = "m!accept"

// gate quiesces an object's dispatch path during a move: "it also allows
// the object to delay the migration until a time convenient to other
// activities using the object" (§5.5). Dispatches register as in-flight;
// a move quiesces the gate, which waits for in-flight invocations to
// drain and holds new ones back until the cut-over commits or aborts.
// The mutex only guards the counters — it is never held across a
// dispatch or a network call (the remote accept runs with the gate
// quiesced but unlocked, per the mutexheld invariant).
type gate struct {
	mu       sync.Mutex
	cond     *sync.Cond // lazily created; signalled on drain and reopen
	inflight int
	quiesced bool // a move/passivation is holding new invocations back
	moved    bool
	fwd      wire.Ref
	gone     bool // passivated or withdrawn
}

// condLocked returns the gate's condition variable. Called with g.mu held.
func (g *gate) condLocked() *sync.Cond {
	if g.cond == nil {
		g.cond = sync.NewCond(&g.mu)
	}
	return g.cond
}

// enter admits one invocation, waiting out any quiesce in progress. It
// returns the terminal redirect/tombstone error once the gate has closed.
func (g *gate) enter() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.quiesced && !g.moved && !g.gone {
		g.condLocked().Wait()
	}
	if g.moved {
		return &rpc.MovedError{Forward: g.fwd}
	}
	if g.gone {
		return rpc.ErrNoObject
	}
	g.inflight++
	return nil
}

// exit retires one invocation admitted by enter.
func (g *gate) exit() {
	g.mu.Lock()
	g.inflight--
	if g.inflight == 0 {
		g.condLocked().Broadcast()
	}
	g.mu.Unlock()
}

// quiesce blocks new invocations and waits for in-flight ones to drain.
// Exactly one of commitMoved, commitGone or reopen must follow. It fails
// if the object has already moved or gone.
func (g *gate) quiesce() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.quiesced {
		g.condLocked().Wait() // another move is in progress; wait it out
	}
	if g.moved || g.gone {
		return rpc.ErrNoObject
	}
	g.quiesced = true
	for g.inflight > 0 {
		g.condLocked().Wait()
	}
	return nil
}

// reopen aborts a quiesce, re-admitting held invocations.
func (g *gate) reopen() {
	g.mu.Lock()
	g.quiesced = false
	g.condLocked().Broadcast()
	g.mu.Unlock()
}

// commitMoved closes the gate permanently: held and future invocations
// bounce to fwd.
func (g *gate) commitMoved(fwd wire.Ref) {
	g.mu.Lock()
	g.moved = true
	g.fwd = fwd
	g.quiesced = false
	g.condLocked().Broadcast()
	g.mu.Unlock()
}

// commitGone closes the gate permanently as passivated/withdrawn.
func (g *gate) commitGone() {
	g.mu.Lock()
	g.gone = true
	g.quiesced = false
	g.condLocked().Broadcast()
	g.mu.Unlock()
}

// interceptor returns the gate as a capsule interceptor.
func (g *gate) interceptor() capsule.Interceptor {
	return func(next capsule.Link) capsule.Link {
		return func(ctx context.Context, inv capsule.Invocation) (string, []wire.Value, error) {
			if err := g.enter(); err != nil {
				return "", nil, err
			}
			defer g.exit()
			return next(ctx, inv)
		}
	}
}

// managed tracks one object this host exported.
type managed struct {
	servant Servant
	typ     types.Type // Name empty: untyped
	epoch   uint32
	logged  bool // interaction logging enabled
	gate    *gate
}

// Incarnation is one servant incarnation of an object the host manages:
// what the node's weaver needs to put it on an access path.
type Incarnation struct {
	// ID names the object.
	ID string
	// Type is its interface type; Name is empty when none is known.
	Type types.Type
	// Servant is the incarnation's behaviour.
	Servant Servant
	// Gate quiesces the incarnation's access path during a move or a
	// passivation. Manage sets it.
	Gate capsule.Interceptor
	// Logged marks an object whose completed interactions are logged for
	// recovery (RecoveryLog); ReadOnly is the set of operations the host
	// was told the log may skip, nil when it was told none.
	Logged   bool
	ReadOnly map[string]bool
}

// Weaver puts an incarnation on the access path and exports it under its
// id. The node supplies it to NewHost; the host calls it for every
// incarnation it creates, so one function orders every object's path.
type Weaver func(Incarnation) (wire.Ref, error)

// Host is a capsule's migration/passivation/recovery agent.
type Host struct {
	cap       *capsule.Capsule
	store     storage.Store
	registrar Registrar
	weave     Weaver

	mu        sync.Mutex
	factories map[string]Factory
	objects   map[string]*managed
}

// NewHost creates the migration host for c, persisting passive objects
// and checkpoints in store, registering moves with registrar (which may
// be nil) and exporting every incarnation through weave. It exports the
// migration acceptor and installs the capsule's activator for passive
// objects.
func NewHost(c *capsule.Capsule, store storage.Store, registrar Registrar, weave Weaver) (*Host, error) {
	h := &Host{
		cap:       c,
		store:     store,
		registrar: registrar,
		weave:     weave,
		factories: make(map[string]Factory),
		objects:   make(map[string]*managed),
	}
	if _, err := c.Export(capsule.ServantFunc(h.acceptorDispatch),
		capsule.WithID(c.Name()+"/migrate-acceptor")); err != nil {
		return nil, err
	}
	c.SetActivator(h.activate)
	return h, nil
}

// AcceptorRef returns the reference other hosts use to push movers here.
func (h *Host) AcceptorRef() wire.Ref {
	return wire.Ref{ID: h.cap.Name() + "/migrate-acceptor", Endpoints: []string{h.cap.Addr()}}
}

// RegisterFactory makes a type receivable/activatable on this host.
func (h *Host) RegisterFactory(typeName string, f Factory) {
	h.mu.Lock()
	h.factories[typeName] = f
	h.mu.Unlock()
}

// Manage takes charge of a servant incarnation: from now on the host can
// migrate, passivate and checkpoint it. It gives the incarnation a fresh
// gate and has the weaver export it.
func (h *Host) Manage(inc Incarnation) (wire.Ref, error) {
	m := &managed{servant: inc.Servant, typ: inc.Type, logged: inc.Logged, gate: &gate{}}
	inc.Gate = m.gate.interceptor()
	ref, err := h.weave(inc)
	if err != nil {
		return wire.Ref{}, err
	}
	h.mu.Lock()
	h.objects[inc.ID] = m
	h.mu.Unlock()
	return ref, nil
}

// RecoveryLog returns the layer that appends each completed interaction
// of object id, except those in readOnly, to the object's recovery log,
// as the packed vector [op, List(args)] that Recover decodes.
func (h *Host) RecoveryLog(id string, readOnly map[string]bool) capsule.Interceptor {
	logName := "oplog/" + id
	return func(next capsule.Link) capsule.Link {
		return func(ctx context.Context, inv capsule.Invocation) (string, []wire.Value, error) {
			outcome, results, err := next(ctx, inv)
			if err == nil && !readOnly[inv.Op] {
				// AppendLog has copied or written the record when it
				// returns, so the buffer goes straight back to the pool.
				bp := wire.GetBuffer()
				rec := wire.AppendCount(*bp, 2)
				rec = wire.PackedCodec{}.AppendString(rec, inv.Op)
				rec, encErr := wire.PackedCodec{}.AppendList(rec, inv.Args)
				if encErr == nil {
					_ = h.store.AppendLog(logName, rec)
					*bp = rec
				}
				wire.PutBuffer(bp)
			}
			return outcome, results, err
		}
	}
}

// Migrate moves object id to the host whose acceptor is dest. The object
// keeps its identity: the destination exports it under the same id, the
// source leaves a forwarding reference, and the relocator learns the new
// location with a bumped epoch.
func (h *Host) Migrate(ctx context.Context, id string, dest wire.Ref) (wire.Ref, error) {
	h.mu.Lock()
	m, ok := h.objects[id]
	h.mu.Unlock()
	if !ok {
		return wire.Ref{}, fmt.Errorf("%w: %q", ErrUnknownObject, id)
	}
	// Quiesce: wait for in-flight invocations to drain and hold new ones
	// back until the cut-over completes, so no mutation is lost between
	// snapshot and forward. No lock is held across the snapshot or the
	// remote accept — the gate's quiesced state alone keeps new
	// invocations out.
	if err := m.gate.quiesce(); err != nil {
		return wire.Ref{}, fmt.Errorf("%w: %q", ErrUnknownObject, id)
	}
	snap, err := m.servant.Snapshot()
	if err != nil {
		m.gate.reopen()
		return wire.Ref{}, fmt.Errorf("migrate: snapshot %q: %w", id, err)
	}
	outcome, results, err := h.cap.Invoke(ctx, dest, acceptorOp,
		[]wire.Value{id, m.typ.Name, m.typeRecord(), snap, uint64(m.epoch + 1)},
		capsule.WithQoS(rpc.QoS{Timeout: rpc.DefaultTimeout}))
	if err != nil {
		m.gate.reopen()
		return wire.Ref{}, fmt.Errorf("migrate: accept at %v: %w", dest.Endpoints, err)
	}
	if outcome != "ok" {
		m.gate.reopen()
		return wire.Ref{}, fmt.Errorf("migrate: destination refused: %v", results)
	}
	newRef, ok := results[0].(wire.Ref)
	if !ok {
		m.gate.reopen()
		return wire.Ref{}, fmt.Errorf("migrate: acceptor returned %T", results[0])
	}
	// Cut over: forward at the source, register the change, release any
	// invocations held at the gate (they bounce to the new location).
	h.cap.SetForward(id, newRef)
	h.mu.Lock()
	delete(h.objects, id)
	h.mu.Unlock()
	m.gate.commitMoved(newRef)
	if h.registrar != nil {
		h.registrar.Register(newRef)
	}
	return newRef, nil
}

// acceptorDispatch receives a mover pushed by another host.
func (h *Host) acceptorDispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	if op != acceptorOp {
		return "", nil, fmt.Errorf("migrate: acceptor has no operation %q", op)
	}
	if len(args) != 5 {
		return "", nil, errors.New("migrate: accept wants (id, typeName, typeRec, snapshot, epoch)")
	}
	id, _ := args[0].(string)
	typeName, _ := args[1].(string)
	snap, _ := args[3].([]byte)
	epoch64, _ := args[4].(uint64)

	h.mu.Lock()
	factory, ok := h.factories[typeName]
	h.mu.Unlock()
	if !ok {
		return "refused", []wire.Value{fmt.Sprintf("no factory for type %q", typeName)}, nil
	}
	servant := factory()
	if err := servant.Restore(snap); err != nil {
		return "refused", []wire.Value{err.Error()}, nil
	}
	ref, err := h.Manage(Incarnation{ID: id, Type: decodeType(args[2]), Servant: servant})
	if err != nil {
		return "refused", []wire.Value{err.Error()}, nil
	}
	ref.Epoch = uint32(epoch64)
	h.mu.Lock()
	if m, ok := h.objects[id]; ok {
		m.epoch = uint32(epoch64)
	}
	h.mu.Unlock()
	return "ok", []wire.Value{ref}, nil
}
