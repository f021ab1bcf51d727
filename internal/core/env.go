package core

import (
	"context"
	"fmt"
	"time"

	"odp/internal/capsule"
	"odp/internal/group"
	"odp/internal/migrate"
	"odp/internal/obs"
	"odp/internal/security"
	"odp/internal/txn"
	"odp/internal/types"
	"odp/internal/wire"
)

// Env is the declarative environment constraint set of an interface
// (§4.4): "if the application does have specific environmental
// constraints, such as dependability or performance guarantees, these can
// be specified declaratively. The application does not have to be bound
// to a specific transparency mechanism." Each non-nil field selects a
// transparency; access and location transparency are always provided.
type Env struct {
	// Atomic requests concurrency transparency: the interface becomes a
	// transactional resource under generated concurrency control (§5.2).
	Atomic *AtomicSpec
	// Secured requests a generated guard (§7.1).
	Secured *SecureSpec
	// Recoverable requests failure transparency: checkpoint plus
	// interaction log (§5.5).
	Recoverable *RecoverSpec
	// Movable requests migration/resource transparency: the object can
	// be migrated and passivated (§5.5). Implied by Recoverable.
	Movable bool
	// Leased requests distributed-garbage-collection tracking (§7.3).
	Leased *LeaseSpec
	// Managed requests management instrumentation (§7.4).
	Managed *ManagedSpec
}

// AtomicSpec configures concurrency transparency.
type AtomicSpec struct {
	// Separation lists the read-only (shared-lock) operations; all
	// others interfere (§5.2 separation constraints).
	Separation txn.Separation
	// Order is the optional consistency predicate (§5.2).
	Order txn.OrderPredicate
	// Durable persists prepared/committed state in the platform store.
	Durable bool
}

// SecureSpec configures the generated guard.
type SecureSpec struct {
	// Policy is the declarative access policy.
	Policy security.Policy
	// MaxSkew bounds credential age (default 30s).
	MaxSkew time.Duration
}

// RecoverSpec configures failure transparency.
type RecoverSpec struct {
	// ReadOnly lists operations the interaction log may skip.
	ReadOnly map[string]bool
}

// LeaseSpec configures collection tracking.
type LeaseSpec struct {
	// OnCollect runs when the object is reclaimed (optional).
	OnCollect func(id string)
}

// ManagedSpec configures instrumentation.
type ManagedSpec struct {
	// MetricPrefix names the object's metrics (default: the object id).
	MetricPrefix string
}

// Object is a computational-model object: behaviour, signature and
// environment constraints.
type Object struct {
	// Servant is the behaviour.
	Servant capsule.Servant
	// Type is the interface signature (optional but recommended: it
	// enables early type checking and trading).
	Type types.Type
	// Env declares the required transparencies.
	Env Env
}

// Publish weaves the object's environment constraints into an access
// path and exports the interface under id. This is the §4.5 automated
// transformation: "transparency requirements can be processed
// automatically by editing the code generated when programs are compiled
// to add the extra functionality needed to achieve transparency."
func (p *Platform) Publish(id string, obj Object) (ref wire.Ref, err error) {
	env := obj.Env
	if env.Atomic != nil && env.Recoverable != nil {
		// The transactional resource already owns durability and
		// versioning; stacking a second log would replay doubly.
		return wire.Ref{}, fmt.Errorf("%w: Atomic already subsumes Recoverable durability (use AtomicSpec.Durable)", ErrEnvConflict)
	}
	movable := env.Movable || env.Recoverable != nil
	mov, snapshots := obj.Servant.(migrate.Servant)
	if movable && (env.Atomic != nil || !snapshots) {
		// A move or a passivation snapshots the servant on the path, and
		// a transactional resource does not snapshot.
		return wire.Ref{}, fmt.Errorf("%w: movable/recoverable objects must snapshot", ErrNeedsSnapshot)
	}
	if obj.Type.Name != "" {
		if err := p.Types.Register(obj.Type); err != nil {
			return wire.Ref{}, err
		}
	}
	pub := &published{env: env, typ: obj.Type}
	if env.Managed != nil && env.Managed.MetricPrefix == "" {
		pub.env.Managed = &ManagedSpec{MetricPrefix: id}
	}
	if env.Secured != nil {
		pub.guard = security.NewGuard(p.Keys, env.Secured.Policy, env.Secured.MaxSkew)
		defer func() { // a guard is counted once its object is published
			if err == nil {
				p.metricsMu.Lock()
				p.guards = append(p.guards, pub.guard)
				p.metricsMu.Unlock()
			}
		}()
	}
	if !movable {
		return p.weave(id, obj.Servant, nil, pub)
	}
	// The migration host owns every incarnation of a movable object; it
	// hands each one back through reweave, which finds this record.
	p.pubMu.Lock()
	prev := p.published[id]
	p.published[id] = pub
	p.pubMu.Unlock()
	ref, err = p.Mover.Manage(migrate.Incarnation{
		ID: id, Type: obj.Type, Servant: mov, Logged: env.Recoverable != nil,
	})
	if err != nil {
		p.pubMu.Lock()
		if prev != nil {
			p.published[id] = prev
		} else {
			delete(p.published, id)
		}
		p.pubMu.Unlock()
	}
	return ref, err
}

// published is what Publish built for a movable object: its constraints,
// a Managed prefix resolved, and the mechanism instance that outlives any
// one servant incarnation — the guard, whose replay window must carry
// over.
type published struct {
	env   Env
	typ   types.Type
	guard *security.Guard
}

// reweave is the weaver the migration host calls for every incarnation it
// creates. An id this node published keeps what Publish built for it; any
// other (migrated in, recovered, or a passive record read by a fresh
// process) gets what the host knows of it: movable, recoverable when it
// is logged, typed when it carries a type.
func (p *Platform) reweave(inc migrate.Incarnation) (wire.Ref, error) {
	p.pubMu.Lock()
	pub, ok := p.published[inc.ID]
	p.pubMu.Unlock()
	if !ok {
		pub = &published{env: Env{Movable: true}, typ: inc.Type}
		if inc.Logged {
			pub.env.Recoverable = &RecoverSpec{ReadOnly: inc.ReadOnly}
		}
	}
	return p.weave(inc.ID, inc.Servant, inc.Gate, pub)
}

// weave is the only code that orders mechanisms on an access path: every
// incarnation of every object this node exports passes through it.
// Outermost first: the Managed stage sees everything, the guard rejects
// before any mechanism runs, lease tracking counts only admitted traffic,
// the migration gate (nil for an object that cannot move) holds calls
// back during a move, the recovery log records what completed; the
// capsule's type check sits at the servant boundary, and the
// transactional resource wraps the behaviour itself. Each mechanism is
// appended through its stage, which names it in a trace and counts it.
// The layers bound to the servant — resource, lease entry, gate, log,
// type check — are built anew for each incarnation; the guard is pub's,
// and the stages are the node's.
func (p *Platform) weave(id string, servant capsule.Servant, gate capsule.Interceptor, pub *published) (wire.Ref, error) {
	env := pub.env
	if env.Atomic != nil {
		resOpts := []txn.ResourceOption{txn.WithSeparation(env.Atomic.Separation)}
		if env.Atomic.Order != nil {
			resOpts = append(resOpts, txn.WithOrderPredicate(env.Atomic.Order))
		}
		if env.Atomic.Durable {
			resOpts = append(resOpts, txn.WithDurability(p.Store))
		}
		res, err := txn.NewResource(id, servant, p.Locks, resOpts...)
		if err != nil {
			return wire.Ref{}, fmt.Errorf("%w: %v", ErrNeedsSnapshot, err)
		}
		servant = res
	}
	var chain []capsule.Interceptor
	if env.Managed != nil {
		chain = append(chain, p.stage(stageKey{prefix: env.Managed.MetricPrefix}, nil))
	}
	if env.Secured != nil {
		chain = append(chain, p.stage(stageKey{kind: obs.KindGuard}, pub.guard.AsInterceptor()))
	}
	if env.Leased != nil {
		chain = append(chain, p.stage(stageKey{kind: obs.KindLease}, p.Collector.Track(id, env.Leased.OnCollect)))
	}
	if gate != nil {
		chain = append(chain, p.stage(stageKey{kind: obs.KindGate}, gate))
	}
	if env.Recoverable != nil {
		chain = append(chain, p.stage(stageKey{kind: obs.KindRecovery}, p.Mover.RecoveryLog(id, env.Recoverable.ReadOnly)))
	}
	copts := []capsule.ExportOption{capsule.WithID(id)}
	if pub.typ.Name != "" {
		copts = append(copts, capsule.WithType(pub.typ))
	}
	if len(chain) > 0 {
		copts = append(copts, capsule.WithInterceptors(chain...))
	}
	return p.Capsule.Export(servant, copts...)
}

// ReplicaSpec configures replication transparency (§5.3).
type ReplicaSpec struct {
	// GroupID names the replica group.
	GroupID string
	// Mode selects active replication or hot standby.
	Mode group.Mode
	// HeartbeatInterval / FailureTimeout tune failure detection.
	HeartbeatInterval time.Duration
	FailureTimeout    time.Duration
}

// Replicated is a published replica group.
type Replicated struct {
	// Members are the per-platform group members, in platform order.
	Members []*group.Member
}

// Ref returns the group reference — to clients, an ordinary singleton
// interface reference with several access paths.
func (r *Replicated) Ref() wire.Ref {
	return r.Members[0].GroupRef()
}

// Stop halts all members.
func (r *Replicated) Stop() {
	for _, m := range r.Members {
		m.Stop()
	}
}

// PublishReplicated weaves replication transparency: one replica per
// platform, joined into an ordered group. factory must produce an
// independent servant per platform (replicas share no memory). The first
// platform bootstraps; the rest join.
func PublishReplicated(platforms []*Platform, spec ReplicaSpec, factory func() capsule.Servant) (*Replicated, error) {
	if len(platforms) == 0 {
		return nil, fmt.Errorf("core: no platforms for replica group")
	}
	r := &Replicated{}
	for i, p := range platforms {
		// Each member's failure detector runs on its own platform's clock
		// (the capsule's), so a virtual-time simulation drives heartbeats
		// too.
		cfg := group.Config{
			GroupID:           spec.GroupID,
			Mode:              spec.Mode,
			HeartbeatInterval: spec.HeartbeatInterval,
			FailureTimeout:    spec.FailureTimeout,
		}
		m, err := group.NewMember(p.Capsule, factory(), cfg)
		if err != nil {
			r.Stop()
			return nil, err
		}
		if i == 0 {
			m.Bootstrap()
		} else if err := m.Join(context.Background(), r.Members[0].GroupRef()); err != nil {
			r.Stop()
			return nil, err
		}
		r.Members = append(r.Members, m)
		// Join the unified introspection namespace: group counters fold
		// into each hosting platform's Gather alongside rpc/binder/gc.
		member, prefix := m, "group."+spec.GroupID
		p.AddStatsSource(func(m *obs.Metrics) {
			m.Counters[prefix+".executed"] = member.Executed()
			m.Counters[prefix+".promotions"] = member.Promotions()
		})
	}
	for _, m := range r.Members {
		m.Start()
	}
	return r, nil
}
