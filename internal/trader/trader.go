// Package trader implements the ODP trading service (§6).
//
// "Clients within an open distributed system need to be able to find out
// which services are offered by servers... Servers describe the services
// they provide (the types and properties of their interfaces) and the
// locations of each interface. Clients describe the type and desired
// properties of services they want to use to a trader, which in turn
// supplies the client with references to suitable servers."
//
// Requirements realised here:
//
//   - offers are qualified with properties, matchable by constraints;
//   - "a client is only told of service offers which provide at least the
//     operations it requires" — matching is structural conformance
//     (delegated to the type manager, which may impose extra rules);
//   - federation: traders link to autonomous peer traders, forming an
//     arbitrary graph. Imports can traverse links; references returned
//     from a linked trader are qualified with the link's context so
//     context-relative naming keeps them resolvable (§6);
//   - offers may carry an activation hook via a resource manager
//     reference ("it must be possible to link offers to a resource
//     manager which can take whatever actions are required when the offer
//     is selected").
package trader

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/obs"
	"odp/internal/rpc"
	"odp/internal/types"
	"odp/internal/wire"
)

// Errors returned by the trader.
var (
	// ErrNoOffer reports that an import matched nothing.
	ErrNoOffer = errors.New("trader: no matching offer")
	// ErrUnknownOffer reports a withdraw of a non-existent offer.
	ErrUnknownOffer = errors.New("trader: unknown offer")
	// ErrBadConstraint reports an unparsable property constraint.
	ErrBadConstraint = errors.New("trader: bad constraint")
)

// Offer is one advertised service.
type Offer struct {
	// ID identifies the offer within its trader.
	ID string
	// ServiceType names the offered interface type (resolvable in the
	// trader's type manager). The full type is stored alongside so
	// federated imports can match structurally without sharing a manager.
	ServiceType string
	// Type is the full interface type of the offer.
	Type types.Type
	// Ref is the offered interface reference.
	Ref wire.Ref
	// Properties qualify the offer ("service offers can be qualified
	// with properties to distinguish them").
	Properties map[string]wire.Value
}

// ConstraintOp is a property-constraint operator.
type ConstraintOp string

// Constraint operators.
const (
	OpEq     ConstraintOp = "=="
	OpNe     ConstraintOp = "!="
	OpGe     ConstraintOp = ">="
	OpLe     ConstraintOp = "<="
	OpExists ConstraintOp = "exists"
)

// Constraint restricts matching offers by one property.
type Constraint struct {
	// Key is the property name.
	Key string
	// Op is the comparison operator.
	Op ConstraintOp
	// Value is the comparand (ignored for OpExists).
	Value wire.Value
}

// matches evaluates the constraint against an offer's properties.
func (c Constraint) matches(props map[string]wire.Value) (bool, error) {
	v, ok := props[c.Key]
	if c.Op == OpExists {
		return ok, nil
	}
	if !ok {
		return false, nil
	}
	switch c.Op {
	case OpEq:
		return wire.Equal(v, c.Value), nil
	case OpNe:
		return !wire.Equal(v, c.Value), nil
	case OpGe, OpLe:
		cmp, err := compareNumeric(v, c.Value)
		if err != nil {
			return false, err
		}
		if c.Op == OpGe {
			return cmp >= 0, nil
		}
		return cmp <= 0, nil
	default:
		return false, fmt.Errorf("%w: operator %q", ErrBadConstraint, c.Op)
	}
}

func compareNumeric(a, b wire.Value) (int, error) {
	af, aok := asFloat(a)
	bf, bok := asFloat(b)
	if !aok || !bok {
		return 0, fmt.Errorf("%w: non-numeric comparison %T vs %T", ErrBadConstraint, a, b)
	}
	switch {
	case af < bf:
		return -1, nil
	case af > bf:
		return 1, nil
	default:
		return 0, nil
	}
}

func asFloat(v wire.Value) (float64, bool) {
	switch t := v.(type) {
	case int64:
		return float64(t), true
	case uint64:
		return float64(t), true
	case float64:
		return t, true
	default:
		return 0, false
	}
}

// ImportSpec is a client's service requirement.
type ImportSpec struct {
	// Requirement is the interface type the client needs. Matching
	// offers must conform to it structurally.
	Requirement types.Type
	// Constraints restrict offer properties.
	Constraints []Constraint
	// MaxHops bounds federated link traversal (0 = local only).
	MaxHops int
	// MaxMatches bounds the result set (0 = unlimited).
	MaxMatches int

	// visited carries loop-avoidance state across federated hops.
	visited []string
}

// Trader is one trading context. The offer store is sharded by service
// type (see store.go): imports walk per-shard immutable snapshots with
// zero lock acquisitions, and writes touch only the shard they hash to.
type Trader struct {
	// stats is counted in place with atomic.AddUint64; first, so its
	// words are 64-bit aligned on 32-bit platforms too. Offers,
	// ShardOffers and SnapshotAgeMs are computed by Stats.
	stats TraderStats

	// contextName identifies this trader in context-relative names.
	contextName string
	typeManager *types.Manager
	cap         *capsule.Capsule
	clk         clock.Clock

	shards [NumShards]offerShard
	nextID atomic.Uint64

	// linkMu guards the federation links; imports only touch it when
	// spec.MaxHops > 0.
	linkMu sync.RWMutex
	links  map[string]wire.Ref // link name -> peer trader ref

	// fedQoS is the per-hop QoS base for federated imports. The timeout
	// is scaled by the remaining hop budget (see importRemote), so a hop
	// near the importer always outlives its downstream chain and one cut
	// peer at the far end cannot cascade timeouts up the whole path.
	fedQoS rpc.QoS

	// rmMu guards resourceManagers (offer id -> resource manager ref to
	// poke on selection, §6 "link offers to a resource manager").
	// rmCount keeps the common no-manager import path lock-free.
	rmMu             sync.RWMutex
	resourceManagers map[string]wire.Ref
	rmCount          atomic.Int64

	// importLat is the end-to-end import latency distribution, federated
	// hops included: how long service discovery takes from the client's
	// point of view.
	importLat obs.Histogram

	ref wire.Ref
}

// TraderStats counts offer-store events, shaped for obs.Fold: every
// field lands in Platform.Gather under "trader." (per-shard counts as
// trader.shard_offers.0 … trader.shard_offers.15).
type TraderStats struct {
	Offers           uint64 // live offers across all shards
	Advertises       uint64
	Withdraws        uint64
	Imports          uint64 // Import calls served
	ImportedOffers   uint64 // offers returned (post-constraint, pre-federation)
	SnapshotHits     uint64 // shard lookups served from a current snapshot
	SnapshotRebuilds uint64 // snapshot publications
	SnapshotAgeMs    uint64 // age of the oldest published shard snapshot
	ShardOffers      [NumShards]uint64
}

// TraderOption configures New.
type TraderOption func(*Trader)

// WithFederationQoS sets the per-hop QoS base for federated imports.
// Each hop's invocation deadline is q.Timeout scaled by the remaining
// hop budget, so an importer N links from the horizon waits out at most
// N+1 timeout units while every intermediate hop still outlives its
// downstream chain. The zero default keeps the platform's standard
// invocation timeout as the base.
func WithFederationQoS(q rpc.QoS) TraderOption {
	return func(t *Trader) {
		if q.Timeout > 0 {
			t.fedQoS.Timeout = q.Timeout
		}
		if q.Retransmit > 0 {
			t.fedQoS.Retransmit = q.Retransmit
		}
	}
}

// New creates a trader named contextName, hosted on c, using tm for type
// matching. The trader exports itself as an ODP interface.
func New(contextName string, c *capsule.Capsule, tm *types.Manager, opts ...TraderOption) (*Trader, error) {
	t := &Trader{
		contextName:      contextName,
		typeManager:      tm,
		cap:              c,
		clk:              c.Clock(),
		fedQoS:           rpc.QoS{Timeout: rpc.DefaultTimeout},
		links:            make(map[string]wire.Ref),
		resourceManagers: make(map[string]wire.Ref),
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.byID = make(map[string]*storedOffer)
		sh.buckets = make(map[string]*offerBucket)
	}
	for _, o := range opts {
		o(t)
	}
	ref, err := c.Export(capsule.ServantFunc(t.dispatch),
		capsule.WithID(c.Name()+"/trader"),
		capsule.WithType(Type))
	if err != nil {
		return nil, err
	}
	t.ref = ref
	return t, nil
}

// Ref returns the trader's own interface reference.
func (t *Trader) Ref() wire.Ref { return t.ref }

// ContextName returns the trader's federation context name.
func (t *Trader) ContextName() string { return t.contextName }

// Advertise registers an offer and returns its id.
func (t *Trader) Advertise(serviceType types.Type, ref wire.Ref, properties map[string]wire.Value) (string, error) {
	if serviceType.Name == "" {
		return "", fmt.Errorf("trader: offer needs a named type")
	}
	if err := t.typeManager.Register(serviceType); err != nil {
		return "", err
	}
	props := make(map[string]wire.Value, len(properties))
	for k, v := range properties {
		props[k] = wire.Clone(v)
	}
	id := t.contextName + "/offer-" + strconv.FormatUint(t.nextID.Add(1), 10)
	o := &Offer{
		ID:          id,
		ServiceType: serviceType.Name,
		Type:        serviceType, // replaced by the bucket's canonical clone on insert
		Ref:         wire.Clone(ref).(wire.Ref),
		Properties:  props,
	}
	t.shards[typeShard(serviceType.Name)].insert(o, serviceType.Signature())
	atomic.AddUint64(&t.stats.Advertises, 1)
	return id, nil
}

// AdvertiseOffer implements capsule.Advertiser using the trader's own
// type manager to resolve the named type.
func (t *Trader) AdvertiseOffer(serviceType string, ref wire.Ref, properties map[string]wire.Value) (string, error) {
	typ, err := t.typeManager.Lookup(serviceType)
	if err != nil {
		return "", err
	}
	return t.Advertise(typ, ref, properties)
}

// Withdraw removes an offer. The offer id does not carry its shard (ids
// are allocated before the type is hashed), so withdrawal probes the
// shards — 16 O(1) map lookups on a cold path.
func (t *Trader) Withdraw(offerID string) error {
	for i := range t.shards {
		if t.shards[i].remove(offerID) {
			atomic.AddUint64(&t.stats.Withdraws, 1)
			if t.rmCount.Load() > 0 {
				t.rmMu.Lock()
				if _, ok := t.resourceManagers[offerID]; ok {
					delete(t.resourceManagers, offerID)
					t.rmCount.Add(-1)
				}
				t.rmMu.Unlock()
			}
			return nil
		}
	}
	return fmt.Errorf("%w: %q", ErrUnknownOffer, offerID)
}

// WithdrawOffer implements capsule.Advertiser.
func (t *Trader) WithdrawOffer(offerID string) error { return t.Withdraw(offerID) }

// LinkTo federates this trader with a peer: imports may traverse the link
// and returned references are context-qualified with linkName.
func (t *Trader) LinkTo(linkName string, peer wire.Ref) {
	t.linkMu.Lock()
	t.links[linkName] = peer
	t.linkMu.Unlock()
}

// SetResourceManager attaches a resource manager to an offer. When the
// offer is selected by an import, the manager's "selected" announcement
// fires (activating a passive object, for example).
func (t *Trader) SetResourceManager(offerID string, rm wire.Ref) error {
	found := false
	for i := range t.shards {
		if t.shards[i].contains(offerID) {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrUnknownOffer, offerID)
	}
	t.rmMu.Lock()
	if _, ok := t.resourceManagers[offerID]; !ok {
		t.rmCount.Add(1)
	}
	t.resourceManagers[offerID] = rm
	t.rmMu.Unlock()
	return nil
}

// OfferCount returns the number of live offers.
func (t *Trader) OfferCount() int {
	var n int64
	for i := range t.shards {
		n += t.shards[i].count.Load()
	}
	return int(n)
}

// Stats returns a snapshot of the trader's counters.
func (t *Trader) Stats() TraderStats {
	st := obs.Load(&t.stats)
	now := t.clk.Now()
	var oldest time.Duration
	for i := range t.shards {
		n := t.shards[i].count.Load()
		st.ShardOffers[i] = uint64(n)
		st.Offers += uint64(n)
		if snap := t.shards[i].snap.Load(); snap != nil {
			if age := now.Sub(snap.builtAt); age > oldest {
				oldest = age
			}
		}
	}
	st.SnapshotAgeMs = uint64(oldest / time.Millisecond)
	return st
}

// ImportLatency snapshots the import latency histogram.
func (t *Trader) ImportLatency() obs.HistogramSnapshot {
	return t.importLat.Snapshot()
}

// lookup returns the read view of shard sh, strictly fresh: a current
// snapshot is served straight from the atomic pointer (the zero-lock hot
// path); the first read after a write pays a rebuild under the shard
// lock.
func (t *Trader) lookup(sh *offerShard) *shardSnapshot {
	v := sh.version.Load()
	if snap := sh.snap.Load(); snap != nil && snap.version == v {
		atomic.AddUint64(&t.stats.SnapshotHits, 1)
		return snap
	}
	atomic.AddUint64(&t.stats.SnapshotRebuilds, 1)
	return sh.rebuild(t.clk.Now())
}

// Import finds offers conforming to spec, searching linked traders up to
// spec.MaxHops away. Matching offers are returned in a stable canonical
// order — shard index, then (service type, signature), then offer id —
// so repeated imports over an unchanged store are byte-identical;
// references from linked traders carry the link's context.
//
// The local scan takes zero locks when every shard snapshot is current:
// each shard costs one atomic pointer load, structural matching runs
// once per (type, signature) group rather than once per offer, and
// offers are deep-cloned only until MaxMatches is satisfied.
func (t *Trader) Import(ctx context.Context, spec ImportSpec) ([]Offer, error) {
	for _, seen := range spec.visited {
		if seen == t.contextName {
			return nil, nil // loop: already searched here
		}
	}
	spec.visited = append(spec.visited, t.contextName)
	atomic.AddUint64(&t.stats.Imports, 1)
	began := t.clk.Now()
	defer func() { t.importLat.Observe(t.clk.Since(began)) }()

	var matched []Offer
scan:
	for i := range t.shards {
		snap := t.lookup(&t.shards[i])
		for _, g := range snap.groups {
			if err := t.typeManager.MatchTypes(spec.Requirement, g.typ); err != nil {
				continue
			}
			for _, offer := range g.offers {
				ok := true
				for _, c := range spec.Constraints {
					m, err := c.matches(offer.Properties)
					if err != nil {
						return nil, err
					}
					if !m {
						ok = false
						break
					}
				}
				if ok {
					matched = append(matched, cloneOffer(offer))
					if spec.MaxMatches > 0 && len(matched) >= spec.MaxMatches {
						break scan
					}
				}
			}
		}
	}
	atomic.AddUint64(&t.stats.ImportedOffers, uint64(len(matched)))

	// Poke resource managers for selected local offers. rmCount gates the
	// common no-manager case off the lock entirely.
	if t.rmCount.Load() > 0 {
		for _, o := range matched {
			t.rmMu.RLock()
			rm, ok := t.resourceManagers[o.ID]
			t.rmMu.RUnlock()
			if ok {
				_ = t.cap.Announce(rm, "selected", []wire.Value{o.Ref})
			}
		}
	}

	if spec.MaxHops > 0 && (spec.MaxMatches == 0 || len(matched) < spec.MaxMatches) {
		t.linkMu.RLock()
		links := make(map[string]wire.Ref, len(t.links))
		for name, ref := range t.links {
			links[name] = ref
		}
		t.linkMu.RUnlock()
		linkNames := make([]string, 0, len(links))
		for name := range links {
			linkNames = append(linkNames, name)
		}
		sort.Strings(linkNames)
		for _, name := range linkNames {
			remote, err := t.importRemote(ctx, links[name], spec)
			if err != nil {
				continue // an unreachable federation peer must not kill the import
			}
			for _, o := range remote {
				o.Ref = o.Ref.WithContext(name)
				o.ID = name + "!" + o.ID
				matched = append(matched, o)
			}
		}
	}
	if spec.MaxMatches > 0 && len(matched) > spec.MaxMatches {
		matched = matched[:spec.MaxMatches]
	}
	return matched, nil
}

func cloneOffer(o *Offer) Offer {
	props := make(map[string]wire.Value, len(o.Properties))
	for k, v := range o.Properties {
		props[k] = wire.Clone(v)
	}
	return Offer{
		ID:          o.ID,
		ServiceType: o.ServiceType,
		Type:        o.Type.Clone(),
		Ref:         wire.Clone(o.Ref).(wire.Ref),
		Properties:  props,
	}
}
