package trader

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"odp/internal/types"
)

// NumShards splits the offer space. Offers shard by FNV-1a over their
// service-type name (the same hash discipline as the rpc call tables):
// an import consults every shard, but all offers of one type land in one
// shard, so per-shard snapshots stay type-clustered and a type-indexed
// lookup never crosses a shard boundary. Power of two so the hash masks.
const NumShards = 16

// typeShard selects the stripe for a service-type name by FNV-1a.
func typeShard(name string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int(h & (NumShards - 1))
}

// offerBucket is the mutable per-(service type, signature) index within a
// shard. Register replaces types by name, so one service-type name can
// carry structurally different types over time; buckets subdivide by
// signature so each holds exactly one structural variant and an import
// matches the variant once instead of once per offer. The canonical type
// is cloned exactly once per bucket — a million offers of one type share
// one clone instead of carrying a million.
type offerBucket struct {
	serviceType string
	sig         string
	typ         types.Type
	offers      map[string]*Offer

	// group caches the immutable snapshot group built from this bucket;
	// dirty marks it stale. A rebuild reuses every clean group untouched,
	// so snapshot cost is proportional to what changed, not store size.
	// added/removed record the delta since group was built: a dirty
	// rebuild merges the sorted delta into the sorted base instead of
	// re-sorting the whole bucket, so churning one offer in a
	// 100k-offer bucket costs a linear copy, not an n·log n sort.
	group   *snapGroup
	dirty   bool
	added   []*Offer
	removed map[string]struct{}
}

// snapGroup is one immutable (service type, signature) run of a shard
// snapshot: offers sorted by id, never mutated after publication.
type snapGroup struct {
	serviceType string
	sig         string
	typ         types.Type
	offers      []*Offer
}

// shardSnapshot is the RCU-published read view of one shard. Readers
// load it with a single atomic pointer load and walk it without locks;
// writers never mutate a published snapshot, they publish a successor.
type shardSnapshot struct {
	version uint64
	builtAt time.Time
	groups  []*snapGroup
}

// offerShard is one stripe of the sharded store. version counts
// mutations; a snapshot whose version matches is exactly current, and
// any other is rebuilt before it is read.
type offerShard struct {
	mu      sync.Mutex
	byID    map[string]*storedOffer
	buckets map[string]*offerBucket // key: serviceType + "\x00" + sig

	version atomic.Uint64
	count   atomic.Int64
	snap    atomic.Pointer[shardSnapshot]
}

// storedOffer pairs an offer with its bucket so withdrawal needs no
// second lookup of the type index.
type storedOffer struct {
	offer  *Offer
	bucket *offerBucket
}

func bucketKey(serviceType, sig string) string {
	return serviceType + "\x00" + sig
}

// insert registers o (whose type has signature sig) in the shard.
func (sh *offerShard) insert(o *Offer, sig string) {
	sh.mu.Lock()
	key := bucketKey(o.ServiceType, sig)
	b := sh.buckets[key]
	if b == nil {
		b = &offerBucket{
			serviceType: o.ServiceType,
			sig:         sig,
			typ:         o.Type.Clone(), // canonical: shared by every offer in the bucket
			offers:      make(map[string]*Offer),
		}
		sh.buckets[key] = b
	}
	// Intern the type: the stored offer references the bucket's canonical
	// clone; cloneOffer deep-copies on the way out, so sharing is safe.
	o.Type = b.typ
	b.offers[o.ID] = o
	b.dirty = true
	if b.group != nil {
		b.added = append(b.added, o)
	}
	sh.byID[o.ID] = &storedOffer{offer: o, bucket: b}
	sh.version.Add(1)
	sh.count.Add(1)
	sh.mu.Unlock()
}

// remove withdraws id from the shard, reporting whether it was present.
func (sh *offerShard) remove(id string) bool {
	sh.mu.Lock()
	so, ok := sh.byID[id]
	if !ok {
		sh.mu.Unlock()
		return false
	}
	delete(sh.byID, id)
	b := so.bucket
	delete(b.offers, id)
	b.dirty = true
	if b.group != nil {
		// If the offer arrived after the last build it only exists in the
		// pending delta; otherwise the base copy must be masked out.
		inAdded := false
		for i, o := range b.added {
			if o.ID == id {
				b.added = append(b.added[:i], b.added[i+1:]...)
				inAdded = true
				break
			}
		}
		if !inAdded {
			if b.removed == nil {
				b.removed = make(map[string]struct{})
			}
			b.removed[id] = struct{}{}
		}
	}
	if len(b.offers) == 0 {
		delete(sh.buckets, bucketKey(b.serviceType, b.sig))
	}
	sh.version.Add(1)
	sh.count.Add(-1)
	sh.mu.Unlock()
	return true
}

// contains reports whether id is stored in the shard.
func (sh *offerShard) contains(id string) bool {
	sh.mu.Lock()
	_, ok := sh.byID[id]
	sh.mu.Unlock()
	return ok
}

// rebuild publishes a snapshot current as of the shard version at entry,
// reusing the cached group of every bucket untouched since the last
// build. Double-checked: a racing reader that rebuilt first wins and
// this call returns its snapshot without repeating the work.
func (sh *offerShard) rebuild(now time.Time) *shardSnapshot {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v := sh.version.Load()
	if snap := sh.snap.Load(); snap != nil && snap.version == v {
		return snap
	}
	groups := make([]*snapGroup, 0, len(sh.buckets))
	for _, b := range sh.buckets {
		if b.dirty || b.group == nil {
			g := &snapGroup{serviceType: b.serviceType, sig: b.sig, typ: b.typ}
			if b.group == nil {
				// First build: sort the whole bucket.
				ids := make([]string, 0, len(b.offers))
				for id := range b.offers {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				g.offers = make([]*Offer, len(ids))
				for i, id := range ids {
					g.offers[i] = b.offers[id]
				}
			} else {
				// Incremental: merge the sorted delta into the sorted
				// base, masking removals — linear in bucket size.
				sort.Slice(b.added, func(i, j int) bool { return b.added[i].ID < b.added[j].ID })
				g.offers = make([]*Offer, 0, len(b.offers))
				base, add := b.group.offers, b.added
				for len(base) > 0 || len(add) > 0 {
					switch {
					case len(base) == 0 || (len(add) > 0 && add[0].ID < base[0].ID):
						g.offers = append(g.offers, add[0])
						add = add[1:]
					default:
						if _, gone := b.removed[base[0].ID]; !gone {
							g.offers = append(g.offers, base[0])
						}
						base = base[1:]
					}
				}
			}
			b.group = g
			b.added = nil
			b.removed = nil
			b.dirty = false
		}
		groups = append(groups, b.group)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].serviceType != groups[j].serviceType {
			return groups[i].serviceType < groups[j].serviceType
		}
		return groups[i].sig < groups[j].sig
	})
	snap := &shardSnapshot{version: v, builtAt: now, groups: groups}
	sh.snap.Store(snap)
	return snap
}
