// Package group implements replication transparency via object groups
// (§5.3).
//
// "All of these forms of redundancy place a requirement for a client to
// be able to transparently invoke a group of replicas of a service — the
// client sees the replicated group as if it were a singleton, but with
// increased reliability or availability. To provide such a consistent
// view, the group must arrange that all the members process invocations
// from clients in the same order... Between the members of the group
// there must be some sort of ordering protocol to agree when received
// invocations can be dispatched. This ordering protocol should be
// tolerant of failures in members of the group and of changes of
// membership of the group."
//
// The ordering protocol here is sequencer-based: the first member of the
// current view assigns sequence numbers and multicasts each invocation to
// the other members before executing and replying. Views change when the
// sequencer expels an unresponsive member or when the first backup stops
// hearing sequencer heartbeats and promotes itself. Two replication
// policies share the machinery, exactly as §5.3 describes ("such a basic
// group execution mechanism provides the foundation on which more
// specific replication facilities can be provided"):
//
//   - ModeActive: every member executes every invocation eagerly, so
//     there is no fail-over period;
//   - ModeStandby: only the sequencer (primary) executes; backups log
//     invocations and replay them on promotion (hot standby, with a
//     fail-over gap).
package group

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/rpc"
	"odp/internal/wire"
)

// Mode selects the replication policy.
type Mode int

// Replication policies.
const (
	// ModeActive executes on every member as invocations are ordered.
	ModeActive Mode = iota + 1
	// ModeStandby executes on the sequencer only; backups log and replay
	// on promotion.
	ModeStandby
)

// Snapshotter is implemented by replicas that support state transfer by
// snapshot; otherwise joiners receive the full invocation log.
type Snapshotter interface {
	// Snapshot serialises the replica state.
	Snapshot() ([]byte, error)
	// Restore replaces the replica state from a snapshot.
	Restore(data []byte) error
}

// Errors returned by group members.
var (
	// ErrNotSequencer redirects callers to the current sequencer.
	ErrNotSequencer = errors.New("group: not the sequencer")
	// ErrStopped reports use of a stopped member.
	ErrStopped = errors.New("group: member stopped")
)

// memberInfo describes one member in a view.
type memberInfo struct {
	id   string // member identifier (unique, stable)
	addr string // transport address of the member's capsule
}

// view is one membership epoch. members[0] is the sequencer.
type view struct {
	id      uint64
	members []memberInfo
}

func (v view) clone() view {
	return view{id: v.id, members: append([]memberInfo(nil), v.members...)}
}

func (v view) sequencer() memberInfo {
	return v.members[0]
}

func (v view) rankOf(id string) int {
	for i, m := range v.members {
		if m.id == id {
			return i
		}
	}
	return -1
}

// orderedInv is one invocation with its agreed position.
type orderedInv struct {
	seq  uint64
	op   string
	args []wire.Value
}

// Config configures a member.
type Config struct {
	// GroupID names the group; the exported object id is "grp/"+GroupID
	// on every member, so a single reference with many endpoints denotes
	// the whole group.
	GroupID string
	// Mode is the replication policy (default ModeActive).
	Mode Mode
	// HeartbeatInterval is the sequencer's heartbeat period (default
	// 50ms).
	HeartbeatInterval time.Duration
	// FailureTimeout is how long without a heartbeat before the first
	// backup promotes itself, and how long a deliver may stall before the
	// sequencer expels a backup (default 4×HeartbeatInterval).
	FailureTimeout time.Duration
	// DeliverTimeout bounds one deliver interrogation (default
	// FailureTimeout).
	DeliverTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = ModeActive
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.FailureTimeout <= 0 {
		c.FailureTimeout = 4 * c.HeartbeatInterval
	}
	if c.DeliverTimeout <= 0 {
		c.DeliverTimeout = c.FailureTimeout
	}
	return c
}

// Member is one replica's group machinery.
type Member struct {
	cfg     Config
	cap     *capsule.Capsule
	clk     clock.Clock // the capsule's: heartbeats, failure detection, ordering wakeups
	replica capsule.Servant
	id      string
	objID   string

	mu        sync.Mutex
	v         view
	nextSeq   uint64 // last sequence number assigned (sequencer only)
	nextExec  uint64 // next sequence number to execute/log
	holdback  map[uint64]orderedInv
	log       []orderedInv // every ordered invocation, for transfer/replay
	executed  uint64       // count of locally executed invocations
	promoted  uint64       // count of self-promotions
	lastHeard time.Time
	stopped   bool
	started   bool
	order     *orderState

	stop        chan struct{}
	done        chan struct{}
	applierDone chan struct{}
}

// NewMember creates (but does not start) group machinery for replica on
// c. Call Bootstrap to found a new group or Join to enter an existing
// one, then Start to begin failure detection.
func NewMember(c *capsule.Capsule, replica capsule.Servant, cfg Config) (*Member, error) {
	cfg = cfg.withDefaults()
	if cfg.GroupID == "" {
		return nil, errors.New("group: GroupID required")
	}
	m := &Member{
		cfg:         cfg,
		cap:         c,
		clk:         c.Clock(),
		replica:     replica,
		id:          c.Name(),
		objID:       "grp/" + cfg.GroupID,
		nextExec:    1, // sequence numbers start at 1
		holdback:    make(map[uint64]orderedInv),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		applierDone: make(chan struct{}),
	}
	m.mu.Lock()
	m.ensureOrderState()
	m.mu.Unlock()
	if _, err := c.Export(capsule.ServantFunc(m.dispatch), capsule.WithID(m.objID)); err != nil {
		return nil, err
	}
	return m, nil
}

// ID returns the member's identifier.
func (m *Member) ID() string { return m.id }

// GroupRef returns a reference denoting the whole group in its current
// view: one object id, one endpoint per member, sequencer first. Clients
// invoke it like any singleton interface.
func (m *Member) GroupRef() wire.Ref {
	m.mu.Lock()
	defer m.mu.Unlock()
	eps := make([]string, len(m.v.members))
	for i, mi := range m.v.members {
		eps[i] = mi.addr
	}
	return wire.Ref{ID: m.objID, Endpoints: eps, Epoch: uint32(m.v.id)}
}

// Bootstrap founds a new group with this member as sole member and
// sequencer.
func (m *Member) Bootstrap() {
	m.mu.Lock()
	m.v = view{id: 1, members: []memberInfo{{id: m.id, addr: m.cap.Addr()}}}
	m.lastHeard = m.clk.Now()
	m.mu.Unlock()
}

// Start launches the ordered applier and the failure-detection loop.
// Stop must be called.
func (m *Member) Start() {
	m.mu.Lock()
	if m.started || m.stopped {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go m.failureLoop()
	go func() {
		defer close(m.applierDone)
		m.applier()
	}()
}

// Stop halts the member's background machinery and waits for it.
func (m *Member) Stop() {
	m.mu.Lock()
	if m.stopped {
		started := m.started
		m.mu.Unlock()
		if started {
			<-m.done
			<-m.applierDone
		}
		return
	}
	m.stopped = true
	started := m.started
	close(m.stop)
	if m.order != nil {
		m.order.cond.Broadcast()
	}
	m.mu.Unlock()
	if started {
		<-m.done
		<-m.applierDone
	}
}

// IsSequencer reports whether this member currently leads the view.
func (m *Member) IsSequencer() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.v.members) > 0 && m.v.sequencer().id == m.id
}

// View returns (view id, member ids) for inspection.
func (m *Member) View() (uint64, []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, len(m.v.members))
	for i, mi := range m.v.members {
		ids[i] = mi.id
	}
	return m.v.id, ids
}

// Executed returns how many invocations this member has applied to its
// replica.
func (m *Member) Executed() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.executed
}

// Promotions returns how many times this member promoted itself to
// sequencer.
func (m *Member) Promotions() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.promoted
}

// encode/decode helpers for group control payloads.

func encodeView(v view) wire.Record {
	members := make(wire.List, len(v.members))
	for i, mi := range v.members {
		members[i] = wire.Record{"id": mi.id, "addr": mi.addr}
	}
	return wire.Record{"id": uint64(v.id), "members": members}
}

func decodeView(val wire.Value) (view, error) {
	rec, ok := val.(wire.Record)
	if !ok {
		return view{}, fmt.Errorf("group: view is %T", val)
	}
	id, _ := rec["id"].(uint64)
	list, ok := rec["members"].(wire.List)
	if !ok {
		return view{}, errors.New("group: view lacks members")
	}
	v := view{id: id, members: make([]memberInfo, 0, len(list))}
	for _, e := range list {
		mr, ok := e.(wire.Record)
		if !ok {
			return view{}, fmt.Errorf("group: member is %T", e)
		}
		mid, _ := mr["id"].(string)
		addr, _ := mr["addr"].(string)
		v.members = append(v.members, memberInfo{id: mid, addr: addr})
	}
	return v, nil
}

func encodeInv(inv orderedInv) (wire.Record, error) {
	return wire.Record{
		"seq":  inv.seq,
		"op":   inv.op,
		"args": wire.List(inv.args),
	}, nil
}

func decodeInv(val wire.Value) (orderedInv, error) {
	rec, ok := val.(wire.Record)
	if !ok {
		return orderedInv{}, fmt.Errorf("group: invocation is %T", val)
	}
	seq, _ := rec["seq"].(uint64)
	op, _ := rec["op"].(string)
	args, _ := rec["args"].(wire.List)
	return orderedInv{seq: seq, op: op, args: args}, nil
}

// sortedMemberAddrs returns the non-self member addresses of v.
func (m *Member) peersLocked() []memberInfo {
	peers := make([]memberInfo, 0, len(m.v.members))
	for _, mi := range m.v.members {
		if mi.id != m.id {
			peers = append(peers, mi)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].id < peers[j].id })
	return peers
}

// call invokes a group-control operation on a peer member.
func (m *Member) call(ctx context.Context, addr, op string, args []wire.Value, timeout time.Duration) (string, []wire.Value, error) {
	ref := wire.Ref{ID: m.objID, Endpoints: []string{addr}}
	return m.cap.Invoke(ctx, ref, op, args,
		capsule.WithQoS(rpc.QoS{Timeout: timeout}), capsule.ForceRemote())
}
