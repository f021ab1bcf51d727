package group

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"odp/internal/capsule"
	"odp/internal/rpc"
	"odp/internal/wire"
)

// failureLoop is the member's background heartbeat machinery:
//
//   - the sequencer heartbeats every backup each HeartbeatInterval and
//     expels backups that stay silent past FailureTimeout;
//   - backups watch for sequencer heartbeats; the backup at rank r
//     promotes itself after r × FailureTimeout of silence (staggered, so
//     the first live backup wins).
func (m *Member) failureLoop() {
	defer close(m.done)
	// Pace passes with a one-shot timer re-armed after each pass, not a
	// free-running ticker: a detection pass over a large view — or one
	// where silent members each cost a full call timeout — can outlast
	// the interval, and a saturated ticker drops ticks depending on how
	// promptly this goroutine drains the channel. That makes the pass
	// cadence a function of real scheduling latency, which a
	// deterministic simulation must never feel. Interval-after-pass
	// pacing keeps every pass instant a pure function of virtual time.
	timer := m.cfg.Clock.NewTimer(m.cfg.HeartbeatInterval)
	defer func() { timer.Stop() }()
	missed := make(map[string]time.Time) // backup id -> silent since
	for {
		select {
		case <-m.stop:
			return
		case <-timer.C():
		}
		timer = m.cfg.Clock.NewTimer(m.detectionPass(missed))
	}
}

// detectionPass runs one iteration of the failure detector — the
// sequencer heartbeats its backups, a backup checks its own promotion
// window — and returns how long to wait before the next pass. The
// sequencer keeps the heartbeat cadence; a backup's only deadline is its
// promotion instant, so it wakes no more often than FailureTimeout/4
// (bounded staleness for view changes that move the deadline closer)
// and no later than the deadline itself. In a swarm simulation the
// difference is thousands of idle backup polls that never become
// distinct virtual instants.
func (m *Member) detectionPass(missed map[string]time.Time) time.Duration {
	m.mu.Lock()
	if m.stopped || len(m.v.members) == 0 {
		m.mu.Unlock()
		return m.cfg.HeartbeatInterval
	}
	isSequencer := m.v.sequencer().id == m.id
	rank := m.v.rankOf(m.id)
	viewID := m.v.id
	peers := m.peersLocked()
	silent := m.cfg.Clock.Since(m.lastHeard)
	m.mu.Unlock()

	if isSequencer {
		m.heartbeatPeers(peers, viewID, missed)
		return m.cfg.HeartbeatInterval
	}
	if rank > 0 && silent > time.Duration(rank)*m.cfg.FailureTimeout {
		m.promote()
		return m.cfg.HeartbeatInterval
	}
	next := m.cfg.FailureTimeout / 4
	if rank > 0 {
		if remaining := time.Duration(rank)*m.cfg.FailureTimeout - silent; remaining < next {
			next = remaining
		}
	}
	if next < m.cfg.HeartbeatInterval {
		next = m.cfg.HeartbeatInterval
	}
	return next
}

// heartbeatPeers pings every backup concurrently, then expels those
// silent too long. The fan-out matters twice over: a sequential pass
// over a large view takes len(peers) round-trips — longer than the
// heartbeat interval itself once the view grows — and a single silent
// member would stall the whole pass for its call timeout, starving the
// healthy majority of liveness evidence. Concurrently, a pass costs one
// round-trip (one call timeout worst case) regardless of view size.
// Results are judged in view order after the pass completes, so expel
// order stays deterministic.
func (m *Member) heartbeatPeers(peers []memberInfo, viewID uint64, missed map[string]time.Time) {
	alive := make([]bool, len(peers))
	timeout := m.cfg.HeartbeatInterval * 2
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			// No retransmission within the call: the next pass is the
			// retransmit, and a duplicate ping buys nothing a fresh one
			// doesn't. During a partition every suppressed resend is also
			// one fewer timer-paced send into the void, which keeps the
			// detector's virtual-time schedule as sparse as possible.
			ref := wire.Ref{ID: m.objID, Endpoints: []string{addr}}
			_, _, err := m.cap.Invoke(context.Background(), ref, opHeartbeat,
				[]wire.Value{viewID},
				capsule.WithQoS(rpc.QoS{Timeout: timeout, Retransmit: 2 * timeout}),
				capsule.ForceRemote())
			alive[i] = err == nil
		}(i, p.addr)
	}
	wg.Wait()
	for i, p := range peers {
		if alive[i] {
			delete(missed, p.id)
			continue
		}
		since, ok := missed[p.id]
		if !ok {
			missed[p.id] = m.cfg.Clock.Now()
			continue
		}
		if m.cfg.Clock.Since(since) > m.cfg.FailureTimeout {
			delete(missed, p.id)
			m.expel(p.id)
		}
	}
}

// onHeartbeat records liveness of the sequencer.
func (m *Member) onHeartbeat(args []wire.Value) (string, []wire.Value, error) {
	if len(args) != 1 {
		return "", nil, errors.New("group: heartbeat wants (viewID)")
	}
	viewID, _ := args[0].(uint64)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return "", nil, ErrStopped
	}
	if viewID >= m.v.id {
		m.lastHeard = m.cfg.Clock.Now()
	}
	return "ok", []wire.Value{m.v.id}, nil
}

// expel removes a dead member and installs/multicasts the successor view.
func (m *Member) expel(deadID string) {
	m.mu.Lock()
	if m.stopped || m.v.rankOf(deadID) < 0 || m.v.sequencer().id != m.id {
		m.mu.Unlock()
		return
	}
	next := view{id: m.v.id + 1}
	for _, mi := range m.v.members {
		if mi.id != deadID {
			next.members = append(next.members, mi)
		}
	}
	m.v = next
	peers := m.peersLocked()
	m.order.cond.Broadcast()
	m.mu.Unlock()
	m.multicastView(next, peers)
}

// promote makes this member the sequencer of a successor view that
// excludes the (presumed dead) old sequencer and any members ranked
// between it and us.
func (m *Member) promote() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.ensureOrderState()
	rank := m.v.rankOf(m.id)
	if rank <= 0 {
		m.mu.Unlock()
		return
	}
	next := view{id: m.v.id + 1}
	// Everyone ranked before us stayed silent past their own (shorter)
	// promotion window, so they are presumed dead too.
	next.members = append(next.members, memberInfo{id: m.id, addr: m.cap.Addr()})
	for _, mi := range m.v.members[rank+1:] {
		next.members = append(next.members, mi)
	}
	m.v = next
	m.promoted++
	m.lastHeard = m.cfg.Clock.Now()

	// A hot-standby backup must bring its replica up to date before
	// serving (this replay is the "fail-over period" active replication
	// avoids, experiment E6).
	if m.cfg.Mode == ModeStandby {
		m.replayLocked()
	}
	// Continue the numbering after everything we have logged; drop
	// holdback entries we cannot order any more (their clients will
	// retry against the new view).
	m.nextSeq = m.nextExec - 1
	for seq := range m.holdback {
		if seq >= m.nextExec {
			delete(m.holdback, seq)
		}
	}
	peers := m.peersLocked()
	m.order.cond.Broadcast()
	m.mu.Unlock()
	m.multicastView(next, peers)
}

// replayLocked applies logged-but-unexecuted invocations to the replica.
// Called with m.mu held.
func (m *Member) replayLocked() {
	for _, inv := range m.log {
		if inv.seq <= m.order.applied {
			continue
		}
		_, _, _ = m.replica.Dispatch(context.Background(), inv.op, inv.args)
		m.executed++
		m.order.applied = inv.seq
	}
}

// multicastView announces a new view to its members.
func (m *Member) multicastView(v view, peers []memberInfo) {
	rec := encodeView(v)
	for _, p := range peers {
		go func(p memberInfo) {
			_, _, _ = m.call(context.Background(), p.addr, opView, []wire.Value{rec}, m.cfg.DeliverTimeout)
		}(p)
	}
}

// onView installs a newer view.
func (m *Member) onView(args []wire.Value) (string, []wire.Value, error) {
	if len(args) != 1 {
		return "", nil, errors.New("group: view wants (view)")
	}
	v, err := decodeView(args[0])
	if err != nil {
		return "", nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ensureOrderState()
	if m.stopped {
		return "", nil, ErrStopped
	}
	if v.id <= m.v.id {
		return "ok", nil, nil // stale announcement
	}
	m.v = v
	m.lastHeard = m.cfg.Clock.Now()
	m.order.cond.Broadcast()
	return "ok", nil, nil
}

// Join enters an existing group through any current member (seed). The
// sequencer transfers state (snapshot when the replica supports it, full
// log otherwise) and adds this member to a new view.
func (m *Member) Join(ctx context.Context, seed wire.Ref) error {
	info := wire.Record{"id": m.id, "addr": m.cap.Addr()}
	var (
		outcome string
		results []wire.Value
		err     error
	)
	// Any member redirects to the sequencer via MovedError; capsule
	// invoke follows it.
	for _, ep := range seed.Endpoints {
		outcome, results, err = m.call(ctx, ep, opJoin, []wire.Value{info}, m.cfg.DeliverTimeout*4)
		if err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("group: join: %w", err)
	}
	if outcome != "ok" || len(results) != 3 {
		return fmt.Errorf("group: join refused: %q %v", outcome, results)
	}
	v, err := decodeView(results[0])
	if err != nil {
		return err
	}
	nextExec, _ := results[2].(uint64)

	m.mu.Lock()
	defer m.mu.Unlock()
	m.ensureOrderState()
	switch state := results[1].(type) {
	case []byte:
		snap, ok := m.replica.(Snapshotter)
		if !ok {
			return errors.New("group: received snapshot but replica cannot restore")
		}
		if err := snap.Restore(state); err != nil {
			return fmt.Errorf("group: restore: %w", err)
		}
	case wire.List:
		for _, lv := range state {
			inv, err := decodeInv(lv)
			if err != nil {
				return err
			}
			m.log = append(m.log, inv)
			if m.cfg.Mode == ModeActive {
				_, _, _ = m.replica.Dispatch(context.Background(), inv.op, inv.args)
				m.executed++
				m.order.applied = inv.seq
			}
		}
	default:
		return fmt.Errorf("group: join state is %T", results[1])
	}
	m.v = v
	m.nextExec = nextExec
	m.nextSeq = nextExec - 1
	if nextExec > 0 && m.order.applied < nextExec-1 {
		// Snapshot transfer: state reflects everything before nextExec.
		m.order.applied = nextExec - 1
	}
	m.lastHeard = m.cfg.Clock.Now()
	m.order.cond.Broadcast()
	return nil
}

// onJoin handles a join request at the sequencer.
func (m *Member) onJoin(_ context.Context, args []wire.Value) (string, []wire.Value, error) {
	if len(args) != 1 {
		return "", nil, errors.New("group: join wants (member)")
	}
	rec, ok := args[0].(wire.Record)
	if !ok {
		return "", nil, fmt.Errorf("group: join wants a member record, got %T", args[0])
	}
	id, _ := rec["id"].(string)
	addr, _ := rec["addr"].(string)
	if id == "" || addr == "" {
		return "", nil, errors.New("group: join record incomplete")
	}

	m.mu.Lock()
	m.ensureOrderState()
	if m.stopped {
		m.mu.Unlock()
		return "", nil, ErrStopped
	}
	if len(m.v.members) == 0 || m.v.sequencer().id != m.id {
		var fwd wire.Ref
		if len(m.v.members) > 0 {
			fwd = wire.Ref{ID: m.objID, Endpoints: []string{m.v.sequencer().addr}}
		}
		m.mu.Unlock()
		if fwd.IsZero() {
			return "", nil, errors.New("group: no view")
		}
		return "", nil, &rpc.MovedError{Forward: fwd}
	}
	// Quiesce: wait for in-flight ordered invocations to apply so the
	// transferred state is exactly the prefix [1, nextExec).
	for m.nextExec <= m.nextSeq {
		if m.stopped {
			m.mu.Unlock()
			return "", nil, ErrStopped
		}
		m.waitOrder()
	}
	var state wire.Value
	if snap, ok := m.replica.(Snapshotter); ok {
		data, err := snap.Snapshot()
		if err != nil {
			m.mu.Unlock()
			return "", nil, fmt.Errorf("group: snapshot: %w", err)
		}
		state = data
	} else {
		list := make(wire.List, 0, len(m.log))
		for _, inv := range m.log {
			r, _ := encodeInv(inv)
			list = append(list, r)
		}
		state = list
	}
	if m.v.rankOf(id) < 0 {
		next := m.v.clone()
		next.id++
		next.members = append(next.members, memberInfo{id: id, addr: addr})
		m.v = next
	}
	v := m.v.clone()
	nextExec := m.nextExec
	peers := m.peersLocked()
	m.mu.Unlock()

	// Tell the existing members about the enlarged view (the joiner gets
	// it in the reply).
	var others []memberInfo
	for _, p := range peers {
		if p.id != id {
			others = append(others, p)
		}
	}
	m.multicastView(v, others)
	return "ok", []wire.Value{encodeView(v), state, nextExec}, nil
}
