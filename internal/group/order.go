package group

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"odp/internal/rpc"
	"odp/internal/wire"
)

// Control operations are prefixed so they cannot collide with application
// operations on the replica.
const (
	opDeliver   = "g!deliver"
	opView      = "g!view"
	opHeartbeat = "g!heartbeat"
	opJoin      = "g!join"
	opFetch     = "g!fetch"
)

// pendingResult carries the local execution result of one sequenced
// invocation back to the waiting client handler on the sequencer.
type pendingResult struct {
	outcome string
	results []wire.Value
	err     error
}

// orderState is initialised lazily by ensureOrderState; kept separate so
// Member's zero fields stay meaningful.
type orderState struct {
	cond      *sync.Cond
	resultChs map[uint64]chan pendingResult
	applied   uint64 // seq of the last invocation applied to the replica
}

func (m *Member) ensureOrderState() {
	if m.order == nil {
		m.order = &orderState{
			cond:      sync.NewCond(&m.mu),
			resultChs: make(map[uint64]chan pendingResult),
		}
	}
}

// dispatch is the member's exported servant: group-control operations are
// handled by the machinery, everything else is an application invocation
// to be ordered.
func (m *Member) dispatch(ctx context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	if strings.HasPrefix(op, "g!") {
		switch op {
		case opDeliver:
			return m.onDeliver(args)
		case opView:
			return m.onView(args)
		case opHeartbeat:
			return m.onHeartbeat(args)
		case opJoin:
			return m.onJoin(ctx, args)
		case opFetch:
			return m.onFetch(args)
		default:
			return "", nil, fmt.Errorf("group: unknown control op %q", op)
		}
	}
	return m.invokeApp(ctx, op, args)
}

// invokeApp is the client-facing invocation path. Only the sequencer
// orders invocations; other members redirect.
func (m *Member) invokeApp(ctx context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	m.mu.Lock()
	m.ensureOrderState()
	if m.stopped {
		m.mu.Unlock()
		return "", nil, ErrStopped
	}
	if len(m.v.members) == 0 {
		m.mu.Unlock()
		return "", nil, errors.New("group: member has no view (not bootstrapped or joined)")
	}
	if m.v.sequencer().id != m.id {
		fwd := wire.Ref{ID: m.objID, Endpoints: []string{m.v.sequencer().addr}, Epoch: uint32(m.v.id)}
		m.mu.Unlock()
		return "", nil, &rpc.MovedError{Forward: fwd}
	}
	seq := m.nextSeq + 1
	m.nextSeq = seq
	// The ordered log outlives this dispatch; op does not (see
	// capsule.Servant).
	inv := orderedInv{seq: seq, op: strings.Clone(op), args: args}
	viewID := m.v.id
	peers := m.peersLocked()
	m.mu.Unlock()

	// Multicast to all backups before executing locally, so an ordered
	// invocation survives the sequencer.
	m.multicastDeliver(ctx, inv, peers, viewID)

	// Queue for local ordered execution and wait for the result. An
	// expulsion may have advanced the view id meanwhile — that is fine as
	// long as we are still the sequencer: the assigned sequence number
	// must be applied either way, or the ordering would have a permanent
	// hole.
	ch := make(chan pendingResult, 1)
	m.mu.Lock()
	if len(m.v.members) == 0 || m.v.sequencer().id != m.id {
		m.mu.Unlock()
		return "", nil, fmt.Errorf("group: leadership lost during invocation")
	}
	m.holdback[seq] = inv
	m.order.resultChs[seq] = ch
	m.order.cond.Broadcast()
	m.mu.Unlock()

	select {
	case res := <-ch:
		return res.outcome, res.results, res.err
	case <-ctx.Done():
		return "", nil, ctx.Err()
	case <-m.stop:
		return "", nil, ErrStopped
	}
}

// multicastDeliver pushes one ordered invocation to each peer, expelling
// peers that do not acknowledge in time.
func (m *Member) multicastDeliver(ctx context.Context, inv orderedInv, peers []memberInfo, viewID uint64) {
	if len(peers) == 0 {
		return
	}
	rec, _ := encodeInv(inv)
	var wg sync.WaitGroup
	failed := make([]bool, len(peers))
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p memberInfo) {
			defer wg.Done()
			_, _, err := m.call(ctx, p.addr, opDeliver,
				[]wire.Value{rec, viewID}, m.cfg.DeliverTimeout)
			if err != nil {
				failed[i] = true
			}
		}(i, p)
	}
	wg.Wait()
	for i, f := range failed {
		if f {
			m.expel(peers[i].id)
		}
	}
}

// onDeliver receives an ordered invocation from the sequencer.
func (m *Member) onDeliver(args []wire.Value) (string, []wire.Value, error) {
	if len(args) != 2 {
		return "", nil, errors.New("group: deliver wants (inv, viewID)")
	}
	inv, err := decodeInv(args[0])
	if err != nil {
		return "", nil, err
	}
	viewID, _ := args[1].(uint64)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ensureOrderState()
	if m.stopped {
		return "", nil, ErrStopped
	}
	if viewID < m.v.id {
		return "", nil, fmt.Errorf("group: deliver from stale view %d (now %d)", viewID, m.v.id)
	}
	m.lastHeard = m.clk.Now()
	if inv.seq >= m.nextExec {
		if _, dup := m.holdback[inv.seq]; !dup {
			m.holdback[inv.seq] = inv
			m.order.cond.Broadcast()
		}
	}
	return "ok", nil, nil
}

// onFetch serves missing log entries to a member filling a gap.
func (m *Member) onFetch(args []wire.Value) (string, []wire.Value, error) {
	if len(args) != 2 {
		return "", nil, errors.New("group: fetch wants (from, to)")
	}
	from, _ := args[0].(uint64)
	to, _ := args[1].(uint64)
	m.mu.Lock()
	defer m.mu.Unlock()
	var out wire.List
	for _, inv := range m.log {
		if inv.seq >= from && inv.seq <= to {
			rec, _ := encodeInv(inv)
			out = append(out, rec)
		}
	}
	return "ok", []wire.Value{out}, nil
}

// applier is the single ordered executor: it pops holdback entries in
// sequence order, executing (or, for a standby backup, logging) each.
func (m *Member) applier() {
	m.mu.Lock()
	m.ensureOrderState()
	for {
		if m.stopped {
			m.mu.Unlock()
			return
		}
		inv, ok := m.holdback[m.nextExec]
		if !ok {
			// Nothing ready. If a later entry is held back, we have a
			// gap: fill it from the sequencer after a grace period.
			gap := false
			for seq := range m.holdback {
				if seq > m.nextExec {
					gap = true
					break
				}
			}
			if gap {
				m.mu.Unlock()
				m.fillGap()
				m.mu.Lock()
				continue
			}
			m.waitOrder()
			continue
		}
		delete(m.holdback, m.nextExec)
		ch, res := m.applyLocked(inv)
		if ch != nil {
			// Resolve the waiting client handler outside the critical
			// section: no channel operation may happen under m.mu.
			m.mu.Unlock()
			ch <- res
			m.mu.Lock()
		}
	}
}

// waitOrder blocks on the order condition with a periodic wakeup so gaps
// and stop flags are rechecked. Called with m.mu held; returns with m.mu
// held.
func (m *Member) waitOrder() {
	done := make(chan struct{})
	go func() {
		// A stoppable timer, not clk.After: an abandoned After waiter
		// (the cond fired first) would still fire later into a channel
		// nobody reads — a phantom deadline every virtual-time driver
		// then has to advance through.
		t := m.clk.NewTimer(m.cfg.HeartbeatInterval)
		defer t.Stop()
		select {
		case <-t.C():
		case <-done:
			return
		}
		m.mu.Lock()
		m.order.cond.Broadcast()
		m.mu.Unlock()
	}()
	m.order.cond.Wait()
	close(done)
}

// applyLocked logs and (mode/role permitting) executes one invocation,
// then advances nextExec. It returns the waiting client handler's channel
// (nil if none) and the result to deliver on it; the caller must perform
// that send after releasing m.mu. Called with m.mu held.
func (m *Member) applyLocked(inv orderedInv) (chan pendingResult, pendingResult) {
	m.log = append(m.log, inv)
	isSequencer := len(m.v.members) > 0 && m.v.sequencer().id == m.id
	execute := m.cfg.Mode == ModeActive || isSequencer
	var res pendingResult
	if execute {
		res.outcome, res.results, res.err = m.replica.Dispatch(context.Background(), inv.op, inv.args)
		m.executed++
		m.order.applied = inv.seq
	}
	m.nextExec = inv.seq + 1
	ch := m.order.resultChs[inv.seq]
	delete(m.order.resultChs, inv.seq)
	m.order.cond.Broadcast()
	return ch, res
}

// fillGap fetches missing entries [nextExec, maxHeld-1] from the current
// sequencer.
func (m *Member) fillGap() {
	m.mu.Lock()
	if m.stopped || len(m.v.members) == 0 {
		m.mu.Unlock()
		return
	}
	from := m.nextExec
	var to uint64
	for seq := range m.holdback {
		if seq > to {
			to = seq
		}
	}
	seqr := m.v.sequencer()
	self := seqr.id == m.id
	m.mu.Unlock()
	if to <= from || self {
		return
	}
	_, results, err := m.call(context.Background(), seqr.addr, opFetch,
		[]wire.Value{from, to - 1}, m.cfg.DeliverTimeout)
	if err != nil || len(results) == 0 {
		return
	}
	list, ok := results[0].(wire.List)
	if !ok {
		return
	}
	m.mu.Lock()
	for _, v := range list {
		inv, err := decodeInv(v)
		if err != nil {
			continue
		}
		if inv.seq >= m.nextExec {
			if _, dup := m.holdback[inv.seq]; !dup {
				m.holdback[inv.seq] = inv
			}
		}
	}
	m.order.cond.Broadcast()
	m.mu.Unlock()
}
