// Package transport defines the message-passing substrate of the
// engineering model.
//
// The paper's analysis of separation (§4.1) requires that "all access
// between components must be based on the exchange of request and response
// messages". This package provides the lowest layer: unreliable,
// unordered, best-effort datagram endpoints. Reliability, ordering and
// exactly/at-most-once semantics are the business of the invocation
// protocol (internal/rpc), mirroring the ANSA REX design over UDP.
//
// Two implementations exist: the deterministic simulated fabric in
// internal/netsim (latency, jitter, loss, partitions) and the TCP endpoint
// in this package (real cross-process transport; TCP's reliability simply
// means the loss rate is 0 — the protocol stack above is unchanged).
package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Handler consumes one inbound packet. Implementations are called from
// transport goroutines and must not block for long. pkt is only valid
// for the duration of the call: transports reuse delivery buffers, so a
// handler that needs the bytes afterwards must copy them. (The rpc layer
// satisfies this by decoding synchronously before any hand-off.)
type Handler func(from string, pkt []byte)

// ChainHandler is a Handler given its delivery's cursor, at, to time from
// instead of reading a clock: zero, or what it returned for the frame
// before on the same goroutine. A delivery that keeps none passes zero.
type ChainHandler func(from string, pkt []byte, at time.Time) time.Time

// chained is h as a ChainHandler that keeps no cursor; nil stays nil.
func chained(h Handler) ChainHandler {
	if h == nil {
		return nil
	}
	return func(from string, pkt []byte, _ time.Time) time.Time { h(from, pkt); return time.Time{} }
}

// Endpoint is a best-effort datagram endpoint with a stable address.
type Endpoint interface {
	// Addr returns the endpoint's address as placed in interface
	// references.
	Addr() string
	// Send transmits pkt towards to. Delivery is not guaranteed; an error
	// is returned only for local failures (closed endpoint, unknown
	// scheme), never for loss.
	Send(to string, pkt []byte) error
	// SetHandler installs the inbound packet handler. It must be called
	// before any traffic is expected; a nil handler drops packets.
	SetHandler(h Handler)
	// Close releases the endpoint. Subsequent Sends fail with ErrClosed.
	Close() error
}

// ConcurrentDeliverer is implemented by endpoints on which a Handler
// that blocks — on a nested invocation, say — never stalls another
// delivery, so it cannot stall the delivery of the very packet it is
// waiting for. The real-time fabric runs each delivery on a goroutine of
// its own. TCP and the Coalescer deliver one packet after another on one
// goroutine, but a delivery that runs for a clock.StallBound has what
// follows it — the connection, the rest of the batch — handed to a fresh
// goroutine by a clock.Watch. The rpc server dispatches handlers inline
// in the delivery goroutine on such endpoints; on the others (a
// virtual-time fabric) it hands every dispatch to a worker (Workers).
type ConcurrentDeliverer interface {
	DeliversConcurrently() bool
}

// Workers runs jobs on at most bound resident goroutines, which keep the
// stacks their jobs grew: a job does not start on a fresh 2 KiB stack and
// pay its growth again (EXPERIMENTS.md on runtime.newstack). The bound
// limits the parked stacks kept, not concurrency. The simulated fabric's
// deliveries use one, and so does the rpc server's dispatch on an
// endpoint that does not deliver concurrently (a virtual-time fabric).
type Workers[T any] struct {
	run        func(T)
	bound      int32
	jobq       chan T // unbuffered
	idle, live atomic.Int32
	wg         sync.WaitGroup
}

// NewWorkers returns a pool of at most bound workers that call run.
func NewWorkers[T any](bound int, run func(T)) *Workers[T] {
	return &Workers[T]{run: run, bound: int32(bound), jobq: make(chan T)}
}

// Submit runs job on an idle worker, on a new one while fewer than the
// bound are live, or else on a fresh goroutine — never queues, so a job
// cannot deadlock behind workers blocked on nested invocations. A
// hand-off takes one of idle's tokens, which a worker adds once it has
// nothing left to do but receive: one not yet parked counts, or on a
// contended CPU every job spilled to a fresh goroutine.
func (w *Workers[T]) Submit(job T) {
	if w.idle.Add(-1) >= 0 {
		w.jobq <- job // a worker that does nothing else will receive it
		return
	}
	w.idle.Add(1) // a token gone negative makes a racing Submit spawn, never wait
	if w.live.Add(1) <= w.bound {
		w.wg.Add(1)
		go w.worker(job)
		return
	}
	w.live.Add(-1)
	go w.run(job)
}

// worker runs job, then parks on jobq alone, no select, until Close
// closes it.
func (w *Workers[T]) worker(job T) {
	defer w.wg.Done()
	defer w.live.Add(-1)
	for ok := true; ok; job, ok = <-w.jobq {
		w.run(job)
		w.idle.Add(1)
	}
}

// Close returns once the workers have exited. No Submit may run during or
// after it; jobs spilled to fresh goroutines are the caller's to wait for.
func (w *Workers[T]) Close() {
	close(w.jobq)
	w.wg.Wait()
}

// Live reports how many workers are running.
func (w *Workers[T]) Live() int { return int(w.live.Load()) }

// Errors returned by endpoints.
var (
	// ErrClosed reports use of a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnreachable reports an address no route exists for. The
	// simulated fabric returns it for unknown names; TCP returns it for
	// dial failures.
	ErrUnreachable = errors.New("transport: unreachable")
	// ErrTooLarge reports a packet exceeding MaxPacket.
	ErrTooLarge = errors.New("transport: packet too large")
)

// MaxPacket bounds a single datagram. Large invocations must be segmented
// by the layer above (internal/rpc does this).
const MaxPacket = 1 << 20
