// Package stream implements stream interfaces and explicit binding
// (§7.2).
//
// "The client and server operational interfaces described so far [are] a
// special case of a more general interface concept of a stream interface
// which represents a point at which any form of interaction [may] occur,
// including continuous flows such as video. A stream is described in
// terms of its type and its quality of service requirements... For
// streams a means of explicit binding must be defined. Explicit binding
// is parameterized by a template specifying which information flows are
// enabled... the binding process produces an interface containing control
// and management functions."
//
// A Receiver exports a stream interface on a capsule; Bind performs the
// explicit binding handshake against it and returns a Binding whose
// control interface (start/stop/stats) is itself an ordinary ODP
// interface. Frames travel as announcements — one-way, unacknowledged,
// exactly the ANSA treatment of continuous media (loss is tolerable,
// latency is not).
package stream

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"odp/internal/capsule"
	"odp/internal/rpc"
	"odp/internal/wire"
)

// Spec is the stream template of an explicit binding.
type Spec struct {
	// Media is the flow's media type ("audio", "video", "sensor", ...).
	Media string
	// RateHz is the nominal frame rate, advisory QoS.
	RateHz int
	// Label distinguishes multiple flows of the same media type.
	Label string
}

// Frame is one element of a flow.
type Frame struct {
	// Seq is the producer's frame counter.
	Seq uint64
	// TimestampMs is the media timestamp (presentation time).
	TimestampMs int64
	// Payload is the media data.
	Payload []byte
}

// Sink consumes frames on the receiving side. Implementations must be
// safe for concurrent use.
type Sink interface {
	OnFrame(f Frame)
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(f Frame)

// OnFrame implements Sink.
func (fn SinkFunc) OnFrame(f Frame) { fn(f) }

// Errors returned by the stream layer.
var (
	// ErrRefused reports that the receiver declined the binding.
	ErrRefused = errors.New("stream: binding refused")
	// ErrNotBound reports frame traffic for an unknown binding.
	ErrNotBound = errors.New("stream: not bound")
	// ErrStopped reports Send on a stopped binding.
	ErrStopped = errors.New("stream: binding stopped")
)

// Acceptor decides whether to accept an offered flow and provides the
// sink for it.
type Acceptor func(spec Spec) (Sink, error)

// Receiver is the consumer-side stream interface.
type Receiver struct {
	cap *capsule.Capsule
	ref wire.Ref

	mu       sync.Mutex
	acceptor Acceptor
	nextID   uint64
	sinks    map[string]Sink
	received map[string]*uint64
}

// NewReceiver exports a stream interface on c. The acceptor is consulted
// for each binding attempt.
func NewReceiver(c *capsule.Capsule, acceptor Acceptor) (*Receiver, error) {
	r := &Receiver{
		cap:      c,
		acceptor: acceptor,
		sinks:    make(map[string]Sink),
		received: make(map[string]*uint64),
	}
	ref, err := c.Export(capsule.ServantFunc(r.dispatch))
	if err != nil {
		return nil, err
	}
	r.ref = ref
	return r, nil
}

// Ref returns the stream interface reference: it can be traded and
// passed in arguments and results like any operational interface (§7.2).
func (r *Receiver) Ref() wire.Ref { return r.ref }

// Received reports how many frames arrived on a binding.
func (r *Receiver) Received(bindingID string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.received[bindingID]; n != nil {
		return atomic.LoadUint64(n)
	}
	return 0
}

func (r *Receiver) dispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	switch op {
	case "open":
		if len(args) != 1 {
			return "", nil, errors.New("stream: open wants (spec)")
		}
		rec, ok := args[0].(wire.Record)
		if !ok {
			return "", nil, fmt.Errorf("stream: open wants a spec record, got %T", args[0])
		}
		spec := Spec{}
		spec.Media, _ = rec["media"].(string)
		if hz, ok := rec["rateHz"].(int64); ok {
			spec.RateHz = int(hz)
		}
		spec.Label, _ = rec["label"].(string)
		sink, err := r.acceptor(spec)
		if err != nil {
			return "refused", []wire.Value{err.Error()}, nil
		}
		r.mu.Lock()
		r.nextID++
		id := r.cap.Name() + "/flow-" + strconv.FormatUint(r.nextID, 10)
		r.sinks[id] = sink
		var zero uint64
		r.received[id] = &zero
		r.mu.Unlock()
		return "ok", []wire.Value{id}, nil
	case "frame":
		// Announcement: [bindingID, seq, tsMs, payload].
		if len(args) != 4 {
			return "", nil, errors.New("stream: frame wants (binding, seq, ts, payload)")
		}
		id, _ := args[0].(string)
		seq, _ := args[1].(uint64)
		ts, _ := args[2].(int64)
		payload, _ := args[3].([]byte)
		r.mu.Lock()
		sink := r.sinks[id]
		counter := r.received[id]
		r.mu.Unlock()
		if sink == nil {
			return "", nil, ErrNotBound
		}
		atomic.AddUint64(counter, 1)
		sink.OnFrame(Frame{Seq: seq, TimestampMs: ts, Payload: payload})
		return "", nil, nil
	case "close":
		if len(args) != 1 {
			return "", nil, errors.New("stream: close wants (binding)")
		}
		id, _ := args[0].(string)
		r.mu.Lock()
		delete(r.sinks, id)
		r.mu.Unlock()
		return "ok", nil, nil
	default:
		return "", nil, fmt.Errorf("stream: receiver has no operation %q", op)
	}
}

// Binding is the producer-side end of an explicitly bound flow, plus its
// control interface.
type Binding struct {
	cap       *capsule.Capsule
	rxRef     wire.Ref
	bindingID string
	spec      Spec

	seq     atomic.Uint64
	running atomic.Bool
	sent    atomic.Uint64
	dropped atomic.Uint64

	controlRef wire.Ref
}

// Bind performs the explicit binding handshake: it offers spec to the
// receiver at rxRef and, on acceptance, returns a started Binding whose
// control interface is exported on c.
func Bind(ctx context.Context, c *capsule.Capsule, rxRef wire.Ref, spec Spec) (*Binding, error) {
	rec := wire.Record{
		"media":  spec.Media,
		"rateHz": int64(spec.RateHz),
		"label":  spec.Label,
	}
	outcome, results, err := c.Invoke(ctx, rxRef, "open", []wire.Value{rec},
		capsule.WithQoS(rpc.QoS{Timeout: rpc.DefaultTimeout}))
	if err != nil {
		return nil, err
	}
	if outcome != "ok" {
		return nil, fmt.Errorf("%w: %v", ErrRefused, results)
	}
	id, _ := results[0].(string)
	b := &Binding{cap: c, rxRef: rxRef, bindingID: id, spec: spec}
	b.running.Store(true)

	ctrlRef, err := c.Export(capsule.ServantFunc(b.controlDispatch))
	if err != nil {
		return nil, err
	}
	b.controlRef = ctrlRef
	return b, nil
}

// ID returns the binding identifier assigned by the receiver.
func (b *Binding) ID() string { return b.bindingID }

// ControlRef returns the binding's control-and-management interface: an
// ordinary ODP interface with start/stop/stats operations.
func (b *Binding) ControlRef() wire.Ref { return b.controlRef }

// Send emits one frame into the flow. Frames sent while stopped are
// counted as dropped (flow control, not an error path a media loop would
// branch on).
func (b *Binding) Send(timestampMs int64, payload []byte) error {
	if !b.running.Load() {
		b.dropped.Add(1)
		return ErrStopped
	}
	seq := b.seq.Add(1)
	err := b.cap.Announce(b.rxRef, "frame",
		[]wire.Value{b.bindingID, seq, timestampMs, payload})
	if err != nil {
		return err
	}
	b.sent.Add(1)
	return nil
}

// Close tears the binding down at the receiver.
func (b *Binding) Close(ctx context.Context) error {
	b.running.Store(false)
	_, _, err := b.cap.Invoke(ctx, b.rxRef, "close", []wire.Value{b.bindingID})
	return err
}

// controlDispatch implements the binding's control interface.
func (b *Binding) controlDispatch(_ context.Context, op string, _ []wire.Value) (string, []wire.Value, error) {
	switch op {
	case "start":
		b.running.Store(true)
		return "ok", nil, nil
	case "stop":
		b.running.Store(false)
		return "ok", nil, nil
	case "stats":
		return "ok", []wire.Value{wire.Record{
			"sent":    b.sent.Load(),
			"dropped": b.dropped.Load(),
			"running": b.running.Load(),
			"media":   b.spec.Media,
		}}, nil
	default:
		return "", nil, fmt.Errorf("stream: control has no operation %q", op)
	}
}
