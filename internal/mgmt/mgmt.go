// Package mgmt implements application management (§7.4).
//
// "ODP requires extension of concepts of network management to cater for
// application management... The links to management required for ODP
// include: identification of points where network and system management
// information can contribute to the provision of transparency;
// identification of management interfaces for monitoring transparency
// mechanisms and changing transparency parameters."
//
// A Registry gathers counters and gauges; Instrument wraps any servant so
// its invocation rates, failures and latencies flow into the registry;
// and Agent exports the whole thing as an ordinary ODP interface — the
// management interface is itself managed by the same machinery it
// monitors. Parameters registered with the agent let operators retune
// transparency mechanisms (heartbeat rates, lease lifetimes, ...) at run
// time.
package mgmt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"odp/internal/capsule"
	"odp/internal/clock"
	"odp/internal/wire"
)

// Registry is a concurrency-safe set of named counters and gauges.
type Registry struct {
	mu       sync.Mutex
	counters map[string]uint64
	gauges   map[string]float64
	events   []Event
	clk      clock.Clock
}

// maxEvents bounds the management event log: the most recent are kept.
const maxEvents = 256

// Event is one entry of the management event log.
type Event struct {
	// At is the event time.
	At time.Time
	// What describes the event.
	What string
}

// NewRegistry creates an empty registry whose events are stamped by clk.
func NewRegistry(clk clock.Clock) *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		gauges:   make(map[string]float64),
		clk:      clk,
	}
}

// Add increments counter name by delta.
func (r *Registry) Add(name string, delta uint64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Set sets gauge name.
func (r *Registry) Set(name string, v float64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Counter reads counter name.
func (r *Registry) Counter(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Gauge reads gauge name.
func (r *Registry) Gauge(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Log appends an event to the bounded event log.
func (r *Registry) Log(what string) {
	r.mu.Lock()
	r.events = append(r.events, Event{At: r.clk.Now(), What: what})
	if len(r.events) > maxEvents {
		r.events = r.events[len(r.events)-maxEvents:]
	}
	r.mu.Unlock()
}

// Events returns a copy of the event log.
func (r *Registry) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Snapshot renders all metrics as a wire record (counters under "c.",
// gauges under "g.").
func (r *Registry) Snapshot() wire.Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := make(wire.Record, len(r.counters)+len(r.gauges))
	for k, v := range r.counters {
		rec["c."+k] = v
	}
	for k, v := range r.gauges {
		rec["g."+k] = v
	}
	return rec
}

// Instrument wraps a servant so its traffic feeds the registry under the
// given metric prefix: <prefix>.calls, <prefix>.errors and the gauge
// <prefix>.last_us (last dispatch latency in microseconds).
func Instrument(r *Registry, prefix string) capsule.Interceptor {
	calls, errs, lastUs := prefix+".calls", prefix+".errors", prefix+".last_us"
	return func(next capsule.Servant) capsule.Servant {
		return capsule.ServantFunc(func(ctx context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
			start := r.clk.Now()
			outcome, results, err := next.Dispatch(ctx, op, args)
			r.Add(calls, 1)
			if err != nil {
				r.Add(errs, 1)
			}
			r.Set(lastUs, float64(r.clk.Since(start).Microseconds()))
			return outcome, results, err
		})
	}
}

// Param is a runtime-tunable parameter: a transparency mechanism exposes
// one so operators can retune it (§7.4 "changing transparency
// parameters").
type Param struct {
	// Get reads the current value.
	Get func() wire.Value
	// Set applies a new value, validating it.
	Set func(wire.Value) error
}

// Agent exports a registry (and tunable parameters) as an ODP management
// interface with operations stats, events, get-param, set-param, gather
// and spans.
type Agent struct {
	registry *Registry
	ref      wire.Ref

	mu     sync.Mutex
	params map[string]Param
	// gather, when set, produces the node's unified stats snapshot
	// (every subsystem folded into one namespace — see obs.Fold); the
	// "gather" op falls back to the plain registry snapshot otherwise.
	gather func() wire.Record
	// spans, when set, produces the node's recent span ring for the
	// "spans" op; an untraced node answers with an empty list.
	spans func() wire.List
	// series, when set, produces the metrics time-series view (rates
	// derived from the recorder's snapshot ring) for the "series" op; a
	// node without a recorder answers with an empty record.
	series func() wire.Record
	// blackbox, when set, produces the flight recorder's retained breach
	// reports for the "blackbox" op; a node without a flight recorder
	// answers with an empty list.
	blackbox func() wire.List
}

// ErrUnknownParam reports an unregistered parameter.
var ErrUnknownParam = errors.New("mgmt: unknown parameter")

// NewAgent exports the management interface on c.
func NewAgent(c *capsule.Capsule, r *Registry) (*Agent, error) {
	a := &Agent{registry: r, params: make(map[string]Param)}
	ref, err := c.Export(capsule.ServantFunc(a.dispatch),
		capsule.WithID(c.Name()+"/mgmt"))
	if err != nil {
		return nil, err
	}
	a.ref = ref
	return a, nil
}

// Ref returns the management interface reference.
func (a *Agent) Ref() wire.Ref { return a.ref }

// RegisterParam exposes a tunable parameter.
func (a *Agent) RegisterParam(name string, p Param) {
	a.mu.Lock()
	a.params[name] = p
	a.mu.Unlock()
}

// SetGather installs the unified-snapshot producer behind the "gather"
// op. The platform wires this after assembling its subsystems.
func (a *Agent) SetGather(fn func() wire.Record) {
	a.mu.Lock()
	a.gather = fn
	a.mu.Unlock()
}

// SetSpans installs the span-ring producer behind the "spans" op.
func (a *Agent) SetSpans(fn func() wire.List) {
	a.mu.Lock()
	a.spans = fn
	a.mu.Unlock()
}

// SetSeries installs the time-series producer behind the "series" op.
func (a *Agent) SetSeries(fn func() wire.Record) {
	a.mu.Lock()
	a.series = fn
	a.mu.Unlock()
}

// SetBlackbox installs the breach-report producer behind the "blackbox"
// op.
func (a *Agent) SetBlackbox(fn func() wire.List) {
	a.mu.Lock()
	a.blackbox = fn
	a.mu.Unlock()
}

func (a *Agent) dispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	switch op {
	case "stats":
		return "ok", []wire.Value{a.registry.Snapshot()}, nil
	case "gather":
		a.mu.Lock()
		gather := a.gather
		a.mu.Unlock()
		if gather == nil {
			return "ok", []wire.Value{a.registry.Snapshot()}, nil
		}
		return "ok", []wire.Value{gather()}, nil
	case "spans":
		a.mu.Lock()
		spans := a.spans
		a.mu.Unlock()
		if spans == nil {
			return "ok", []wire.Value{wire.List{}}, nil
		}
		return "ok", []wire.Value{spans()}, nil
	case "series":
		a.mu.Lock()
		series := a.series
		a.mu.Unlock()
		if series == nil {
			return "ok", []wire.Value{wire.Record{}}, nil
		}
		return "ok", []wire.Value{series()}, nil
	case "blackbox":
		a.mu.Lock()
		blackbox := a.blackbox
		a.mu.Unlock()
		if blackbox == nil {
			return "ok", []wire.Value{wire.List{}}, nil
		}
		return "ok", []wire.Value{blackbox()}, nil
	case "events":
		evs := a.registry.Events()
		list := make(wire.List, len(evs))
		for i, e := range evs {
			list[i] = wire.Record{"at": e.At.UnixMilli(), "what": e.What}
		}
		return "ok", []wire.Value{list}, nil
	case "list-params":
		a.mu.Lock()
		names := make([]string, 0, len(a.params))
		for n := range a.params {
			names = append(names, n)
		}
		a.mu.Unlock()
		sort.Strings(names)
		list := make(wire.List, len(names))
		for i, n := range names {
			list[i] = n
		}
		return "ok", []wire.Value{list}, nil
	case "get-param":
		if len(args) != 1 {
			return "", nil, errors.New("mgmt: get-param wants (name)")
		}
		name, _ := args[0].(string)
		a.mu.Lock()
		p, ok := a.params[name]
		a.mu.Unlock()
		if !ok {
			return "unknown", nil, nil
		}
		return "ok", []wire.Value{p.Get()}, nil
	case "set-param":
		if len(args) != 2 {
			return "", nil, errors.New("mgmt: set-param wants (name, value)")
		}
		name, _ := args[0].(string)
		a.mu.Lock()
		p, ok := a.params[name]
		a.mu.Unlock()
		if !ok {
			return "unknown", nil, nil
		}
		if err := p.Set(args[1]); err != nil {
			return "rejected", []wire.Value{err.Error()}, nil
		}
		a.registry.Log("param " + name + " changed")
		return "ok", nil, nil
	default:
		return "", nil, fmt.Errorf("mgmt: no operation %q", op)
	}
}
