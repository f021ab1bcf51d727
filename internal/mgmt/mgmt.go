// Package mgmt implements application management (§7.4).
//
// "ODP requires extension of concepts of network management to cater for
// application management... The links to management required for ODP
// include: identification of points where network and system management
// information can contribute to the provision of transparency;
// identification of management interfaces for monitoring transparency
// mechanisms and changing transparency parameters."
//
// What is monitored is counted where it happens: every step on an access
// path, a Managed object's included, is an obs.Stage, and the platform
// exports its counters with every other number the node keeps. Agent
// serves that export, the event Registry and tunable parameters as an
// ordinary ODP interface, so the management interface is itself managed
// by the same machinery it monitors. Parameters registered with the
// agent let operators retune transparency mechanisms (heartbeat rates,
// lease lifetimes, ...) at run time.
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

// Registry is the node's management event log: what operators changed
// and what failed, stamped on the node's clock.
type Registry struct {
	mu     sync.Mutex
	events []Event
	clk    clock.Clock
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

// NewRegistry creates an empty event log stamped by clk.
func NewRegistry(clk clock.Clock) *Registry {
	return &Registry{clk: clk}
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

// Param is a runtime-tunable parameter: a transparency mechanism exposes
// one so operators can retune it (§7.4 "changing transparency
// parameters").
type Param struct {
	// Get reads the current value.
	Get func() wire.Value
	// Set applies a new value, validating it.
	Set func(wire.Value) error
}

// Sources are the producers behind an Agent's read operations. Gather
// is required; a nil Spans, Series or Blackbox answers with an empty
// list or record (an untraced node, a node without a recorder).
type Sources struct {
	// Gather produces the node's exported metric snapshot.
	Gather func() wire.Record
	// Spans produces the node's recent span ring.
	Spans func() wire.List
	// Series produces the metrics time-series view: rates derived from
	// the recorder's two newest samples.
	Series func() wire.Record
	// Blackbox produces the recorder's retained breach reports.
	Blackbox func() wire.List
}

// Agent exports a node's management interface: operations gather,
// spans, series, blackbox, events, list-params, get-param and set-param.
type Agent struct {
	registry *Registry
	src      Sources
	ref      wire.Ref

	mu     sync.Mutex
	params map[string]Param
}

// ErrUnknownParam reports an unregistered parameter.
var ErrUnknownParam = errors.New("mgmt: unknown parameter")

// NewAgent exports the management interface on c, serving src and r's
// event log.
func NewAgent(c *capsule.Capsule, r *Registry, src Sources) (*Agent, error) {
	if src.Spans == nil {
		src.Spans = func() wire.List { return wire.List{} }
	}
	if src.Series == nil {
		src.Series = func() wire.Record { return wire.Record{} }
	}
	if src.Blackbox == nil {
		src.Blackbox = func() wire.List { return wire.List{} }
	}
	a := &Agent{registry: r, src: src, params: make(map[string]Param)}
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

func (a *Agent) dispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	switch op {
	case "gather":
		return "ok", []wire.Value{a.src.Gather()}, nil
	case "spans":
		return "ok", []wire.Value{a.src.Spans()}, nil
	case "series":
		return "ok", []wire.Value{a.src.Series()}, nil
	case "blackbox":
		return "ok", []wire.Value{a.src.Blackbox()}, nil
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
