package sim

import (
	"fmt"
	"time"

	"odp/internal/netsim"
)

// FaultPlan is a seeded schedule of fault injections at logical instants:
// partitions, node crashes, loss-rate changes, link-profile swaps. Build
// one fluently —
//
//	plan := sim.NewFaultPlan().
//		At(50*time.Millisecond).Partition("client", "server").
//		At(200*time.Millisecond).Heal("client", "server").
//		At(300*time.Millisecond).Isolate("n2").
//		At(500*time.Millisecond).Rejoin("n2")
//
// — then Install it on a Sim before running. Instants are measured from
// the simulation Epoch; each application is recorded in the trace, so the
// plan is part of the replay fingerprint.
//
// Determinism note: the fake clock fires coincident AfterFunc callbacks
// (fault steps, packet deliveries) in a fixed order, but it cannot order
// a fault step against a goroutine woken by a timer *channel* at the
// same instant — an rpc retransmit loop, a janitor tick. Hash-asserted
// scenarios should therefore keep fault instants off the traffic grid
// (e.g. skew them by a fraction of the link latency) so no fault ever
// shares an exact instant with a send.
type FaultPlan struct {
	steps []planStep
}

type planStep struct {
	at    time.Duration
	desc  string
	apply func(s *Sim)
}

// NewFaultPlan returns an empty plan.
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{}
}

// At starts a step executing at d after the epoch.
func (p *FaultPlan) At(d time.Duration) *PlanStep {
	return &PlanStep{p: p, at: d}
}

// PlanStep is the builder for one scheduled injection.
type PlanStep struct {
	p  *FaultPlan
	at time.Duration
}

func (ps *PlanStep) add(desc string, apply func(s *Sim)) *FaultPlan {
	ps.p.steps = append(ps.p.steps, planStep{at: ps.at, desc: desc, apply: apply})
	return ps.p
}

// Partition cuts bidirectional connectivity between a and b.
func (ps *PlanStep) Partition(a, b string) *FaultPlan {
	return ps.add(fmt.Sprintf("partition %s|%s", a, b), func(s *Sim) {
		s.Fabric.Partition(a, b, true)
	})
}

// Heal restores connectivity between a and b.
func (ps *PlanStep) Heal(a, b string) *FaultPlan {
	return ps.add(fmt.Sprintf("heal %s|%s", a, b), func(s *Sim) {
		s.Fabric.Partition(a, b, false)
	})
}

// Isolate cuts every link touching addr — a crash as the network sees it.
func (ps *PlanStep) Isolate(addr string) *FaultPlan {
	return ps.add("isolate "+addr, func(s *Sim) {
		s.Fabric.Isolate(addr, true)
	})
}

// Rejoin heals every link touching addr.
func (ps *PlanStep) Rejoin(addr string) *FaultPlan {
	return ps.add("rejoin "+addr, func(s *Sim) {
		s.Fabric.Isolate(addr, false)
	})
}

// PartitionSubnets cuts every path between two subnets — the gateway link
// going dark as the fault plan sees it; intra-subnet traffic continues.
func (ps *PlanStep) PartitionSubnets(a, b string) *FaultPlan {
	return ps.add(fmt.Sprintf("partition-subnets %s|%s", a, b), func(s *Sim) {
		s.Fabric.PartitionSubnets(a, b, true)
	})
}

// HealSubnets restores connectivity between two subnets.
func (ps *PlanStep) HealSubnets(a, b string) *FaultPlan {
	return ps.add(fmt.Sprintf("heal-subnets %s|%s", a, b), func(s *Sim) {
		s.Fabric.PartitionSubnets(a, b, false)
	})
}

// IsolateSubnet cuts every path crossing the subnet's boundary — a whole
// domain dropping off the federation while its internal traffic continues.
func (ps *PlanStep) IsolateSubnet(name string) *FaultPlan {
	return ps.add("isolate-subnet "+name, func(s *Sim) {
		s.Fabric.IsolateSubnet(name, true)
	})
}

// RejoinSubnet heals the subnet's boundary.
func (ps *PlanStep) RejoinSubnet(name string) *FaultPlan {
	return ps.add("rejoin-subnet "+name, func(s *Sim) {
		s.Fabric.IsolateSubnet(name, false)
	})
}

// SetLink swaps the directed link from→to onto profile — latency, jitter
// and loss-rate changes at a logical instant.
func (ps *PlanStep) SetLink(from, to string, profile netsim.LinkProfile) *FaultPlan {
	return ps.add(fmt.Sprintf("setlink %s>%s lat=%v loss=%v", from, to, profile.Latency, profile.Loss),
		func(s *Sim) { s.Fabric.SetLink(from, to, profile) })
}

// Do schedules an arbitrary injection; desc names it in the trace.
func (ps *PlanStep) Do(desc string, fn func(s *Sim)) *FaultPlan {
	return ps.add(desc, fn)
}

// Install schedules every step of the plan on the simulation clock. Steps
// whose instant has already passed fire immediately.
func (s *Sim) Install(p *FaultPlan) {
	for _, st := range p.steps {
		st := st
		delay := Epoch.Add(st.at).Sub(s.Clock.Now())
		s.Clock.AfterFunc(delay, func() {
			s.Trace.Record(s.Clock.Now(), "plan "+st.desc)
			st.apply(s)
		})
	}
}
