package netsim

import (
	"fmt"

	"odp/internal/transport"
)

// Sparse named topologies (the paper's §6 federation domains).
//
// A flat fabric holds per-pair link state, which is O(n²) in endpoints and
// caps simulations at a few dozen nodes. A topology instead names subnets
// — administrative domains with one intra-subnet profile and membership by
// address — and joins them with explicit gateway links, the only
// inter-domain edges. Route resolution composes subnet-egress → gateway →
// subnet-ingress on the fly from O(domains + gateways) state, so a
// thousand-capsule federation costs a thousand membership entries, not a
// million pair entries.
//
// Resolution precedence for a packet from → to:
//
//  1. a SetLink override for the directed pair (unchanged semantics);
//  2. both in the same subnet: the subnet's intra profile;
//  3. in different subnets: the composed egress+gateway+ingress profile,
//     or ErrUnreachable when no gateway link joins the two subnets;
//  4. either side unplaced: the fabric default (flat-fabric behaviour).
//
// Partition/Isolate keep their per-address meaning and gain subnet-level
// analogues (PartitionSubnets, IsolateSubnet) so a fault plan can cut a
// whole domain off the federation in one step.

// subnet is one named domain: an intra-subnet profile shared by every
// member pair.
type subnet struct {
	name  string
	intra LinkProfile
}

// AddSubnet declares (or re-profiles) the named subnet. Membership is by
// address, via JoinSubnet.
func (f *Fabric) AddSubnet(name string, intra LinkProfile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if sn, ok := f.subnets[name]; ok {
		sn.intra = intra
		return
	}
	f.subnets[name] = &subnet{name: name, intra: intra}
}

// JoinSubnet places addr in the named subnet (declared with AddSubnet —
// unknown subnets panic, catching miswired scenarios at build time). An
// address belongs to at most one subnet; joining again moves it.
func (f *Fabric) JoinSubnet(addr, name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.subnets[name]; !ok {
		panic(fmt.Sprintf("netsim: JoinSubnet(%q, %q): unknown subnet", addr, name))
	}
	f.cuts.Add(1)
	f.memberOf[addr] = name
}

// SubnetOf reports the subnet addr belongs to, if any.
func (f *Fabric) SubnetOf(addr string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name, ok := f.memberOf[addr]
	return name, ok
}

// LinkSubnets joins two subnets with a bidirectional gateway link carrying
// profile p — the only kind of inter-domain edge. Without one, packets
// between the subnets are rejected as unreachable.
func (f *Fabric) LinkSubnets(a, b string, p LinkProfile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range []string{a, b} {
		if _, ok := f.subnets[n]; !ok {
			panic(fmt.Sprintf("netsim: LinkSubnets(%q, %q): unknown subnet %q", a, b, n))
		}
	}
	f.gateways[pair{a, b}] = p
	f.gateways[pair{b, a}] = p
}

// PartitionSubnets cuts (or heals, when cut is false) every path between
// the two subnets — the gateway link as the fault plan sees it. Intra-
// subnet traffic on both sides continues. Idempotent; subnet names need
// not exist yet.
func (f *Fabric) PartitionSubnets(a, b string, cut bool) {
	setCut(f, f.partitionedSubnets, pairKey(a, b), cut)
}

// IsolateSubnet cuts (or heals) every path crossing the subnet's boundary
// — the whole domain drops off the federation while its internal traffic
// continues. Idempotent.
func (f *Fabric) IsolateSubnet(name string, cut bool) {
	setCut(f, f.isolatedSubnets, name, cut)
}

// composeProfiles chains link segments: fixed costs add, jitter windows
// add, and the packet survives only if it survives every segment, so loss
// probabilities combine as 1 − Π(1 − lossᵢ). One RNG draw still decides
// the composed loss and one the composed jitter, keeping the per-packet
// cost of a gateway crossing identical to a flat-fabric hop.
func composeProfiles(segs ...LinkProfile) LinkProfile {
	var out LinkProfile
	keep := 1.0
	for _, p := range segs {
		out.Latency += p.Latency
		out.Jitter += p.Jitter
		out.PerPacket += p.PerPacket
		keep *= 1 - p.Loss
	}
	out.Loss = 1 - keep
	return out
}

// profileLocked resolves the effective profile for from → to under the
// precedence documented at the top of this file. Called with f.mu held.
func (f *Fabric) profileLocked(from, to string) (LinkProfile, error) {
	if p, ok := f.links[pair{from, to}]; ok {
		return p, nil
	}
	sa, aok := f.memberOf[from]
	sb, bok := f.memberOf[to]
	if !aok || !bok {
		return f.defaultLink, nil
	}
	if sa == sb {
		return f.subnets[sa].intra, nil
	}
	gw, ok := f.gateways[pair{sa, sb}]
	if !ok {
		return LinkProfile{}, fmt.Errorf("%w: no gateway link %s>%s", transport.ErrUnreachable, sa, sb)
	}
	return composeProfiles(f.subnets[sa].intra, gw, f.subnets[sb].intra), nil
}

// cutLocked decides whether a packet from → to is cut by a partition or
// isolation, at any granularity: the address pair, either address, or —
// when the packet crosses a subnet boundary — the subnets involved.
// Called with f.mu held.
func (f *Fabric) cutLocked(from, to string) bool {
	if f.partitioned[pairKey(from, to)] || f.isolated[from] || f.isolated[to] {
		return true
	}
	sa, aok := f.memberOf[from]
	sb, bok := f.memberOf[to]
	if aok && bok && sa == sb {
		return false // intra-subnet traffic rides out its domain's isolation
	}
	if (aok && f.isolatedSubnets[sa]) || (bok && f.isolatedSubnets[sb]) {
		return true
	}
	return aok && bok && f.partitionedSubnets[pairKey(sa, sb)]
}
