package odp_test

// The paper's latency-shape claims as tier-1 assertions. "The Challenge
// of ODP" has no tables; what it predicts is how the cost of an
// interaction grows, and under the simulation harness that growth is an
// equality on virtual time and on packets sent, not a timing to re-read:
// no jitter, no wall clock, nothing to tolerate. DESIGN.md's evaluation
// ledger names these tests beside E2, E3, E4, E9 and E20.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"odp"
	"odp/internal/sim"
)

// claimStore is a constant catalogue (item, items) that also counts the
// announcements it executes (note).
type claimStore struct {
	items []odp.Value
	notes atomic.Int64
}

func newClaimStore(n int) *claimStore {
	c := &claimStore{items: make([]odp.Value, n)}
	for i := range c.items {
		c.items[i] = fmt.Sprintf("item-%04d", i)
	}
	return c
}

func (c *claimStore) Dispatch(_ context.Context, op string, args []odp.Value) (string, []odp.Value, error) {
	switch op {
	case "item":
		return "ok", []odp.Value{c.items[args[0].(int64)]}, nil
	case "items":
		return "ok", c.items[args[0].(int64):args[1].(int64)], nil
	case "note":
		c.notes.Add(1)
		return "", nil, nil
	default:
		return "", nil, fmt.Errorf("claimStore: no op %q", op)
	}
}

// claimQoS outlasts every scenario here and never retransmits inside
// one: a retransmission would be a packet the equalities do not expect.
var claimQoS = odp.QoS{Timeout: time.Minute, Retransmit: 10 * time.Second}

// claimLatencies are the one-way link delays every two-node claim is
// asserted at: a LAN-like and a WAN-like path, jitter-free.
var claimLatencies = []time.Duration{200 * time.Microsecond, 5 * time.Millisecond}

// packetsPerCall is what one call puts on the fabric: its request, which
// carries the previous call's acknowledgement in the same BATCH datagram,
// and its reply, which travels alone. The call's own acknowledgement
// waits for the next request to the server.
const packetsPerCall = 2

// ackFlush lets whatever a scenario left queued leave, so a packet count
// taken after it belongs to the calls before it.
const ackFlush = time.Second

// claimCost drives fn in virtual time, lets trailing acknowledgements
// flush, and reports how long fn took and how many packets the fabric
// carried on its behalf.
func claimCost(t *testing.T, s *sim.Sim, fn func() error) (took time.Duration, packets uint64) {
	t.Helper()
	start, sent := s.Elapsed(), s.Fabric.Stats().Sent
	if err := driveCall(t, s, time.Hour, fn); err != nil {
		t.Fatal(err)
	}
	took = s.Elapsed() - start
	s.RunFor(ackFlush)
	return took, s.Fabric.Stats().Sent - sent
}

// TestClaimsInvocationShapes asserts, for k results over a link of
// one-way latency L:
//
//   - §5.1 multiple results (E3): k calls of one result take exactly
//     k·2L and k times the packets of one call; one call of k results
//     takes exactly 2L and the packets of one call.
//   - §4.5 constant-object copying (E2): after that one bulk call the
//     client reads its copy in zero time and zero packets, where each
//     by-reference read is the round trip above.
//   - §5.1 announcements (E4): issuing k announcements takes zero
//     virtual time; all k leave in one datagram at the end of the
//     instant, and are delivered and executed exactly L later.
func TestClaimsInvocationShapes(t *testing.T) {
	ctx := context.Background()
	for _, l := range claimLatencies {
		t.Run("L="+l.String(), func(t *testing.T) {
			s := sim.New(41, sim.WithDefaultLink(odp.LinkProfile{Latency: l}))
			defer s.Close()
			server := simPlatform(t, s, "server")
			client := simPlatform(t, s, "client")
			store := newClaimStore(64)
			ref, err := server.Publish("store", odp.Object{Servant: store})
			if err != nil {
				t.Fatal(err)
			}
			proxy := client.Bind(ref).WithQoS(claimQoS)

			// The unit of every packet equality below.
			_, perCall := claimCost(t, s, func() error {
				_, err := proxy.Call(ctx, "item", int64(0))
				return err
			})
			if perCall != packetsPerCall {
				t.Fatalf("a remote call sent %d packets, want %d", perCall, packetsPerCall)
			}

			for _, k := range []int{1, 4, 16, 64} {
				took, packets := claimCost(t, s, func() error {
					for i := 0; i < k; i++ {
						if _, err := proxy.Call(ctx, "item", int64(i)); err != nil {
							return err
						}
					}
					return nil
				})
				if want := time.Duration(k) * 2 * l; took != want || packets != uint64(k)*perCall {
					t.Fatalf("k=%d calls of 1: %v and %d packets, want %v and %d", k, took, packets, want, uint64(k)*perCall)
				}

				var local []odp.Value
				took, packets = claimCost(t, s, func() error {
					out, err := proxy.Call(ctx, "items", int64(0), int64(k))
					local = out.Results
					return err
				})
				if took != 2*l || packets != perCall {
					t.Fatalf("1 call of k=%d: %v and %d packets, want %v and %d", k, took, packets, 2*l, perCall)
				}

				took, packets = claimCost(t, s, func() error {
					for i := 0; i < k; i++ {
						if local[i] != store.items[i] {
							return fmt.Errorf("copy[%d] = %v, want %v", i, local[i], store.items[i])
						}
					}
					return nil
				})
				if len(local) != k || took != 0 || packets != 0 {
					t.Fatalf("%d reads of the copy (%d items): %v and %d packets, want none of either", k, len(local), took, packets)
				}

				issued, executed := s.Elapsed(), store.notes.Load()
				before := s.Fabric.Stats()
				if err := driveCall(t, s, time.Hour, func() error {
					for i := 0; i < k; i++ {
						if err := proxy.Announce("note"); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if took := s.Elapsed() - issued; took != 0 {
					t.Fatalf("issuing %d announcements took %v, want 0: an announcement waits for nothing", k, took)
				}
				s.Run(t, time.Hour, func() bool { return store.notes.Load() == executed+int64(k) })
				if took := s.Elapsed() - issued; took != l {
					t.Fatalf("%d announcements executed after %v, want one one-way latency %v", k, took, l)
				}
				s.RunFor(ackFlush)
				after := s.Fabric.Stats()
				// The flusher claims the burst once the instant is over, with
				// the last call's acknowledgement in front: one datagram.
				if sent, delivered := after.Sent-before.Sent, after.Delivered-before.Delivered; sent != 1 || delivered != 1 {
					t.Fatalf("%d announcements: %d packets sent, %d delivered, want 1 of each", k, sent, delivered)
				}
			}
			pinSwarmHash(t, s)
		})
	}
}

// TestClaimsGatewayHop asserts §5.6's price of a federation interceptor
// (E9): a call through a gateway, which translates between the packed
// and text representations on the way, takes exactly the direct call
// plus one more hop's round trip, and twice the packets.
func TestClaimsGatewayHop(t *testing.T) {
	ctx := context.Background()
	for _, l := range claimLatencies {
		t.Run("L="+l.String(), func(t *testing.T) {
			s := sim.New(43, sim.WithDefaultLink(odp.LinkProfile{Latency: l}))
			defer s.Close()
			serverB := simPlatform(t, s, "server-b", odp.WithCodec(odp.TextCodec{}))
			clientB := simPlatform(t, s, "client-b", odp.WithCodec(odp.TextCodec{}))
			gwB := simPlatform(t, s, "gw-b", odp.WithCodec(odp.TextCodec{}))
			gwA := simPlatform(t, s, "gw-a")
			clientA := simPlatform(t, s, "client-a")
			ref, err := serverB.Publish("store", odp.Object{Servant: newClaimStore(1)})
			if err != nil {
				t.Fatal(err)
			}
			crossing, err := odp.NewGateway("gw", gwA, gwB, nil).Export(ref, odp.SideB)
			if err != nil {
				t.Fatal(err)
			}
			item := func(p *odp.Proxy) func() error {
				return func() error {
					_, err := p.WithQoS(claimQoS).Call(ctx, "item", int64(0))
					return err
				}
			}
			direct, directPackets := claimCost(t, s, item(clientB.Bind(ref)))
			crossed, crossedPackets := claimCost(t, s, item(clientA.Bind(crossing)))
			if direct != 2*l || crossed != direct+2*l || crossedPackets != 2*directPackets {
				t.Fatalf("direct %v (%d packets), through the gateway %v (%d packets); want %v, then one more hop: %v and %d packets",
					direct, directPackets, crossed, crossedPackets, 2*l, direct+2*l, 2*directPackets)
			}
			pinSwarmHash(t, s)
		})
	}
}

// TestClaimsFederatedImportLinear asserts §6's cost of following trader
// links (E20): on a chain of domains joined only by gateway links, an
// import that finds its offer h domains away takes exactly h gateway
// round trips — each further hop adds the same traversal — and a local
// import takes no virtual time at all.
func TestClaimsFederatedImportLinear(t *testing.T) {
	const (
		domains = 5
		intra   = 50 * time.Microsecond
		gateway = time.Millisecond
		hop     = 2 * (intra + gateway + intra)
	)
	ctx := context.Background()
	s := sim.New(47)
	defer s.Close()
	n := sim.Swarm{
		Domains: domains, CapsulesPerDomain: 1,
		Intra: odp.LinkProfile{Latency: intra}, Gateway: odp.LinkProfile{Latency: gateway},
	}.Build(s)
	traders := make([]*odp.Platform, domains)
	for d := range traders {
		dom := n.Domain(d)
		traders[d] = simPlatform(t, s, n.Addr(d, 0), odp.WithDomain(dom), odp.WithTrader(dom))
		if _, err := traders[d].Trader.Advertise(workType(),
			odp.Ref{ID: "svc", Endpoints: []string{n.Addr(d, 0)}},
			map[string]odp.Value{"dom": dom}); err != nil {
			t.Fatal(err)
		}
		if d > 0 {
			traders[d-1].Trader.LinkTo("east", traders[d].Trader.Ref())
		}
	}
	for h := 0; h < domains; h++ {
		var offers []odp.Offer
		took, _ := claimCost(t, s, func() error {
			var err error
			offers, err = traders[0].Trader.Import(ctx, odp.ImportSpec{
				Requirement: workType(),
				Constraints: []odp.Constraint{{Key: "dom", Op: odp.OpEq, Value: n.Domain(h)}},
				MaxHops:     h,
			})
			return err
		})
		if len(offers) != 1 {
			t.Fatalf("import %d hops away found %d offers, want 1", h, len(offers))
		}
		if want := time.Duration(h) * hop; took != want {
			t.Fatalf("import %d hops away took %v, want %v: %v per hop from 0", h, took, want, hop)
		}
	}
	pinSwarmHash(t, s)
}
