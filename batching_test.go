package odp_test

import (
	"context"
	"testing"
	"time"

	"odp"
)

// TestPlainAndBatchingPlatformsAnswerFirstCalls: nothing is negotiated
// between a plain platform and a batching one. Whichever of the two calls
// first, its first call is answered, on the fabric and over loopback TCP,
// and the batching side's frames left in BATCH datagrams from the first.
// The call never retransmits, so the first datagram itself was read.
func TestPlainAndBatchingPlatformsAnswerFirstCalls(t *testing.T) {
	for _, network := range []struct {
		name   string
		listen func(t *testing.T) func(name string) odp.Endpoint
	}{
		{"netsim", func(t *testing.T) func(string) odp.Endpoint {
			f := odp.NewFabric(odp.WithSeed(1))
			t.Cleanup(func() { _ = f.Close() })
			return func(name string) odp.Endpoint {
				ep, err := f.Endpoint(name)
				if err != nil {
					t.Fatal(err)
				}
				return ep
			}
		}},
		{"tcp", func(t *testing.T) func(string) odp.Endpoint {
			return func(string) odp.Endpoint {
				ep, err := odp.ListenTCP("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				return ep
			}
		}},
	} {
		for _, dir := range []string{"batching calls plain", "plain calls batching"} {
			t.Run(network.name+"/"+dir, func(t *testing.T) {
				listen := network.listen(t)
				start := func(name string, opts ...odp.Option) *odp.Platform {
					p, err := odp.NewPlatform(name, listen(name), opts...)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { _ = p.Close() })
					return p
				}
				plain, batching := start("plain"), start("batching", odp.WithBatching())
				caller, callee := plain, batching
				if dir == "batching calls plain" {
					caller, callee = batching, plain
				}
				ref, err := callee.Publish("ctr", odp.Object{Servant: &countingServant{}})
				if err != nil {
					t.Fatal(err)
				}
				qos := odp.QoS{Timeout: 10 * time.Second, Retransmit: time.Minute}
				out, err := caller.Bind(ref).WithQoS(qos).Call(context.Background(), "add")
				if err != nil {
					t.Fatalf("first call: %v", err)
				}
				if n, err := out.Int(0); err != nil || n != 1 {
					t.Fatalf("first call returned %v (%v), want 1", out.Result(0), err)
				}
				// A batch is counted once its write returns, which can be after
				// the caller has read the reply it carried.
				deadline := time.Now().Add(5 * time.Second)
				st, _ := batching.BatchStats()
				for st.BatchesSent == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
					st, _ = batching.BatchStats()
				}
				if st.BatchesSent == 0 || st.SingleSends != 0 {
					t.Fatalf("batching side: %+v, want every frame in a batch", st)
				}
			})
		}
	}
}
