// One binary representation, one ownership contract: a node's session
// codec decides both, from the first frame, with nothing negotiated.
package rpc

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"odp/internal/netsim"
	"odp/internal/transport"
	"odp/internal/wire"
)

// TestPackedUpgradeNegotiated keeps the name of the counter it pins
// (ClientStats.PackedUpgrades); nothing is negotiated any more. Between
// two fresh packed nodes every request, the first included, goes out
// packed, whether its frames leave bare (plain) or inside batches
// (coalesced) — and across the mixed pairings, where one side's
// coalescer passes the other's bare frames through and the bare side
// unpacks the coalesced side's batches; between two text nodes none is,
// and PackedUpgrades stays 0. Arguments and results round-trip exactly
// either way, and under either codec the arguments a handler keeps are
// its own: they still read as sent after every later request has come
// and gone through the same buffers.
func TestPackedUpgradeNegotiated(t *testing.T) {
	const calls = 20
	for _, tc := range []struct {
		name                           string
		codec                          wire.Codec
		coalesceClient, coalesceServer bool
		packed                         bool
	}{
		{"packed/plain", wire.PackedCodec{}, false, false, true},
		{"packed/coalesced", wire.PackedCodec{}, true, true, true},
		{"packed/coalesced-client", wire.PackedCodec{}, true, false, true},
		{"packed/coalesced-server", wire.PackedCodec{}, false, true, true},
		{"text/plain", wire.TextCodec{}, false, false, false},
		{"text/coalesced", wire.TextCodec{}, true, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := netsim.NewFabric()
			t.Cleanup(func() { _ = f.Close() })
			endpoint := func(name string, coalesced bool) transport.Batcher {
				ep, err := f.Endpoint(name)
				if err != nil {
					t.Fatal(err)
				}
				if !coalesced {
					return plain(t, ep)
				}
				return coalesce(t, ep)
			}
			var (
				mu   sync.Mutex
				kept [][]wire.Value
			)
			handler := func(ctx context.Context, in *Incoming) (string, []wire.Value, error) {
				mu.Lock()
				kept = append(kept, in.Args)
				mu.Unlock()
				return echoHandler(ctx, in)
			}
			cli := NewClient(endpoint("client", tc.coalesceClient), tc.codec)
			t.Cleanup(func() { _ = cli.Close() })
			srv := NewServer(endpoint("server", tc.coalesceServer), tc.codec, handler)
			t.Cleanup(func() { _ = srv.Close() })

			payload := func(i int) string { return fmt.Sprintf("payload-%02d", i) }
			for i := 0; i < calls; i++ {
				outcome, results, err := cli.Call(context.Background(), "server", "obj", "reverse",
					[]wire.Value{int64(i), payload(i)}, QoS{Timeout: 5 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				if outcome != "ok" || len(results) != 2 || results[0] != payload(i) || results[1] != int64(i) {
					t.Fatalf("call %d: outcome=%q results=%v", i, outcome, results)
				}
			}
			want := uint64(0)
			if tc.packed {
				want = calls
			}
			if got := cli.Stats().PackedUpgrades; got != want {
				t.Fatalf("PackedUpgrades = %d after %d calls, want %d", got, calls, want)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(kept) != calls {
				t.Fatalf("handler ran %d times, want %d", len(kept), calls)
			}
			for i, args := range kept {
				if len(args) != 2 || args[0] != int64(i) || args[1] != payload(i) {
					t.Fatalf("call %d: kept arguments now read %v", i, args)
				}
			}
		})
	}
}
