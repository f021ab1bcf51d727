// Interop tests for the packed-codec upgrade: the HELLO capability
// exchange must upgrade calls to ansa-packed/1 exactly when both sides
// can handle it, and fall back to plain binary in every mixed pairing —
// a packed-capable client against a plain server, a plain client
// against a packed-capable server, and batching peers that never
// advertised the capability bit.
package rpc

import (
	"context"
	"testing"
	"time"

	"odp/internal/netsim"
	"odp/internal/transport"
	"odp/internal/wire"
)

// interopRig wires a client and server over a fresh fabric, wrapping
// each side in a coalescer with the given capability byte when its
// wrap flag is set. No MarkBatching: capability must arrive over the
// wire, through the HELLO probe/ack exchange, exactly as deployed
// nodes negotiate it.
func interopRig(t *testing.T, wrapClient, wrapServer bool, caps byte) (*Client, *Server) {
	t.Helper()
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	cep, err := f.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	sep, err := f.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	var cEnd, sEnd transport.Endpoint = cep, sep
	if wrapClient {
		cco := transport.NewCoalescer(cep, transport.WithCapabilities(caps))
		t.Cleanup(func() { _ = cco.Close() })
		cEnd = cco
	}
	if wrapServer {
		sco := transport.NewCoalescer(sep, transport.WithCapabilities(caps))
		t.Cleanup(func() { _ = sco.Close() })
		sEnd = sco
	}
	cli := NewClient(cEnd, codec)
	t.Cleanup(func() { _ = cli.Close() })
	srv := NewServer(sEnd, codec, echoHandler)
	t.Cleanup(func() { _ = srv.Close() })
	return cli, srv
}

// checkedCall runs one echo call and verifies the round-tripped result,
// which exercises the full encode/decode path under whatever body codec
// the client flagged.
func checkedCall(t *testing.T, cli *Client, i int) {
	t.Helper()
	outcome, results, err := cli.Call(context.Background(), "server", "obj", "reverse",
		[]wire.Value{int64(i), "payload"}, QoS{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != "ok" || len(results) != 2 || results[0] != "payload" || results[1] != int64(i) {
		t.Fatalf("call %d: outcome=%q results=%v", i, outcome, results)
	}
}

// TestPackedUpgradeNegotiated: two capable peers converge on packed via
// the in-band HELLO exchange, and upgraded calls still round-trip
// arguments and results exactly.
func TestPackedUpgradeNegotiated(t *testing.T) {
	cli, srv := interopRig(t, true, true, transport.CapPacked)
	// The probe's delivery can trail the first few request/reply rounds,
	// so drive calls until the upgrade is observed rather than assuming
	// a fixed warm-up count.
	deadline := time.Now().Add(10 * time.Second)
	i := 0
	for cli.Stats().PackedUpgrades == 0 {
		if time.Now().After(deadline) {
			t.Fatal("packed upgrade never negotiated")
		}
		checkedCall(t, cli, i)
		i++
	}
	before := cli.Stats().PackedUpgrades
	for j := 0; j < 10; j++ {
		checkedCall(t, cli, i+j)
	}
	if got := cli.Stats().PackedUpgrades; got < before+10 {
		t.Fatalf("post-negotiation calls not all packed: %d -> %d", before, got)
	}
	if srv.Stats().Requests == 0 {
		t.Fatal("server saw no requests")
	}
}

// TestPackedClientPlainServer: a capable client against a server with no
// coalescer at all. The HELLO probe reaches the server's rpc demux as an
// unparseable frame and is dropped; every call keeps the packed flag
// clear (session binary codec) and succeeds.
func TestPackedClientPlainServer(t *testing.T) {
	cli, srv := interopRig(t, true, false, transport.CapPacked)
	for i := 0; i < 20; i++ {
		checkedCall(t, cli, i)
	}
	if got := cli.Stats().PackedUpgrades; got != 0 {
		t.Fatalf("client upgraded %d calls against a plain server", got)
	}
	if got := srv.Stats().Requests; got != 20 {
		t.Fatalf("server executed %d of 20 requests", got)
	}
}

// TestPlainClientPackedServer is the reverse pairing: the server
// advertises packed but the client cannot hear it, so traffic stays
// unflagged binary — and the server's probe towards the client is
// dropped by the client's rpc demux without disturbing replies.
func TestPlainClientPackedServer(t *testing.T) {
	cli, srv := interopRig(t, false, true, transport.CapPacked)
	for i := 0; i < 20; i++ {
		checkedCall(t, cli, i)
	}
	if got := cli.Stats().PackedUpgrades; got != 0 {
		t.Fatalf("client without a negotiator upgraded %d calls", got)
	}
	if got := srv.Stats().Requests; got != 20 {
		t.Fatalf("server executed %d of 20 requests", got)
	}
}

// TestBatchingWithoutPackedCapability: peers that negotiate batching but
// advertise no capability bits keep exchanging unflagged binary bodies —
// the BATCH framing upgrade and the codec upgrade are independent.
func TestBatchingWithoutPackedCapability(t *testing.T) {
	cli, _ := interopRig(t, true, true, 0)
	bat, ok := cli.ep.(*transport.Coalescer)
	if !ok {
		t.Fatal("client endpoint is not a coalescer")
	}
	deadline := time.Now().Add(10 * time.Second)
	i := 0
	for !bat.PeerBatching("server") {
		if time.Now().After(deadline) {
			t.Fatal("batching never negotiated")
		}
		checkedCall(t, cli, i)
		i++
	}
	for j := 0; j < 10; j++ {
		checkedCall(t, cli, i+j)
	}
	if got := cli.Stats().PackedUpgrades; got != 0 {
		t.Fatalf("calls upgraded to packed without the capability bit: %d", got)
	}
}
