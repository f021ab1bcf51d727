package odp_test

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"odp"
)

func TestEncodeDecodeRef(t *testing.T) {
	ref := odp.Ref{
		ID:        "obj-1",
		TypeName:  "Thing",
		Endpoints: []string{"tcp:10.0.0.1:7000", "inproc:n1"},
		Epoch:     5,
		Context:   []string{"org-a", "gw"},
	}
	enc, err := odp.EncodeRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := odp.DecodeRef(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != ref.ID || got.TypeName != ref.TypeName || got.Epoch != ref.Epoch ||
		len(got.Endpoints) != 2 || got.Endpoints[0] != ref.Endpoints[0] ||
		len(got.Context) != 2 || got.Context[1] != "gw" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := odp.DecodeRef("not base64 !!!"); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := odp.DecodeRef("aGVsbG8="); err == nil {
		t.Fatal("non-ref payload decoded")
	}
}

func TestEncodeDecodeRefProperty(t *testing.T) {
	prop := func(id, typeName, ep string, epoch uint32) bool {
		ref := odp.Ref{ID: id, TypeName: typeName, Endpoints: []string{ep}, Epoch: epoch}
		enc, err := odp.EncodeRef(ref)
		if err != nil {
			return false
		}
		got, err := odp.DecodeRef(enc)
		if err != nil {
			return false
		}
		return got.ID == id && got.TypeName == typeName && got.Epoch == epoch &&
			len(got.Endpoints) == 1 && got.Endpoints[0] == ep
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIQuickstart is the doc-comment example as a test: the
// public façade alone is enough to build a working system.
func TestPublicAPIQuickstart(t *testing.T) {
	fabric := odp.NewFabric()
	t.Cleanup(func() { _ = fabric.Close() })
	sep, err := fabric.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	node, err := odp.NewPlatform("server", sep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	ref, err := node.Publish("greeter", odp.Object{
		Servant: odp.ServantFunc(func(_ context.Context, op string, args []odp.Value) (string, []odp.Value, error) {
			return "ok", []odp.Value{"hello, " + args[0].(string)}, nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	cep, err := fabric.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	client, err := odp.NewPlatform("client", cep, odp.WithRelocator(node.RelocRef))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	out, err := client.Bind(ref).Call(context.Background(), "greet", "world")
	if err != nil || !out.Is("ok") {
		t.Fatalf("call: %+v %v", out, err)
	}
	if s, _ := out.Str(0); s != "hello, world" {
		t.Fatalf("got %q", s)
	}
}

func TestDefaultQoS(t *testing.T) {
	q := odp.DefaultQoS()
	if q.Timeout <= 0 || q.Retransmit <= 0 {
		t.Fatalf("degenerate default QoS %+v", q)
	}
	if q.Retransmit >= q.Timeout {
		t.Fatal("retransmit interval exceeds timeout")
	}
}

func TestPublicTCPPlatform(t *testing.T) {
	// A platform over real TCP through the public API alone.
	sep, err := odp.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server, err := odp.NewPlatform("server", sep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	ref, err := server.Publish("cell", odp.Object{
		Servant: odp.ServantFunc(func(_ context.Context, op string, args []odp.Value) (string, []odp.Value, error) {
			return "ok", []odp.Value{int64(42)}, nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	cep, err := odp.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := odp.NewPlatform("client", cep, odp.WithRelocator(server.RelocRef))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	out, err := client.Bind(ref).WithQoS(odp.QoS{Timeout: 5 * time.Second}).
		Call(context.Background(), "get")
	if err != nil || !out.Is("ok") {
		t.Fatalf("tcp call: %+v %v", out, err)
	}
}

// TestNodesSpeakTheirCodecFromTheFirstCall: nothing chooses a codec per
// peer or per call. Between two fresh default platforms every call is
// sent packed (rpc.client.packed_upgrades counts exactly the calls made),
// also when they are built with the WithBatching option that survives
// for old callers; between two text platforms none is.
func TestNodesSpeakTheirCodecFromTheFirstCall(t *testing.T) {
	const calls = 10
	for name, tc := range map[string]struct {
		opts []odp.Option
		want uint64
	}{
		"default":          {nil, calls},
		"default+batching": {[]odp.Option{odp.WithBatching()}, calls},
		"text":             {[]odp.Option{odp.WithCodec(odp.TextCodec{})}, 0},
	} {
		t.Run(name, func(t *testing.T) {
			fabric := odp.NewFabric()
			t.Cleanup(func() { _ = fabric.Close() })
			node := func(name string) *odp.Platform {
				ep, err := fabric.Endpoint(name)
				if err != nil {
					t.Fatal(err)
				}
				p, err := odp.NewPlatform(name, ep, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = p.Close() })
				return p
			}
			server, client := node("server"), node("client")
			ref, err := server.Publish("cell", odp.Object{Servant: &countingServant{}})
			if err != nil {
				t.Fatal(err)
			}
			proxy := client.Bind(ref)
			for i := 0; i < calls; i++ {
				if _, err := proxy.Call(context.Background(), "add"); err != nil {
					t.Fatal(err)
				}
			}
			if got, _ := client.Gather()["rpc.client.packed_upgrades"].(uint64); got != tc.want {
				t.Fatalf("rpc.client.packed_upgrades = %d after %d calls, want %d", got, calls, tc.want)
			}
		})
	}
}
