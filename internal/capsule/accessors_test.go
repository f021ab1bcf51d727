package capsule

import (
	"context"
	"sort"
	"testing"

	"odp/internal/wire"
)

func TestAccessorsAndRegistry(t *testing.T) {
	f := newFabric(t)
	c := newCapsule(t, f, "n1")
	if c.Name() != "n1" || c.Addr() != "n1" {
		t.Fatalf("name/addr: %q %q", c.Name(), c.Addr())
	}
	if c.Codec().Name() != (wire.PackedCodec{}).Name() {
		t.Fatalf("codec %q", c.Codec().Name())
	}
	if c.Client() == nil {
		t.Fatal("nil client")
	}
	cnt := &counter{}
	ref, err := c.Export(cnt, WithID("one"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Export(&counter{}, WithID("two")); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Lookup("one")
	if !ok || got != Servant(cnt) {
		t.Fatal("Lookup did not return the registered servant")
	}
	if _, ok := c.Lookup("missing"); ok {
		t.Fatal("Lookup found a ghost")
	}
	ids := c.Objects()
	sort.Strings(ids)
	if len(ids) != 2 || ids[0] != "one" || ids[1] != "two" {
		t.Fatalf("objects %v", ids)
	}
	_ = ref
}

func TestServerStatsCount(t *testing.T) {
	f := newFabric(t)
	server := newCapsule(t, f, "server")
	client := newCapsule(t, f, "client")
	ref, err := server.Export(&counter{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := client.Invoke(context.Background(), ref, "get", nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := server.ServerStats(); st.Requests != 3 {
		t.Fatalf("server stats %+v", st)
	}
}

func TestForceRemoteTakesTheStack(t *testing.T) {
	f := newFabric(t)
	c := newCapsule(t, f, "n1")
	ref, err := c.Export(&counter{})
	if err != nil {
		t.Fatal(err)
	}
	// Default: optimised, no protocol traffic.
	if _, _, err := c.Invoke(context.Background(), ref, "get", nil); err != nil {
		t.Fatal(err)
	}
	if st := c.ServerStats(); st.Requests != 0 {
		t.Fatalf("optimised invoke hit the stack: %+v", st)
	}
	// ForceRemote: the same invocation travels the full protocol path.
	if _, _, err := c.Invoke(context.Background(), ref, "get", nil, ForceRemote()); err != nil {
		t.Fatal(err)
	}
	if st := c.ServerStats(); st.Requests != 1 {
		t.Fatalf("ForceRemote bypassed the stack: %+v", st)
	}
}
