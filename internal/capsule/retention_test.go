package capsule

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"odp/internal/wire"
)

// keeper retains what the Servant contract lets it: every argument as
// handed over, and a clone of op.
type keeper struct {
	mu   sync.Mutex
	ops  []string
	args [][]wire.Value
}

func (k *keeper) Dispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.ops = append(k.ops, strings.Clone(op))
	k.args = append(k.args, args)
	return "ok", nil, nil
}

// retentionArgs builds call i's argument vector: one value of every kind
// that can alias a packet, the same sizes for every i and different
// bytes, so a recycled buffer holds a later call's payload exactly where
// an earlier call's values would still be pointing.
func retentionArgs(i int) []wire.Value {
	tag := fmt.Sprintf("%08d", i)
	return []wire.Value{
		"str-" + tag,
		[]byte("raw-" + tag),
		wire.List{"elem-" + tag, []byte("eraw-" + tag), int64(i)},
		wire.Record{"name": "field-" + tag, "blob": []byte("fraw-" + tag)},
		wire.Ref{
			ID:        "id-" + tag,
			TypeName:  "type-" + tag,
			Endpoints: []string{"ep-" + tag, "alt-" + tag},
			Epoch:     7,
			Context:   []string{"ctx-" + tag},
		},
	}
}

// TestServantMayKeepItsArguments pins §4.4's ownership promise on the
// path production runs: a packed node on an inline-delivery fabric
// dispatches every request out of the packet it arrived in, the packet's
// buffer is recycled as soon as the handler returns, and what a servant
// kept of call i must still read as sent after 200 further calls have
// been through the same buffers.
func TestServantMayKeepItsArguments(t *testing.T) {
	f := newFabric(t)
	server := newCapsule(t, f, "server")
	client := newCapsule(t, f, "client")
	k := &keeper{}
	ref, err := server.Export(k)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 201
	opName := func(i int) string { return fmt.Sprintf("keep-%08d", i) }
	for i := 0; i < calls; i++ {
		if _, _, err := client.Invoke(context.Background(), ref, opName(i), retentionArgs(i)); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.args) != calls {
		t.Fatalf("servant ran %d times, want %d", len(k.args), calls)
	}
	for i := 0; i < calls; i++ {
		if k.ops[i] != opName(i) {
			t.Errorf("call %d: kept op reads %q, want %q", i, k.ops[i], opName(i))
		}
		want := retentionArgs(i)
		for j := range want {
			if !wire.Equal(k.args[i][j], want[j]) {
				t.Errorf("call %d arg %d: kept value reads %v, want %v", i, j, k.args[i][j], want[j])
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}
