package migrate

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"odp/internal/transport"
	"strings"
	"sync"
	"testing"
	"time"

	"odp/internal/capsule"
	"odp/internal/naming"
	"odp/internal/netsim"
	"odp/internal/rpc"
	"odp/internal/storage"
	"odp/internal/types"
	"odp/internal/wire"
)

var codec = wire.PackedCodec{}

// tally is a migratable servant: a named counter.
type tally struct {
	mu sync.Mutex
	n  int64
}

func (c *tally) Dispatch(_ context.Context, op string, args []wire.Value) (string, []wire.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch op {
	case "add":
		c.n += args[0].(int64)
		return "ok", []wire.Value{c.n}, nil
	case "get":
		return "ok", []wire.Value{c.n}, nil
	default:
		return "", nil, fmt.Errorf("tally: no op %q", op)
	}
}

func (c *tally) Snapshot() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, uint64(c.n))
	return buf, nil
}

func (c *tally) Restore(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = int64(binary.BigEndian.Uint64(data))
	return nil
}

func tallyType() types.Type {
	return types.Type{
		Name: "Tally",
		Ops: map[string]types.Operation{
			"add": {Args: []types.Desc{types.Int}, Outcomes: map[string][]types.Desc{"ok": {types.Int}}},
			"get": {Outcomes: map[string][]types.Desc{"ok": {types.Int}}},
		},
	}
}

var tallyReadOnly = map[string]bool{"get": true}

type env struct {
	t      *testing.T
	fabric *netsim.Fabric
	table  *naming.Table
}

func newEnv(t *testing.T) *env {
	f := netsim.NewFabric()
	t.Cleanup(func() { _ = f.Close() })
	return &env{t: t, fabric: f, table: naming.NewTable()}
}

func (e *env) host(name string, store storage.Store) (*Host, *capsule.Capsule) {
	e.t.Helper()
	ep, err := e.fabric.Endpoint(name)
	if err != nil {
		e.t.Fatal(err)
	}
	c := capsule.New(name, transport.NewCoalescer(ep), codec)
	e.t.Cleanup(func() { _ = c.Close() })
	h, err := newHost(c, store, e.table)
	if err != nil {
		e.t.Fatal(err)
	}
	h.RegisterFactory("Tally", func() Servant { return &tally{} })
	return h, c
}

// newHost builds a host whose weaver gives an incarnation what the host
// alone knows of it: the gate, the recovery log when it is logged, and
// the type check.
func newHost(c *capsule.Capsule, store storage.Store, registrar Registrar) (*Host, error) {
	var h *Host
	weave := func(inc Incarnation) (wire.Ref, error) {
		path := []capsule.Interceptor{inc.Gate}
		if inc.Logged {
			path = append(path, h.RecoveryLog(inc.ID, inc.ReadOnly))
		}
		opts := []capsule.ExportOption{capsule.WithID(inc.ID), capsule.WithInterceptors(path...)}
		if inc.Type.Name != "" {
			opts = append(opts, capsule.WithType(inc.Type))
		}
		return c.Export(inc.Servant, opts...)
	}
	h, err := NewHost(c, store, registrar, weave)
	return h, err
}

func (e *env) client(name string) *capsule.Capsule {
	e.t.Helper()
	ep, err := e.fabric.Endpoint(name)
	if err != nil {
		e.t.Fatal(err)
	}
	c := capsule.New(name, transport.NewCoalescer(ep), codec)
	e.t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestMigratePreservesStateAndIdentity(t *testing.T) {
	e := newEnv(t)
	src, _ := e.host("src", storage.NewMemStore())
	dst, _ := e.host("dst", storage.NewMemStore())
	client := e.client("client")
	ctx := context.Background()

	ref, err := src.Manage(Incarnation{ID: "tally-1", Type: tallyType(), Servant: &tally{n: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Invoke(ctx, ref, "add", []wire.Value{int64(5)}); err != nil {
		t.Fatal(err)
	}
	newRef, err := src.Migrate(ctx, "tally-1", dst.AcceptorRef())
	if err != nil {
		t.Fatal(err)
	}
	if newRef.ID != "tally-1" || newRef.Endpoints[0] != "dst" {
		t.Fatalf("migrated ref %v", newRef)
	}
	if newRef.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", newRef.Epoch)
	}
	// Fresh clients via the new ref see the moved state.
	_, res, err := client.Invoke(ctx, newRef, "get", nil)
	if err != nil || res[0].(int64) != 15 {
		t.Fatalf("post-migration get: %v %v", res, err)
	}
	// Clients holding the STALE ref are forwarded transparently.
	_, res, err = client.Invoke(ctx, ref, "add", []wire.Value{int64(1)})
	if err != nil || res[0].(int64) != 16 {
		t.Fatalf("stale-ref invoke: %v %v", res, err)
	}
	// The relocator learned the move.
	got, err := e.table.Lookup("tally-1")
	if err != nil || got.Endpoints[0] != "dst" {
		t.Fatalf("relocator entry: %v %v", got, err)
	}
}

func TestMigrateUnknownObject(t *testing.T) {
	e := newEnv(t)
	src, _ := e.host("src", storage.NewMemStore())
	dst, _ := e.host("dst", storage.NewMemStore())
	if _, err := src.Migrate(context.Background(), "nope", dst.AcceptorRef()); err == nil {
		t.Fatal("migrating unknown object succeeded")
	}
}

func TestMigrateNoFactoryRefused(t *testing.T) {
	e := newEnv(t)
	src, _ := e.host("src", storage.NewMemStore())
	// Destination without the Tally factory.
	ep, err := e.fabric.Endpoint("bare")
	if err != nil {
		t.Fatal(err)
	}
	c := capsule.New("bare", transport.NewCoalescer(ep), codec)
	t.Cleanup(func() { _ = c.Close() })
	bare, err := newHost(c, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Manage(Incarnation{ID: "tally-1", Type: tallyType(), Servant: &tally{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Migrate(context.Background(), "tally-1", bare.AcceptorRef()); err == nil {
		t.Fatal("migration to factory-less host succeeded")
	}
	// Source must still serve the object (refused migration is not
	// destructive).
	client := e.client("client")
	_, res, err := client.Invoke(context.Background(), wire.Ref{
		ID: "tally-1", Endpoints: []string{"src"},
	}, "get", nil)
	if err != nil || res[0].(int64) != 0 {
		t.Fatalf("object lost after refused migration: %v %v", res, err)
	}
}

func TestPassivateAndTransparentReactivation(t *testing.T) {
	e := newEnv(t)
	h, _ := e.host("node", storage.NewMemStore())
	client := e.client("client")
	ctx := context.Background()

	ref, err := h.Manage(Incarnation{ID: "sleeper", Type: tallyType(), Servant: &tally{n: 42}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Passivate("sleeper"); err != nil {
		t.Fatal(err)
	}
	if !h.IsPassive("sleeper") {
		t.Fatal("object not in passive store")
	}
	// The client keeps using the same reference; the activator
	// reinstates the object on demand.
	_, res, err := client.Invoke(ctx, ref, "add", []wire.Value{int64(1)})
	if err != nil || res[0].(int64) != 43 {
		t.Fatalf("invoke after passivation: %v %v", res, err)
	}
	if h.IsPassive("sleeper") {
		t.Fatal("object still passive after reactivation")
	}
	// Type checking survives the passivation round trip.
	if _, _, err := client.Invoke(ctx, ref, "add", []wire.Value{"not an int"}); err == nil {
		t.Fatal("type checking lost across passivation")
	}
	// Passivate again: the cycle repeats.
	if err := h.Passivate("sleeper"); err != nil {
		t.Fatal(err)
	}
	_, res, err = client.Invoke(ctx, ref, "get", nil)
	if err != nil || res[0].(int64) != 43 {
		t.Fatalf("second reactivation: %v %v", res, err)
	}
}

// The interceptor assembles a log record from parts; the bytes must stay
// the packed vector [op, List(args)] that Recover decodes and that logs
// written before it did so hold.
func TestLogRecordIsTheEncodedVector(t *testing.T) {
	e := newEnv(t)
	store := storage.NewMemStore()
	h, _ := e.host("node1", store)
	client := e.client("client")
	ref, err := h.Manage(Incarnation{ID: "t1", Servant: &tally{}, Logged: true, ReadOnly: tallyReadOnly})
	if err != nil {
		t.Fatal(err)
	}
	calls := [][]wire.Value{{int64(7)}, {int64(-1) << 40}}
	for _, args := range calls {
		if _, _, err := client.Invoke(context.Background(), ref, "add", args); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := store.ReadLog("oplog/t1")
	if err != nil || len(recs) != len(calls) {
		t.Fatalf("log: %d records, %v", len(recs), err)
	}
	for i, args := range calls {
		want, err := wire.EncodeAll(wire.PackedCodec{}, []wire.Value{"add", wire.List(args)})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recs[i], want) {
			t.Fatalf("record %d: %x, want %x", i, recs[i], want)
		}
	}
}

func TestCheckpointRecoveryExactState(t *testing.T) {
	e := newEnv(t)
	store := storage.NewMemStore() // survives the "crash"
	h1, c1 := e.host("node1", store)
	client := e.client("client")
	ctx := context.Background()

	ref, err := h1.Manage(Incarnation{ID: "t1", Type: tallyType(), Servant: &tally{}, Logged: true, ReadOnly: tallyReadOnly})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if _, _, err := client.Invoke(ctx, ref, "add", []wire.Value{i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h1.Checkpoint("t1"); err != nil {
		t.Fatal(err)
	}
	for i := int64(6); i <= 8; i++ {
		if _, _, err := client.Invoke(ctx, ref, "add", []wire.Value{i}); err != nil {
			t.Fatal(err)
		}
	}
	// Reads must not bloat the log.
	if _, _, err := client.Invoke(ctx, ref, "get", nil); err != nil {
		t.Fatal(err)
	}
	recs, _ := store.ReadLog("oplog/t1")
	if len(recs) != 3 {
		t.Fatalf("log has %d records, want 3 (post-checkpoint mutations only)", len(recs))
	}

	// Crash node1; recover on node2 from the shared store.
	_ = c1.Close()
	e.fabric.Isolate("node1", true)
	h2, _ := e.host("node2", store)
	newRef, err := h2.Recover(ctx, "t1", "Tally", tallyReadOnly, ref.Epoch+1)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := client.Invoke(ctx, newRef, "get", nil)
	if err != nil || res[0].(int64) != 36 { // 1+..+8
		t.Fatalf("recovered state: %v %v (want 36)", res, err)
	}
	// The relocator points clients with stale refs at the replacement.
	got, err := e.table.Lookup("t1")
	if err != nil || got.Endpoints[0] != "node2" {
		t.Fatalf("relocator after recovery: %v %v", got, err)
	}
	// End to end: a binder-equipped client holding the stale ref finds
	// the replacement.
	relocCap := e.client("reloc")
	table2, relocRef, err := naming.ExportRelocator(relocCap)
	if err != nil {
		t.Fatal(err)
	}
	table2.Register(got)
	binder := naming.NewBinder(client, relocRef)
	_, res, err = binder.Invoke(ctx, ref, "add", []wire.Value{int64(4)},
		capsule.WithQoS(rpc.QoS{Timeout: 300 * time.Millisecond}))
	if err != nil || res[0].(int64) != 40 {
		t.Fatalf("stale-ref recovery invoke: %v %v", res, err)
	}
}

func TestRecoveryWithoutCheckpointReplaysAll(t *testing.T) {
	e := newEnv(t)
	store := storage.NewMemStore()
	h1, c1 := e.host("node1", store)
	client := e.client("client")
	ctx := context.Background()
	ref, err := h1.Manage(Incarnation{ID: "t1", Servant: &tally{}, Logged: true, ReadOnly: tallyReadOnly})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		if _, _, err := client.Invoke(ctx, ref, "add", []wire.Value{i}); err != nil {
			t.Fatal(err)
		}
	}
	_ = c1.Close()
	h2, _ := e.host("node2", store)
	newRef, err := h2.Recover(ctx, "t1", "Tally", tallyReadOnly, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := client.Invoke(ctx, newRef, "get", nil)
	if err != nil || res[0].(int64) != 10 {
		t.Fatalf("replayed state %v %v, want 10", res, err)
	}
}

// TestRecoverRejectsOldFormatLog: the store holds what the fixed-width
// binary codec (deleted with the per-call negotiation) wrote for add(3) — literal bytes, since nothing can produce them any more.
// There is no second decoder: recovery must fail loudly on the record,
// never replay a misreading of it.
func TestRecoverRejectsOldFormatLog(t *testing.T) {
	e := newEnv(t)
	store := storage.NewMemStore()
	old := []byte{
		0, 0, 0, 2, // two values
		5, 0, 0, 0, 3, 'a', 'd', 'd', // string "add"
		7, 0, 0, 0, 1, // list of one
		2, 0, 0, 0, 0, 0, 0, 0, 3, // int 3
	}
	if err := store.AppendLog("oplog/t1", old); err != nil {
		t.Fatal(err)
	}
	h, _ := e.host("node", store)
	_, err := h.Recover(context.Background(), "t1", "Tally", tallyReadOnly, 1)
	if err == nil || !strings.Contains(err.Error(), "corrupt log record 0") {
		t.Fatalf("recover over an old-format log: err = %v, want corrupt log record 0", err)
	}
}

func TestCheckpointRequiresLogging(t *testing.T) {
	e := newEnv(t)
	h, _ := e.host("node", storage.NewMemStore())
	if _, err := h.Manage(Incarnation{ID: "plain", Servant: &tally{}}); err != nil {
		t.Fatal(err)
	}
	if err := h.Checkpoint("plain"); err == nil {
		t.Fatal("checkpoint without recovery log accepted")
	}
}

func TestMigrationUnderLiveLoad(t *testing.T) {
	// E7's core scenario: clients keep invoking while the object moves;
	// every invocation eventually lands, none observes stale state.
	e := newEnv(t)
	src, _ := e.host("src", storage.NewMemStore())
	dst, _ := e.host("dst", storage.NewMemStore())
	client := e.client("client")
	ctx := context.Background()

	ref, err := src.Manage(Incarnation{ID: "hot", Type: tallyType(), Servant: &tally{}})
	if err != nil {
		t.Fatal(err)
	}
	const total = 100
	var wg sync.WaitGroup
	errCh := make(chan error, total)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			_, _, err := client.Invoke(ctx, ref, "add", []wire.Value{int64(1)},
				capsule.WithQoS(rpc.QoS{Timeout: 5 * time.Second}))
			if err != nil {
				errCh <- fmt.Errorf("invoke %d: %w", i, err)
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if _, err := src.Migrate(ctx, "hot", dst.AcceptorRef()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	_, res, err := client.Invoke(ctx, ref, "get", nil)
	if err != nil || res[0].(int64) != total {
		t.Fatalf("final count %v %v, want %d", res, err, total)
	}
}
