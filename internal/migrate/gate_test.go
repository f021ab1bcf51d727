package migrate

import (
	"context"
	"errors"
	"testing"
	"time"

	"odp/internal/rpc"
	"odp/internal/storage"
	"odp/internal/wire"
)

// TestGateQuiesceWaitsForInflight pins the quiesce protocol: quiesce
// drains in-flight invocations without holding any lock across them, and
// new invocations wait at the gate until reopen.
func TestGateQuiesceWaitsForInflight(t *testing.T) {
	g := &gate{}
	if err := g.enter(); err != nil {
		t.Fatal(err)
	}
	quiesced := make(chan struct{})
	go func() {
		if err := g.quiesce(); err != nil {
			t.Error(err)
		}
		close(quiesced)
	}()
	select {
	case <-quiesced:
		t.Fatal("quiesce returned while an invocation was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	g.exit()
	<-quiesced

	entered := make(chan error, 1)
	go func() { entered <- g.enter() }()
	select {
	case <-entered:
		t.Fatal("enter admitted an invocation during quiesce")
	case <-time.After(20 * time.Millisecond):
	}
	g.reopen()
	if err := <-entered; err != nil {
		t.Fatal(err)
	}
	g.exit()
}

// TestGateCommitMovedBouncesWaiters pins the cut-over: invocations held
// at a quiesced gate are released with the forwarding error, and the
// object cannot be quiesced again once moved.
func TestGateCommitMovedBouncesWaiters(t *testing.T) {
	g := &gate{}
	if err := g.quiesce(); err != nil {
		t.Fatal(err)
	}
	entered := make(chan error, 1)
	go func() { entered <- g.enter() }()
	fwd := wire.Ref{ID: "x", Endpoints: []string{"dst"}}
	g.commitMoved(fwd)
	err := <-entered
	var moved *rpc.MovedError
	if !errors.As(err, &moved) || moved.Forward.ID != "x" {
		t.Fatalf("held invocation got %v, want MovedError to x", err)
	}
	if err := g.quiesce(); err == nil {
		t.Fatal("quiesce succeeded on a moved gate")
	}
}

// TestFailedMigrateReopensGate is the regression test for the bring-up
// finding that Migrate held the gate mutex across the remote accept: a
// migration that fails at the destination must leave the object fully
// servable, with no lock or quiesce leaked.
func TestFailedMigrateReopensGate(t *testing.T) {
	e := newEnv(t)
	src, c := e.host("src", storage.NewMemStore())
	ref, err := src.Manage(Incarnation{ID: "tally-1", Type: tallyType(), Servant: &tally{n: 3}})
	if err != nil {
		t.Fatal(err)
	}
	bogus := wire.Ref{ID: "gone/migrate-acceptor", Endpoints: []string{"gone"}}
	if _, err := src.Migrate(context.Background(), "tally-1", bogus); err == nil {
		t.Fatal("migrate to unreachable host succeeded")
	}
	outcome, results, err := c.Invoke(context.Background(), ref, "get", nil)
	if err != nil {
		t.Fatalf("object unreachable after failed migrate: %v", err)
	}
	if outcome != "ok" || len(results) != 1 || results[0].(int64) != 3 {
		t.Fatalf("got %q %v, want ok [3]", outcome, results)
	}
}
