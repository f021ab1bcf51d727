package capsule

import (
	"context"
	"errors"
	"testing"
	"time"

	"odp/internal/rpc"
	"odp/internal/wire"
)

// TestBusyRetrySucceedsAfterBackoff: an invocation shed by server-side
// admission control is transparently retried with exponential backoff
// and lands once the server's bucket refills.
func TestBusyRetrySucceedsAfterBackoff(t *testing.T) {
	f := newFabric(t)
	// One-token burst, fast refill: the bucket is full again well
	// within the first backoff sleep.
	server := newCapsule(t, f, "server",
		WithAdmission(rpc.AdmissionConfig{Rate: 500, Burst: 1}))
	client := newCapsule(t, f, "client")
	ref, err := server.Export(&counter{}, WithType(counterType()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Drain the burst token.
	if _, _, err := client.Invoke(ctx, ref, "inc", []wire.Value{int64(1)}); err != nil {
		t.Fatalf("first invoke: %v", err)
	}
	// Without retry the shed surfaces as ErrServerBusy.
	if _, _, err := client.Invoke(ctx, ref, "inc", []wire.Value{int64(1)}); !errors.Is(err, rpc.ErrServerBusy) {
		t.Fatalf("unretried invoke: err = %v, want ErrServerBusy", err)
	}
	// With retry the same call backs off and succeeds.
	outcome, res, err := client.Invoke(ctx, ref, "inc", []wire.Value{int64(1)},
		WithBusyRetry(5, 10*time.Millisecond))
	if err != nil || outcome != "ok" {
		t.Fatalf("retried invoke: %q %v %v", outcome, res, err)
	}
	if res[0].(int64) != 2 {
		t.Fatalf("counter = %v, want 2 (shed invoke must not have executed)", res[0])
	}
}

// TestBusyRetryGivesUp: when the bucket never refills, the retry budget
// is exhausted and ErrServerBusy propagates to the caller.
func TestBusyRetryGivesUp(t *testing.T) {
	f := newFabric(t)
	server := newCapsule(t, f, "server",
		WithAdmission(rpc.AdmissionConfig{Rate: 0, Burst: 1}))
	client := newCapsule(t, f, "client")
	ref, err := server.Export(&counter{}, WithType(counterType()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := client.Invoke(ctx, ref, "get", nil); err != nil {
		t.Fatalf("drain invoke: %v", err)
	}
	_, _, err = client.Invoke(ctx, ref, "get", nil,
		WithBusyRetry(2, time.Millisecond))
	if !errors.Is(err, rpc.ErrServerBusy) {
		t.Fatalf("err = %v, want ErrServerBusy after retries exhausted", err)
	}
}

// TestBusyRetryHonoursDeadline: a shed call whose busy backoff outlasts
// its deadline returns at the deadline, with ErrServerBusy or the
// context's error, instead of blocking for the whole backoff (§5.2:
// applications do not hang). The watchdog fails the test rather than
// waiting out the hour.
func TestBusyRetryHonoursDeadline(t *testing.T) {
	f := newFabric(t)
	server := newCapsule(t, f, "server",
		WithAdmission(rpc.AdmissionConfig{Rate: 0, Burst: 1}))
	client := newCapsule(t, f, "client")
	ref, err := server.Export(&counter{}, WithType(counterType()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Invoke(context.Background(), ref, "get", nil); err != nil {
		t.Fatalf("drain invoke: %v", err)
	}
	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := client.Invoke(ctx, ref, "get", nil, WithBusyRetry(1, time.Hour))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, rpc.ErrServerBusy) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want ErrServerBusy or the deadline", err)
		}
	case <-time.After(deadline + time.Second):
		t.Fatal("Invoke still blocked 1 s past its deadline: busy backoff ignores the context")
	}
}
