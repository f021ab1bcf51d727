package txn

import (
	"context"
	"errors"
	"testing"
	"time"

	"odp/internal/clock"
)

// TestLockTimeoutFakeClock drives the lock manager's cross-manager
// deadlock fallback with a manual clock: a conflicting acquire times out
// exactly when logical time crosses maxWait.
func TestLockTimeoutFakeClock(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	lm := NewLockManager(5*time.Second, fake)
	if err := lm.Acquire(context.Background(), "A", "res", true); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- lm.Acquire(context.Background(), "B", "res", true)
	}()
	for i := 0; i < 500; i++ {
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrLockTimeout) {
				t.Fatalf("err = %v, want ErrLockTimeout", err)
			}
			return
		default:
			fake.Advance(time.Second)
			time.Sleep(2 * time.Millisecond)
		}
	}
	t.Fatal("conflicting acquire never timed out under fake clock")
}
