package odp_test

// Helpers for driving whole-platform scenarios under the deterministic
// simulation harness (internal/sim): platforms share the simulation's
// fake clock, and blocking operations run on scenario goroutines while
// the test goroutine advances virtual time.

import (
	"testing"
	"time"

	"odp"
	"odp/internal/sim"
)

// simPlatform creates a platform on the simulation's fabric, running on
// its clock.
func simPlatform(t *testing.T, s *sim.Sim, name string, opts ...odp.Option) *odp.Platform {
	t.Helper()
	ep, err := s.Fabric.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	opts = append(opts, odp.WithClock(s.Clock))
	p, err := odp.NewPlatform(name, ep, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// Close parks on virtual timers too (janitor stop, in-flight call
	// timeouts), so teardown must keep advancing the clock.
	t.Cleanup(func() { s.Drain(func() { _ = p.Close() }) })
	return p
}

// driveCall runs fn on its own goroutine and advances virtual time until
// it returns, then reports its error. Run settles before it first moves
// the clock, and on the universe's one P that yield runs fn to its first
// park (a packet sent, a timer armed), so already-scheduled noise —
// janitor ticks — cannot reorder ahead of fn's own first event.
func driveCall(t testing.TB, s *sim.Sim, budget time.Duration, fn func() error) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	var err error
	s.Run(t, budget, func() bool {
		select {
		case err = <-errc:
			return true
		default:
			return false
		}
	})
	return err
}
