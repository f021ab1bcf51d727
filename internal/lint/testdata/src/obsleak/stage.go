// Package obsleak is a known-bad corpus for the obsleak pass: steps from
// Stage.Begin that miss Stage.End on some path, alongside clean shapes
// the pass must not flag.
package obsleak

import (
	"context"
	"time"

	"odp/internal/obs"
)

// StepNeverEnded begins a stage pass and hands its step to nothing but a
// read: its span and its count are lost.
func StepNeverEnded(ctx context.Context, s *obs.Stage) {
	_, st := s.Begin(ctx, obs.SpanContext{}, "op", time.Time{})
	_ = st.Span.Valid()
}

// StepEndedOnOnePath ends its step only after an early return.
func StepEndedOnOnePath(ctx context.Context, s *obs.Stage, fail bool) error {
	ctx, st := s.Begin(ctx, obs.SpanContext{}, "op", time.Time{})
	if fail {
		return ctx.Err()
	}
	s.End(st, nil)
	return nil
}

// StepDiscarded drops the step at the call.
func StepDiscarded(ctx context.Context, s *obs.Stage) {
	s.Begin(ctx, obs.SpanContext{}, "op", time.Time{})
	ctx, _ = s.Begin(ctx, obs.SpanContext{}, "op", time.Time{})
	_ = ctx
}

// StepEnded is clean: the End follows with no return between.
func StepEnded(ctx context.Context, s *obs.Stage) error {
	ctx, st := s.Begin(ctx, obs.SpanContext{}, "op", time.Time{})
	err := ctx.Err()
	s.End(st, err)
	return err
}

// StepDeferred is clean: a deferred End covers every return, and a
// return inside a closure returns from the closure only.
func StepDeferred(ctx context.Context, s *obs.Stage, fail bool) error {
	ctx, st := s.Begin(ctx, obs.SpanContext{}, "op", time.Time{})
	check := func() error { return ctx.Err() }
	defer s.End(st, nil)
	if fail {
		return check()
	}
	return nil
}

// StepEndedAtItsInstant is clean: End's instant is kept for what follows.
func StepEndedAtItsInstant(ctx context.Context, s *obs.Stage) time.Time {
	ctx, st := s.Begin(ctx, obs.SpanContext{}, "op", time.Time{})
	end := s.End(st, ctx.Err())
	return end
}
