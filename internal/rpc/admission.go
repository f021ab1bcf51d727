package rpc

import "time"

// AdmissionConfig bounds per-client request admission with a token
// bucket: each client (keyed by transport address) starts with Burst
// tokens, earns Rate tokens per second, and spends one per invocation.
// A request arriving at an empty bucket is shed with an immediate
// statusBusy reply (surfaced as ErrServerBusy) instead of queueing —
// the paper's QoS annotations (§5.1) want overload reported, not
// absorbed into unbounded latency. Announcements at an empty bucket are
// dropped and counted (§5.1: announcement failures cannot be reported).
type AdmissionConfig struct {
	// Rate is tokens added per second per client.
	Rate float64
	// Burst is the bucket capacity and initial balance.
	Burst int
}

// admissionIdleTTL is how long an untouched bucket pins its peer record
// when it cannot refill (Rate 0); a returning client simply mints a fresh
// full bucket, which is exactly the state an idle one converges to anyway.
const admissionIdleTTL = time.Minute

// tokenBucket is one client's admission state. It lives in the client's
// peerCalls record, under that record's mutex, and runs on the server
// clock, so admission windows are deterministic under a clock.Fake.
type tokenBucket struct {
	spent   float64 // tokens drawn and not yet earned back: the zero bucket is full
	touched time.Time
}

// owed is what is still spent at now. Called with the peer's mu held.
func (b *tokenBucket) owed(cfg *AdmissionConfig, now time.Time) float64 {
	if elapsed := now.Sub(b.touched); elapsed > 0 {
		return max(0, b.spent-elapsed.Seconds()*cfg.Rate)
	}
	return b.spent
}

// admit spends one token, reporting false when the bucket is empty (the
// caller sheds the invocation). Called with the peer's mu held.
func (b *tokenBucket) admit(cfg *AdmissionConfig, now time.Time) bool {
	b.spent, b.touched = b.owed(cfg, now), now
	if float64(cfg.Burst)-b.spent < 1 {
		return false
	}
	b.spent++
	return true
}

// idle reports a bucket that holds nothing a fresh one would not: full
// again, or untouched past admissionIdleTTL. Called with the peer's mu held.
func (b *tokenBucket) idle(cfg *AdmissionConfig, now time.Time) bool {
	return cfg == nil || b.owed(cfg, now) == 0 || now.Sub(b.touched) > admissionIdleTTL
}
