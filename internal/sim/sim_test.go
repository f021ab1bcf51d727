package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"odp/internal/netsim"
)

// pingUniverse wires two endpoints where "b" echoes every packet back to
// "a", and returns a counter of echoes a has received.
func pingUniverse(t *testing.T, s *Sim) (send func(), echoes *atomic.Int64) {
	t.Helper()
	a, err := s.Fabric.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Fabric.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	a.SetHandler(func(string, []byte) { n.Add(1) })
	b.SetHandler(func(from string, pkt []byte) { _ = b.Send(from, pkt) })
	return func() {
		if err := a.Send("b", []byte("ping")); err != nil {
			t.Fatal(err)
		}
	}, &n
}

// TestRunAdvancesToCondition: Run fires chained virtual deliveries (send,
// echo) without any real sleeping, and stops at the condition.
func TestRunAdvancesToCondition(t *testing.T) {
	s := New(1, WithDefaultLink(netsim.LinkProfile{Latency: 5 * time.Millisecond}))
	defer s.Close()
	send, echoes := pingUniverse(t, s)
	send()
	s.Run(t, time.Second, func() bool { return echoes.Load() == 1 })
	if got := s.Elapsed(); got != 10*time.Millisecond {
		t.Fatalf("echo round-trip took %v of virtual time, want 10ms", got)
	}
}

// TestRunStallFails: Run must report a stall — condition unmet, nothing
// scheduled — instead of spinning.
func TestRunStallFails(t *testing.T) {
	s := New(2)
	defer s.Close()
	ft := &fakeT{T: t}
	s.runDetached(ft, time.Second, func() bool { return false })
	if !ft.failed.Load() {
		t.Fatal("Run did not fail on a stalled simulation")
	}
}

// TestRunBudgetFails: a condition that needs more virtual time than the
// budget fails rather than advancing forever.
func TestRunBudgetFails(t *testing.T) {
	s := New(3, WithDefaultLink(netsim.LinkProfile{Latency: 50 * time.Millisecond}))
	defer s.Close()
	send, echoes := pingUniverse(t, s)
	send()
	ft := &fakeT{T: t}
	s.runDetached(ft, 20*time.Millisecond, func() bool { return echoes.Load() >= 1 })
	if !ft.failed.Load() {
		t.Fatal("Run did not fail when the virtual budget was exhausted")
	}
}

// fakeT captures Fatalf instead of aborting, so the failure paths of Run
// are themselves testable. Fatalf must not return; it parks the goroutine
// like testing.T's runtime.Goexit.
type fakeT struct {
	*testing.T
	failed atomic.Bool
	fired  chan struct{}
}

func (f *fakeT) Fatalf(string, ...interface{}) {
	if f.failed.CompareAndSwap(false, true) {
		close(f.fired)
	}
	select {}
}

// runDetached drives Run on a throwaway goroutine — fakeT.Fatalf parks
// that goroutine instead of aborting the test, so the caller waits for
// either a clean return or a captured failure.
func (s *Sim) runDetached(t *fakeT, budget time.Duration, until func() bool) {
	t.fired = make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(t, budget, until)
	}()
	select {
	case <-done:
	case <-t.fired:
	case <-time.After(5 * time.Second):
		t.T.Fatal("Run neither returned nor failed")
	}
}

// TestRunForFiresWindow: RunFor fires every event inside the window,
// including events scheduled by earlier events.
func TestRunForFiresWindow(t *testing.T) {
	s := New(4)
	defer s.Close()
	var order []string
	s.Clock.AfterFunc(10*time.Millisecond, func() {
		order = append(order, "first")
		s.Clock.AfterFunc(5*time.Millisecond, func() {
			order = append(order, "chained")
		})
	})
	s.RunFor(20 * time.Millisecond)
	if len(order) != 2 || order[0] != "first" || order[1] != "chained" {
		t.Fatalf("order = %v, want [first chained]", order)
	}
	if got := s.Elapsed(); got != 20*time.Millisecond {
		t.Fatalf("elapsed %v, want exactly 20ms", got)
	}
}

// TestSettleWaitsForSilentWork: a goroutine that a clock callback spawns,
// and that computes without touching clock or fabric before it arms a
// timer, is invisible to every counter Settle reads — only the yield
// itself waits for it. With more than one P, Settle returned while the
// goroutine was still burning on another P and NextDeadline missed the
// timer; on the universe's one P it cannot.
func TestSettleWaitsForSilentWork(t *testing.T) {
	s := New(6)
	defer s.Close()
	s.Clock.AfterFunc(10*time.Millisecond, func() {
		go func() {
			for start := time.Now(); time.Since(start) < 200*time.Microsecond; {
			}
			s.Clock.AfterFunc(5*time.Millisecond, func() {})
		}()
	})
	s.RunFor(10 * time.Millisecond)
	next, ok := s.Clock.NextDeadline()
	if want := Epoch.Add(15 * time.Millisecond); !ok || !next.Equal(want) {
		t.Fatalf("NextDeadline after RunFor = %v, %v; want the second timer at %v", next, ok, want)
	}
}

// TestUniverseOwnsOneP: GOMAXPROCS is 1 from New to Close and back to
// what New found afterwards — also after a Drain that runs once the
// universe is closed, as every t.Cleanup teardown does.
func TestUniverseOwnsOneP(t *testing.T) {
	before := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(before)
	s := New(7)
	if got := runtime.GOMAXPROCS(0); got != 1 {
		t.Fatalf("GOMAXPROCS inside a universe = %d, want 1", got)
	}
	s.Close()
	if got := runtime.GOMAXPROCS(0); got != 4 {
		t.Fatalf("GOMAXPROCS after Close = %d, want 4", got)
	}
	s.Drain(func() {
		if got := runtime.GOMAXPROCS(0); got != 1 {
			t.Errorf("GOMAXPROCS inside a post-Close Drain = %d, want 1", got)
		}
		s.Clock.Sleep(time.Second)
	})
	if got := runtime.GOMAXPROCS(0); got != 4 {
		t.Fatalf("GOMAXPROCS after a post-Close Drain = %d, want 4", got)
	}
}

// TestFaultPlanAppliesAtInstants: the plan's partition window is visible
// to packets sent inside it and invisible outside it.
func TestFaultPlanAppliesAtInstants(t *testing.T) {
	s := New(5, WithDefaultLink(netsim.LinkProfile{Latency: time.Millisecond}))
	defer s.Close()
	send, echoes := pingUniverse(t, s)

	s.Install(NewFaultPlan().
		At(10*time.Millisecond).Partition("a", "b").
		At(30*time.Millisecond).Heal("a", "b"))

	send()
	s.Run(t, 5*time.Millisecond, func() bool { return echoes.Load() == 1 })

	s.RunFor(15 * time.Millisecond) // now inside the partition window
	send()
	s.RunFor(5 * time.Millisecond)
	if echoes.Load() != 1 {
		t.Fatal("packet crossed an open partition")
	}

	s.RunFor(15 * time.Millisecond) // heal at +30ms has fired
	send()
	s.Run(t, 10*time.Millisecond, func() bool { return echoes.Load() == 2 })

	if cut := s.Fabric.Stats().Cut; cut == 0 {
		t.Fatal("partition window cut nothing")
	}
}

// TestSameSeedSameHash: two universes with the same seed and scenario
// produce byte-identical event-trace hashes; a different seed (different
// fault instants) diverges.
func TestSameSeedSameHash(t *testing.T) {
	scenario := func(seed int64) string {
		s := New(seed,
			WithDefaultLink(netsim.LinkProfile{Latency: 2 * time.Millisecond}),
		)
		defer s.Close()
		send, echoes := pingUniverse(t, s)
		cut := time.Duration(10+s.Rand().Intn(20)) * time.Millisecond
		s.Install(NewFaultPlan().
			At(cut).Partition("a", "b").
			At(cut+20*time.Millisecond).Heal("a", "b"))
		want := int64(0)
		for i := 0; i < 5; i++ {
			send()
			want++
			s.RunFor(4 * time.Millisecond)
		}
		s.RunFor(60 * time.Millisecond)
		_ = echoes.Load()
		s.Mark("done echoes=%d", echoes.Load())
		return s.Trace.Hash()
	}
	h1, h2 := scenario(7), scenario(7)
	if h1 != h2 {
		t.Fatalf("same seed diverged:\n%s\n%s", h1, h2)
	}
	if h3 := scenario(8); h3 == h1 {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestSweepRunsAllSeeds: a passing scenario visits every seed with a
// distinct universe.
func TestSweepRunsAllSeeds(t *testing.T) {
	var seeds []int64
	Sweep(t, 4, func(t *testing.T, s *Sim) {
		seeds = append(seeds, s.Seed())
	})
	if len(seeds) != 4 {
		t.Fatalf("visited %d seeds, want 4", len(seeds))
	}
	for i, got := range seeds {
		if got != int64(i) {
			t.Fatalf("seeds = %v, want 0..3 in order", seeds)
		}
	}
}

// TestSeedsFromEnv honours the override and falls back to the default.
func TestSeedsFromEnv(t *testing.T) {
	t.Setenv("ODP_SIM_SEEDS", "")
	if got := SeedsFromEnv(3); got != 3 {
		t.Fatalf("default: %d", got)
	}
	t.Setenv("ODP_SIM_SEEDS", "16")
	if got := SeedsFromEnv(3); got != 16 {
		t.Fatalf("override: %d", got)
	}
	t.Setenv("ODP_SIM_SEEDS", "bogus")
	if got := SeedsFromEnv(3); got != 3 {
		t.Fatalf("bogus: %d", got)
	}
}
