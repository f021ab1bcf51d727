package odp_test

// Cold-start gate: a platform pays for what it uses. Starting one on a
// fabric endpoint, making one interrogation and closing it may allocate
// at most coldStartBudget bytes. Before the announcement dedup window
// was built by the first announcement, the same sequence read about
// 950 KiB, nine tenths of it sixteen windows nothing ever looked into.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"odp"
)

const coldStartBudget = 256 << 10

func TestColdStartAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f := odp.NewFabric(odp.WithSeed(1))
	defer f.Close()
	sep, err := f.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	server, err := odp.NewPlatform("server", sep)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ref, err := server.Publish("cell", odp.Object{Servant: &countingServant{}})
	if err != nil {
		t.Fatal(err)
	}

	coldStart := func(name string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ep, err := f.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := odp.NewPlatform(name, ep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Bind(ref).WithQoS(odp.QoS{Timeout: 30 * time.Second}).Call(context.Background(), "add"); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	least := coldStart("cold0") // the least of three: the first also warms the server
	for _, name := range []string{"cold1", "cold2"} {
		if b := coldStart(name); b < least {
			least = b
		}
	}
	if least > coldStartBudget {
		t.Fatalf("platform start + one interrogation + close allocates %d KiB, budget %d KiB", least>>10, coldStartBudget>>10)
	}
	t.Logf("platform start + one interrogation + close: %d KiB (budget %d KiB)", least>>10, coldStartBudget>>10)
}
