package odp_test

// Export pin: the record a node's Gather exports — every key, the Go
// kind of every value and, where a seeded simulation reproduces it, the
// value itself — and the per-domain rollup built from it. Remote
// inspectors (odptop, the benchmark harness) and the flight recorder
// read these bytes, so a change to how metrics are kept inside a node
// must leave them where they are.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"odp"
	"odp/internal/sim"
)

// exportLines renders rec as sorted "key kind value" lines.
func exportLines(rec odp.Record) string {
	lines := make([]string, 0, len(rec))
	for k, v := range rec {
		val := fmt.Sprint(v)
		if f, ok := v.(float64); ok {
			val = strconv.FormatFloat(f, 'g', -1, 64)
		}
		lines = append(lines, fmt.Sprintf("%s %T %s", k, v, val))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// pinHash checks the sha256 of text against want, printing text on a
// mismatch so the moved line can be read off.
func pinHash(t *testing.T, what, text, want string) {
	t.Helper()
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(text)))[:16]
	if got != want {
		t.Errorf("%s hash = %s, want %s:\n%s", what, got, want, text)
	}
}

// runExportSim builds the pinned scenario and returns the server's
// Gather and the rollup of the two tagged nodes as exportLines text.
func runExportSim(t *testing.T) (gather, domains string) {
	t.Helper()
	s := sim.New(47, sim.WithDefaultLink(odp.LinkProfile{Latency: 500 * time.Microsecond}))
	defer s.Close()

	// The recorder's interval and the group's heartbeat stay off the
	// server janitor's 1 s tick (see runFlightSim).
	server := simPlatform(t, s, "server",
		odp.WithDomain("east"),
		odp.WithTracing(odp.TraceSampleEvery(1)),
		odp.WithTrader("pin"),
		odp.WithRecorder(900*time.Millisecond),
		odp.WithFlightRecorder(
			odp.CeilingRule("dispatch-p99", "rpc.server.dispatch_p99", 1000),
			odp.StallRule("no-progress", "rpc.server.requests", 3),
		))
	client := simPlatform(t, s, "client",
		odp.WithDomain("east"),
		odp.WithTracing(odp.TraceSampleEvery(1)))

	// Each servant spends its own span of virtual time, so the latency
	// gauges read distinct values and the rollup sums two of them.
	sleeper := func(d time.Duration, err error) odp.Servant {
		return odp.ServantFunc(func(context.Context, string, []odp.Value) (string, []odp.Value, error) {
			s.Clock.Sleep(d)
			if err != nil {
				return "", nil, err
			}
			return "ok", nil, nil
		})
	}
	ok := sleeper(3*time.Millisecond, nil)
	managed := odp.Env{Managed: &odp.ManagedSpec{MetricPrefix: "pinned"}}
	okRef, err := server.Publish("pinned-ok", odp.Object{Servant: ok, Env: managed})
	if err != nil {
		t.Fatal(err)
	}
	refuseRef, err := server.Publish("pinned-refuse", odp.Object{
		Servant: sleeper(2*time.Millisecond, errors.New("refused")), Env: managed})
	if err != nil {
		t.Fatal(err)
	}
	backRef, err := client.Publish("pinned-back", odp.Object{
		Servant: sleeper(time.Millisecond, nil), Env: managed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Trader.Advertise(workType(), okRef, map[string]odp.Value{"tier": "pin"}); err != nil {
		t.Fatal(err)
	}
	var rep *odp.Replicated
	if err := driveCall(t, s, time.Minute, func() error {
		rep, err = odp.PublishReplicated([]*odp.Platform{server}, odp.ReplicaSpec{
			GroupID:           "pin",
			Mode:              odp.ModeActive,
			HeartbeatInterval: 37 * time.Millisecond,
			FailureTimeout:    400 * time.Millisecond,
		}, func() odp.Servant { return ok })
		return err
	}); err != nil {
		t.Fatalf("replica group: %v", err)
	}
	defer func() { s.Drain(rep.Stop) }()

	ctx := context.Background()
	qos := odp.QoS{Timeout: 30 * time.Second, Retransmit: 50 * time.Millisecond}
	call := func(ref odp.Ref) error {
		return driveCall(t, s, time.Minute, func() error {
			_, err := client.Bind(ref).WithQoS(qos).Call(ctx, "work")
			return err
		})
	}
	if err := driveCall(t, s, time.Minute, func() error {
		_, err := odp.NewTraderClient(client, server.Trader.Ref()).ImportOne(ctx, odp.ImportSpec{Requirement: workType()})
		return err
	}); err != nil {
		t.Fatalf("import: %v", err)
	}
	if err := driveCall(t, s, time.Minute, func() error {
		_, err := server.Bind(backRef).WithQoS(qos).Call(ctx, "work")
		return err
	}); err != nil {
		t.Fatalf("call back: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := call(okRef); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if err := call(refuseRef); err == nil {
		t.Fatal("the refusing servant's call succeeded")
	}
	if err := call(rep.Ref()); err != nil {
		t.Fatalf("group call: %v", err)
	}
	s.RunFor(4 * time.Second)
	server.Observer().SetSampleEvery(0)
	client.Observer().SetSampleEvery(0)

	// Every value is pinned: a seeded replay reproduces all of them, with
	// and without the race detector.
	return exportLines(server.Gather()), exportLines(odp.GatherDomains(server, client))
}

// TestMetricsExportPinned pins the exported Gather record of a node that
// holds every metric source the platform has — the layers' stats, the
// latency histograms, tracing, a flight recorder, a trader, a replica
// group member and two Managed objects under one prefix, one of whose
// calls errors — plus the rollup of two tagged nodes and the seed-43
// black box of TestSimFlightRecorderBreachDeterministic.
func TestMetricsExportPinned(t *testing.T) {
	gather, domains := runExportSim(t)
	for _, key := range []string{
		"domain string east",
		"registry.c.pinned.calls uint64 4",
		"registry.c.pinned.errors uint64 1",
		"registry.g.pinned.last_us float64 2000",
		"group.pin.executed uint64 1",
	} {
		if !strings.Contains(gather, key+"\n") {
			t.Errorf("gather lacks %q", key)
		}
	}
	pinHash(t, "gather", gather, "8e38764ca2de1cfc")
	pinHash(t, "domains", domains, "ac77df83b9fd756c")
	pinHash(t, "seed-43 black box", runFlightSim(t, 43), "fbc1ff9404365dbe")
}
