package main

import (
	"fmt"
	"time"

	"odp"
)

// nodeConfig collects the wiring inputs for one odpnode platform, so the
// flag-driven main path and test harnesses build nodes the same way.
type nodeConfig struct {
	name      string
	traderCtx string
	storeDir  string
	relocator string
	// traceEvery samples one root trace in n (0 = sampling off). The
	// collector itself is always installed: unsampled tracing is free on
	// the hot path, and the "obs.sample_every" management parameter can
	// turn sampling on against a live node.
	traceEvery int
	// series > 0 samples the node's metrics snapshot at this interval, so
	// the management "series" op serves rates and odptop shows them.
	series time.Duration
	// sloDispatchP99 > 0 arms the flight recorder: a dispatch p99 above
	// this ceiling (or six windows without dispatch progress while armed)
	// captures a black-box report behind the "blackbox" op. Implies a
	// recorder even without -series.
	sloDispatchP99 time.Duration
	// clk, when non-nil, drives the whole node in virtual time
	// (odp.WithClock). Deterministic-simulation setups share one
	// odp.FakeClock across every node and the fabric; the TCP main path
	// leaves it nil for real time.
	clk odp.Clock
}

// platformOptions translates a nodeConfig into platform construction
// options.
func platformOptions(cfg nodeConfig) ([]odp.Option, error) {
	tracing := odp.WithTracing()
	if cfg.traceEvery > 0 {
		tracing = odp.WithTracing(odp.TraceSampleEvery(uint64(cfg.traceEvery)))
	}
	opts := []odp.Option{tracing}
	if cfg.storeDir != "" {
		store, err := odp.NewFileStore(cfg.storeDir)
		if err != nil {
			return nil, err
		}
		opts = append(opts, odp.WithStore(store))
	}
	if cfg.traderCtx != "" {
		opts = append(opts, odp.WithTrader(cfg.traderCtx))
	}
	if cfg.relocator != "" {
		ref, err := odp.DecodeRef(cfg.relocator)
		if err != nil {
			return nil, fmt.Errorf("bad -relocator: %w", err)
		}
		opts = append(opts, odp.WithRelocator(ref))
	}
	if cfg.series > 0 {
		opts = append(opts, odp.WithRecorder(cfg.series))
	}
	if cfg.sloDispatchP99 > 0 {
		p99us := float64(cfg.sloDispatchP99) / float64(time.Microsecond)
		opts = append(opts, odp.WithFlightRecorder(
			odp.CeilingRule("dispatch-p99", "rpc.server.dispatch_p99", p99us),
			odp.StallRule("dispatch-stall", "rpc.server.requests", 6),
		))
	}
	if cfg.clk != nil {
		opts = append(opts, odp.WithClock(cfg.clk))
	}
	return opts, nil
}

// newNode builds the platform for cfg on ep.
func newNode(ep odp.Endpoint, cfg nodeConfig) (*odp.Platform, error) {
	opts, err := platformOptions(cfg)
	if err != nil {
		return nil, err
	}
	return odp.NewPlatform(cfg.name, ep, opts...)
}
