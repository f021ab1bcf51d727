// Command odpnode runs one ODP node over real TCP, for cross-process
// deployments.
//
// The node hosts a platform (capsule, relocator or remote relocation
// binding, migration host, collector, management agent), optionally a
// trading service, and a demo echo interface. It prints the encoded
// references other processes need to reach it, then serves until
// interrupted.
//
// Example, one shell per process:
//
//	odpnode -name alpha -listen 127.0.0.1:7001 -trader org-a
//	odpnode -name beta  -listen 127.0.0.1:7002 -relocator <ref printed by alpha>
//	odpcall -ref <echo ref printed by alpha> -op echo -arg hello
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"odp"
)

func main() {
	var (
		name       = flag.String("name", "node", "node name (scopes object identifiers)")
		listen     = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		traderCtx  = flag.String("trader", "", "host a trading service under this federation context name")
		storeDir   = flag.String("store", "", "directory for durable storage (default: in-memory)")
		relocator  = flag.String("relocator", "", "encoded reference of an existing relocation service")
		echoSvc    = flag.Bool("echo", true, "publish a demo echo interface")
		traceEvery = flag.Int("trace-every", 0, "sample one trace in n invocations (0 = off; retune live via the obs.sample_every management parameter)")
		series     = flag.Duration("series", 0, "sample the node's metrics at this interval so the management \"series\" op serves rates (0 = off)")
		sloP99     = flag.Duration("slo-dispatch-p99", 0, "arm the flight recorder with this dispatch p99 ceiling; breaches land behind the \"blackbox\" op (0 = off)")
	)
	flag.Parse()
	cfg := nodeConfig{
		name:           *name,
		traderCtx:      *traderCtx,
		storeDir:       *storeDir,
		relocator:      *relocator,
		traceEvery:     *traceEvery,
		series:         *series,
		sloDispatchP99: *sloP99,
	}
	if err := run(*listen, *echoSvc, cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(listen string, echoSvc bool, cfg nodeConfig) error {
	name := cfg.name
	ep, err := odp.ListenTCP(listen)
	if err != nil {
		return err
	}
	node, err := newNode(ep, cfg)
	if err != nil {
		return err
	}
	defer node.Close()

	fmt.Printf("node %q listening on %s\n", name, ep.Addr())
	printRef := func(label string, ref odp.Ref) {
		enc, err := odp.EncodeRef(ref)
		if err != nil {
			return
		}
		fmt.Printf("  %-12s %s\n", label+":", enc)
	}
	if node.RelocTable != nil {
		printRef("relocator", node.RelocRef)
	}
	printRef("management", node.Agent.Ref())
	if node.Trader != nil {
		printRef("trader", node.Trader.Ref())
	}
	if echoSvc {
		echoType := odp.Type{
			Name: "Echo",
			Ops: map[string]odp.Operation{
				"echo": {Args: []odp.Desc{odp.String}, Outcomes: map[string][]odp.Desc{"ok": {odp.String}}},
			},
		}
		ref, err := node.Publish("echo", odp.Object{
			Servant: odp.ServantFunc(func(_ context.Context, op string, args []odp.Value) (string, []odp.Value, error) {
				if op != "echo" {
					return "", nil, fmt.Errorf("echo: no operation %q", op)
				}
				s, _ := args[0].(string)
				return "ok", []odp.Value{name + ": " + strings.ToUpper(s)}, nil
			}),
			Type: echoType,
			Env:  odp.Env{Managed: &odp.ManagedSpec{MetricPrefix: "echo"}},
		})
		if err != nil {
			return err
		}
		printRef("echo", ref)
		if node.Trader != nil {
			if _, err := node.Trader.Advertise(echoType, ref, map[string]odp.Value{"node": name}); err != nil {
				return err
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Println("serving; interrupt to stop")
	<-ctx.Done()
	fmt.Println("shutting down")
	return nil
}
