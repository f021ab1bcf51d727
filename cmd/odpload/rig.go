package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"

	"odp"
)

// refPayloadLen is the size of the reference round trip's message.
const refPayloadLen = 64

// refBatch is how many channel round trips one loop_* reference sample
// times: a single one is a few hundred nanoseconds, too close to the
// cost of reading the clock.
const refBatch = 16

// callQoS is the quality of service of every benchmark invocation. The
// retransmission interval is far above the default 20 ms so that a
// host stall does not turn into a retransmission, a suppressed
// duplicate and thereby a failed operation; the timer is armed and
// released the same way whatever its interval.
var callQoS = odp.QoS{Timeout: 5 * time.Second, Retransmit: time.Second}

// rigConfig says which rig a workload runs on.
type rigConfig struct {
	tcp   bool // two endpoints on loopback TCP, else the netsim fabric
	child bool // tcp only: the server is a second OS process
	woven bool // loop only: publish the cumulative-Env objects
	procs int  // GOMAXPROCS of a child server
	seed  int64
}

// rig is one cold-started client/server pair plus the reference the
// workload is measured against.
type rig struct {
	cfg    rigConfig
	srv    serverHandle
	local  *server // srv when it runs in this process
	fabric *odp.Fabric
	client *odp.Platform

	cell  odp.Ref
	woven []odp.Ref
	proxy *odp.Proxy // the workload's target, signed when it is guarded

	// Reference round trip: a plain socket to the server's plain echo
	// (tcp), or two goroutines and two unbuffered channels (loop).
	refConn  net.Conn
	refOut   []byte
	refIn    []byte
	ping     chan struct{}
	pong     chan struct{}
	pongDone chan struct{}

	// Client half of the raw frame echo, the ladder's transport rung.
	frames    odp.Endpoint
	frameDest string
	frameBack chan struct{}
}

// startRig cold-starts a rig: server, client platform, first verified
// reply. Its duration is what setup_s measures.
func startRig(cfg rigConfig) (r *rig, err error) {
	r = &rig{cfg: cfg}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()
	var cep, fep odp.Endpoint
	if cfg.tcp {
		if cfg.child {
			if r.srv, err = startChildServer(cfg.procs); err != nil {
				return
			}
		} else {
			if r.local, err = newTCPServer(); err != nil {
				return
			}
			r.srv = r.local
		}
		if cep, err = odp.ListenTCP("127.0.0.1:0"); err != nil {
			return
		}
		var raw odp.Endpoint
		if raw, err = odp.ListenTCP("127.0.0.1:0"); err != nil {
			_ = cep.Close()
			return
		}
		fep = odp.NewCoalescer(raw)
	} else {
		r.fabric = odp.NewFabric(odp.WithSeed(cfg.seed), odp.WithDefaultLink(odp.LinkProfile{}))
		var sep, sfep odp.Endpoint
		if sep, err = r.fabric.Endpoint("server"); err != nil {
			return
		}
		if sfep, err = r.fabric.Endpoint("server-frames"); err != nil {
			return
		}
		if r.local, err = newServer(sep, sfep, cfg.woven); err != nil {
			return
		}
		r.srv = r.local
		if cep, err = r.fabric.Endpoint("client"); err != nil {
			return
		}
		if fep, err = r.fabric.Endpoint("client-frames"); err != nil {
			return
		}
	}
	r.frames = fep
	r.frameBack = make(chan struct{}, 1)
	fep.SetHandler(func(string, []byte) {
		select {
		case r.frameBack <- struct{}{}:
		default: // an echo nobody waits for any more
		}
	})

	info := r.srv.serverInfo()
	r.frameDest = info.FrameAddr
	reloc, err := odp.DecodeRef(info.Relocator)
	if err != nil {
		_ = cep.Close()
		return
	}
	if r.client, err = odp.NewPlatform("client", cep, odp.WithBatching(), odp.WithRelocator(reloc)); err != nil {
		_ = cep.Close()
		return
	}
	if r.cell, err = odp.DecodeRef(info.Ref); err != nil {
		return
	}
	for _, enc := range info.Woven {
		var ref odp.Ref
		if ref, err = odp.DecodeRef(enc); err != nil {
			return
		}
		r.woven = append(r.woven, ref)
	}
	if cfg.woven {
		// The last of the cumulative-Env objects carries all four
		// constraints, the guard among them.
		r.proxy = r.client.Bind(r.woven[len(r.woven)-1]).WithQoS(callQoS).
			WithSigner(odp.NewSigner(wovenPrincipal, wovenSecret))
	} else {
		r.proxy = r.client.Bind(r.cell).WithQoS(callQoS)
	}

	// First verified reply: a fresh counter reads zero.
	out, err := r.proxy.Call(context.Background(), "get")
	if err != nil {
		return
	}
	if n, ierr := out.Int(0); ierr != nil || n != 0 {
		err = fmt.Errorf("first reply: counter reads %v (%v), want 0", out.Result(0), ierr)
		return
	}
	return
}

// openReference connects the reference round trip. It is not part of a
// cold start: a user of the platform never opens it.
func (r *rig) openReference(rng *rand.Rand) error {
	if !r.cfg.tcp {
		r.ping, r.pong = make(chan struct{}), make(chan struct{})
		r.pongDone = make(chan struct{})
		go func() {
			defer close(r.pongDone)
			for range r.ping {
				r.pong <- struct{}{}
			}
		}()
		return nil
	}
	conn, err := net.Dial("tcp", r.srv.serverInfo().EchoAddr)
	if err != nil {
		return err
	}
	r.refConn = conn
	r.refOut = make([]byte, refPayloadLen)
	r.refIn = make([]byte, refPayloadLen)
	rng.Read(r.refOut)
	return nil
}

// refRoundTrip performs one reference sample and returns how many round
// trips it held.
func (r *rig) refRoundTrip() (int, error) {
	if !r.cfg.tcp {
		for i := 0; i < refBatch; i++ {
			r.ping <- struct{}{}
			<-r.pong
		}
		return refBatch, nil
	}
	if _, err := r.refConn.Write(r.refOut); err != nil {
		return 1, err
	}
	if _, err := io.ReadFull(r.refConn, r.refIn); err != nil {
		return 1, err
	}
	if !bytes.Equal(r.refIn, r.refOut) {
		return 1, errors.New("reference echo returned different bytes")
	}
	return 1, nil
}

// frameRoundTrip sends pkt to the server's raw frame echo and waits for
// it to come back. Neither transport loses frames; should one vanish
// anyway, the process watchdog ends the run.
func (r *rig) frameRoundTrip(pkt []byte) error {
	if err := r.frames.Send(r.frameDest, pkt); err != nil {
		return err
	}
	<-r.frameBack
	return nil
}

// warmFrames exchanges raw frames until the two coalescers have
// negotiated batching, so the transport rung measures the batched path
// the platform's own endpoints use.
func (r *rig) warmFrames(pkt []byte) error {
	co, ok := r.frames.(*odp.Coalescer)
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		if err := r.frameRoundTrip(pkt); err != nil {
			return err
		}
		if i >= 16 && (!ok || co.PeerBatching(r.frameDest)) {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("raw frame endpoints did not negotiate batching")
		}
		runtime.Gosched()
	}
}

// stats returns the client's and the server's counters. When both run
// in this process the process counters are the same ones: they are
// reported on the client side and zeroed on the server side so sums
// count them once.
func (r *rig) stats() (client, server procStats, err error) {
	client = readProcStats()
	client.Gather = numericRecord(r.client.Gather())
	if r.fabric != nil {
		fs := r.fabric.Stats()
		client.Gather["netsim.sent"] = float64(fs.Sent)
	}
	if server, err = r.srv.stats(); err != nil {
		return
	}
	if r.local != nil {
		server = procStats{Gather: server.Gather, RSSKB: server.RSSKB}
	}
	return
}

func (r *rig) close() {
	if r.refConn != nil {
		_ = r.refConn.Close()
	}
	if r.ping != nil {
		close(r.ping)
		<-r.pongDone
	}
	if r.client != nil {
		_ = r.client.Close()
	}
	if r.frames != nil {
		_ = r.frames.Close()
	}
	if r.srv != nil {
		_ = r.srv.close()
	}
	if r.fabric != nil {
		_ = r.fabric.Close()
	}
}
