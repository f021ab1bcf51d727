package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"odp"
)

// cell is the benchmark's servant: one counter behind the operations the
// workloads use. It can snapshot itself, which the Recoverable
// environment constraint of loop_woven requires.
type cell struct {
	mu  sync.Mutex
	sum int64
}

func (c *cell) Dispatch(_ context.Context, op string, args []odp.Value) (string, []odp.Value, error) {
	switch op {
	case "add":
		d, ok := args[0].(int64)
		if !ok {
			return "", nil, fmt.Errorf("cell: add wants an int, got %T", args[0])
		}
		c.mu.Lock()
		c.sum += d
		s := c.sum
		c.mu.Unlock()
		return "ok", []odp.Value{s}, nil
	case "get":
		c.mu.Lock()
		s := c.sum
		c.mu.Unlock()
		return "ok", []odp.Value{s}, nil
	case "note": // announcement target
		c.mu.Lock()
		c.sum++
		c.mu.Unlock()
		return "", nil, nil
	case "echo":
		return "ok", []odp.Value{args[0]}, nil
	default:
		return "", nil, fmt.Errorf("cell: no operation %q", op)
	}
}

func (c *cell) Snapshot() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return binary.BigEndian.AppendUint64(nil, uint64(c.sum)), nil
}

func (c *cell) Restore(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("cell: snapshot of %d bytes", len(data))
	}
	c.mu.Lock()
	c.sum = int64(binary.BigEndian.Uint64(data))
	c.mu.Unlock()
	return nil
}

// The principal of loop_woven's signed proxy. The secret only has to be
// the same on both sides.
const wovenPrincipal = "odpload"

var wovenSecret = []byte("odpload benchmark shared secret")

// wovenSkew bounds credential age on the guarded objects. The guard
// remembers every nonce for this long to reject replays, so the default
// of 30 s would grow its table by a million entries in one run; 2 s is
// still far above any call's latency.
const wovenSkew = 2 * time.Second

// wovenEnvs is E15's ladder: five objects, each adding one environment
// constraint to the one before. The last is loop_woven's target.
func wovenEnvs() []odp.Env {
	managed := &odp.ManagedSpec{MetricPrefix: "woven"}
	leased := &odp.LeaseSpec{}
	recoverable := &odp.RecoverSpec{ReadOnly: map[string]bool{"get": true}}
	secured := &odp.SecureSpec{
		Policy:  odp.Policy{Rules: []odp.Rule{{Principal: wovenPrincipal, Op: "*", Allow: true}}},
		MaxSkew: wovenSkew,
	}
	return []odp.Env{
		{},
		{Managed: managed},
		{Managed: managed, Leased: leased},
		{Managed: managed, Leased: leased, Recoverable: recoverable},
		{Managed: managed, Leased: leased, Recoverable: recoverable, Secured: secured},
	}
}

// The first byte of a raw frame says whether the frame echo answers it.
// Neither value can start a coalescer control frame.
const (
	frameEcho   = 1
	frameOneWay = 2
)

// server is the serving side of every workload: a platform wired like
// `odpnode -batch` (tracing installed but unsampled, write coalescing,
// admission off) that publishes the cell, plus the two things the
// benchmark compares the platform against — a raw frame echo on a bare
// endpoint and, over TCP, a plain socket echo with no repo code on it.
type server struct {
	platform *odp.Platform
	frames   odp.Endpoint // raw frame echo
	echo     net.Listener // plain socket echo (TCP servers only)
	echoWG   sync.WaitGroup
	echoMu   sync.Mutex
	echoConn []net.Conn // accepted echo connections, closed with the server
	closed   bool       // under echoMu: later connections are refused

	info serverInfo
	// woven holds the ids of the cumulative-Env objects when the server
	// was asked to publish them; the fourth and fifth keep recovery logs.
	woven []string
}

// serverInfo is what a client needs to reach a server; a child process
// prints it as its first line of output.
type serverInfo struct {
	Ref       string   `json:"ref"`        // the cell, as odp.EncodeRef renders it
	Relocator string   `json:"relocator"`  // the server's relocation service
	Woven     []string `json:"woven"`      // cumulative-Env objects (loop_woven)
	FrameAddr string   `json:"frame_addr"` // raw frame echo endpoint
	EchoAddr  string   `json:"echo_addr"`  // plain socket echo ("" on the fabric)
}

// newServer assembles a server on ep. frames is the endpoint the raw
// frame echo answers on; withWoven also publishes E15's ladder. The
// server owns both endpoints from here on, also when it fails.
func newServer(ep, frames odp.Endpoint, withWoven bool) (*server, error) {
	p, err := odp.NewPlatform("server", ep, odp.WithTracing(), odp.WithBatching())
	if err != nil {
		_ = ep.Close()
		_ = frames.Close()
		return nil, err
	}
	s := &server{platform: p, frames: frames}
	frames.SetHandler(func(from string, pkt []byte) {
		if len(pkt) > 0 && pkt[0] == frameEcho {
			_ = frames.Send(from, pkt)
		}
	})
	s.info.FrameAddr = frames.Addr()

	ref, err := p.Publish("cell", odp.Object{Servant: &cell{}})
	if err != nil {
		s.close()
		return nil, err
	}
	if s.info.Ref, err = odp.EncodeRef(ref); err != nil {
		s.close()
		return nil, err
	}
	if s.info.Relocator, err = odp.EncodeRef(p.RelocRef); err != nil {
		s.close()
		return nil, err
	}
	if withWoven {
		p.Keys.Share(wovenPrincipal, wovenSecret)
		for i, env := range wovenEnvs() {
			id := "woven-" + strconv.Itoa(i)
			ref, err := p.Publish(id, odp.Object{Servant: &cell{}, Env: env})
			if err != nil {
				s.close()
				return nil, err
			}
			enc, err := odp.EncodeRef(ref)
			if err != nil {
				s.close()
				return nil, err
			}
			s.woven = append(s.woven, id)
			s.info.Woven = append(s.info.Woven, enc)
		}
	}
	return s, nil
}

// newTCPServer is newServer on real loopback sockets.
func newTCPServer() (*server, error) {
	ep, err := odp.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fep, err := odp.ListenTCP("127.0.0.1:0")
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	s, err := newServer(ep, odp.NewCoalescer(fep), false)
	if err != nil {
		return nil, err
	}
	if s.echo, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	s.info.EchoAddr = s.echo.Addr().String()
	s.echoWG.Add(1)
	go s.acceptEcho()
	return s, nil
}

// acceptEcho serves the reference round trip: whatever arrives in
// refPayloadLen-byte units goes straight back.
func (s *server) acceptEcho() {
	defer s.echoWG.Done()
	for {
		conn, err := s.echo.Accept()
		if err != nil {
			return // listener closed
		}
		s.echoMu.Lock()
		if s.closed {
			s.echoMu.Unlock()
			_ = conn.Close()
			continue
		}
		s.echoConn = append(s.echoConn, conn)
		s.echoMu.Unlock()
		s.echoWG.Add(1)
		go func() {
			defer s.echoWG.Done()
			buf := make([]byte, refPayloadLen)
			for {
				if _, err := io.ReadFull(conn, buf); err != nil {
					return
				}
				if _, err := conn.Write(buf); err != nil {
					return
				}
			}
		}()
	}
}

// checkpoint truncates the recovery logs of the woven objects. Every
// mutating call appends to them, so a run that never checkpointed would
// measure an ever-growing log instead of the access path.
func (s *server) checkpoint() error {
	for _, id := range s.woven[3:] {
		if err := s.platform.Mover.Checkpoint(id); err != nil {
			return err
		}
	}
	return nil
}

func (s *server) serverInfo() serverInfo { return s.info }

func (s *server) stats() (procStats, error) {
	st := readProcStats()
	st.Gather = numericRecord(s.platform.Gather())
	return st, nil
}

func (s *server) close() error {
	if s.echo != nil {
		_ = s.echo.Close()
	}
	err := s.platform.Close()
	_ = s.frames.Close()
	s.echoMu.Lock()
	s.closed = true
	for _, conn := range s.echoConn {
		_ = conn.Close()
	}
	s.echoMu.Unlock()
	s.echoWG.Wait()
	return err
}

// procStats is one process's resource counters plus its platform's
// Gather snapshot; deltas of two of them give the per-call counts.
type procStats struct {
	Mallocs     uint64             `json:"mallocs"`
	NumGC       uint32             `json:"num_gc"`
	CPUNs       int64              `json:"cpu_ns"`       // user + system
	CtxSwitches int64              `json:"ctx_switches"` // voluntary + involuntary
	Syscalls    uint64             `json:"syscalls"`     // read + write syscalls, from /proc/self/io
	RSSKB       int64              `json:"rss_kb"`
	Gather      map[string]float64 `json:"gather"`
}

func readProcStats() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := procStats{Mallocs: ms.Mallocs, NumGC: ms.NumGC}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		st.CPUNs = ru.Utime.Nano() + ru.Stime.Nano()
		st.CtxSwitches = ru.Nvcsw + ru.Nivcsw
	}
	st.Syscalls = uint64(procField("/proc/self/io", "syscr:") + procField("/proc/self/io", "syscw:"))
	st.RSSKB = procField("/proc/self/status", "VmRSS:")
	return st
}

// procField returns the first number after label in a /proc file of
// "label value" lines, or 0 when the file or the label is missing.
func procField(path, label string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, label); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// numericRecord keeps the numbers of a Gather record.
func numericRecord(rec odp.Record) map[string]float64 {
	out := make(map[string]float64, len(rec))
	for k, v := range rec {
		switch n := v.(type) {
		case uint64:
			out[k] = float64(n)
		case int64:
			out[k] = float64(n)
		case float64:
			out[k] = n
		}
	}
	return out
}

// serve is the -serve role: the second OS process of the tcp_*
// workloads. It prints its serverInfo, then answers "stats" lines on
// standard input with a procStats line until input ends — so a server
// whose driver died does not outlive it.
func serve(in io.Reader, out io.Writer) error {
	s, err := newTCPServer()
	if err != nil {
		return err
	}
	defer s.close()
	enc := json.NewEncoder(out)
	if err := enc.Encode(s.info); err != nil {
		return err
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		switch cmd := strings.TrimSpace(sc.Text()); cmd {
		case "stats":
			st, _ := s.stats()
			if err := enc.Encode(st); err != nil {
				return err
			}
		case "quit":
			return nil
		default:
			return fmt.Errorf("serve: unknown command %q", cmd)
		}
	}
	return sc.Err()
}

// serverHandle is a running server as its client sees it: in this
// process (loop_* workloads, tests) or a child process.
type serverHandle interface {
	serverInfo() serverInfo
	stats() (procStats, error)
	close() error
}

// childServer is a server running as a second OS process: this binary
// re-executed with -serve, its control channel on stdin/stdout.
type childServer struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	info  serverInfo
}

func startChildServer(procs int) (*childServer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-serve")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &childServer{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	if err := c.readLine(&c.info); err != nil {
		_ = c.close()
		return nil, fmt.Errorf("server process: %w", err)
	}
	return c, nil
}

func (c *childServer) readLine(v interface{}) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

func (c *childServer) serverInfo() serverInfo { return c.info }

func (c *childServer) stats() (procStats, error) {
	var st procStats
	if _, err := io.WriteString(c.stdin, "stats\n"); err != nil {
		return st, err
	}
	err := c.readLine(&st)
	return st, err
}

// close ends the child and waits for it: closing its input is the
// request, a kill the fallback.
func (c *childServer) close() error {
	_ = c.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		return <-done
	}
}
