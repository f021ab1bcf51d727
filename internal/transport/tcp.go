package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"odp/internal/clock"
)

// TCPEndpoint carries the datagram abstraction over real TCP connections,
// for cross-process deployments (cmd/odpnode). The peer address belongs
// to the connection, not to the frame: the dialling side opens with one
// hello,
//
//	'O' 'D' 'P' | u8 version | u16 addrLen | addr
//
// (the acceptor sends none — the dialler knows whom it dialled), and
// everything after it, in both directions, is frames:
//
//	u32 pktLen | pkt
//
// The hello is versioned so that what else identifies a peer (an
// incarnation epoch, say) has a place to go; an unknown version, a bad
// magic or an absurd length drops the connection.
//
// Connections are cached per destination and re-dialled on failure. TCP's
// reliability simply means the loss probability is zero; the invocation
// protocol above is identical to the simulated case.
//
// Each connection owns a write mutex and a reusable frame header:
// concurrent senders serialize per connection, so frames never interleave
// (a single net.Conn.Write may issue several syscalls on partial writes)
// and steady-state sends allocate nothing. Its reader owns one buffer
// that a single Read fills and the handler drains frame by frame, so a
// burst of frames costs one syscall, not one per length prefix.
//
// The handler runs on the reader, which holds the connection — its read
// baton — while it does; a coalescer over the endpoint delivers each
// frame of a batch there too. A delivery that runs past its bound (a
// handler blocked on a reply that is still unread behind it, say; see
// clock.Watch) has the baton taken by the connection's watch: a fresh
// reader starts on copies of the rest of the batch and of the unread
// bytes, and the stalled one exits when its handler returns. So a
// blocked handler never stalls another delivery, and the endpoint
// delivers concurrently.
type TCPEndpoint struct {
	listener net.Listener
	addr     string

	handler atomic.Value              // ChainHandler
	co      atomic.Pointer[Coalescer] // set when a coalescer unpacks what is read here
	closed  atomic.Bool               // written under mu, read by sends and read loops without it

	// conns (peer address → *tcpConn) is the route a send takes, found
	// without a lock. live is under mu, which only connect and close take.
	conns sync.Map
	mu    sync.Mutex
	live  map[*tcpConn]struct{} // every connection with a running read loop
	wg    sync.WaitGroup
}

var (
	_ Endpoint            = (*TCPEndpoint)(nil)
	_ ConcurrentDeliverer = (*TCPEndpoint)(nil)
)

// maxRetainedBuf is the size of a connection's read buffer and bounds
// the buffers kept between packets: one oversized frame must not pin its
// storage for the connection's lifetime.
const maxRetainedBuf = 64 << 10

const (
	helloMagic   = "ODP"
	helloVersion = 1
	helloHdrLen  = len(helloMagic) + 1 + 2 // magic, version, u16 address length
	maxHelloAddr = 4096
	frameHdrLen  = 4 // u32 packet length
)

var errBadStream = errors.New("transport: malformed tcp stream")

// tcpConn is one connection with its serialized write path and the
// watch over its reader's deliveries.
type tcpConn struct {
	conn  net.Conn
	watch *clock.Watch
	rd    *tcpReader    // the reader holding the baton; written before its first Begin
	wrote atomic.Uint64 // frames written, which tell the watch a delivery waits on the peer

	wmu   sync.Mutex
	wbuf  []byte      // reusable frame header (and hello), guarded by wmu
	wvec  [2][]byte   // the frame's two parts, header and packet, guarded by wmu
	wcur  net.Buffers // the part of wvec WriteTo has yet to write, guarded by wmu
	hello int         // bytes of wbuf that are the hello the first frame carries
}

// writeFrame frames and transmits one packet: its length header (after
// the hello, on a connection's first frame) and the packet go to the
// kernel as one writev (net.Buffers uses writev on TCP connections), so
// a coalesced batch crosses the stream in a single syscall and is not
// copied again on this side. The write mutex keeps the frame atomic on
// the stream even when the kernel accepts it in several partial writes.
func (c *tcpConn) writeFrame(pkt []byte) error {
	c.wmu.Lock()
	c.wbuf = binary.BigEndian.AppendUint32(c.wbuf[:c.hello], uint32(len(pkt)))
	c.hello = 0
	c.wvec = [2][]byte{c.wbuf, pkt}
	// WriteTo consumes its receiver as it drains, so it gets a slice of
	// the connection's own array: a local vector escapes through the
	// method and costs every frame an allocation. The packet is only
	// read, never modified.
	c.wcur = c.wvec[:]
	_, err := c.wcur.WriteTo(c.conn)
	c.wvec = [2][]byte{}
	c.wmu.Unlock()
	c.wrote.Add(1)
	return err
}

// tcpReader holds a connection's read baton: the connection, the peer
// on its other end (the one dialled, or named by the hello), the bytes
// read and not yet delivered, and the batch being unpacked from them.
type tcpReader struct {
	tc   *tcpConn
	peer string
	s    frameStream
	u    unpacking // under tc.watch; u.p is nil between batches
}

func (tc *tcpConn) newReader(peer string, buf []byte) *tcpReader {
	return &tcpReader{tc: tc, peer: peer, s: frameStream{buf: buf}, u: unpacking{w: tc.watch}}
}

// newConn wraps a dialled or accepted connection.
func (e *TCPEndpoint) newConn(conn net.Conn) *tcpConn {
	tc := &tcpConn{conn: conn}
	tc.watch = clock.NewWatch(&tc.wrote, func() { e.handOff(tc) })
	return tc
}

// ListenTCP creates an endpoint bound to bind (e.g. "127.0.0.1:0"). The
// advertised address is "tcp:" + the bound address.
func ListenTCP(bind string) (*TCPEndpoint, error) {
	l, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	e := &TCPEndpoint{
		listener: l,
		addr:     "tcp:" + l.Addr().String(),
		live:     make(map[*tcpConn]struct{}),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr implements Endpoint.
func (e *TCPEndpoint) Addr() string { return e.addr }

// SetHandler implements Endpoint.
func (e *TCPEndpoint) SetHandler(h Handler) { e.handler.Store(chained(h)) }

// DeliversConcurrently implements ConcurrentDeliverer: a stalled delivery
// hands its connection to a fresh reader.
func (e *TCPEndpoint) DeliversConcurrently() bool { return true }

// connFor returns the cached connection for to, dialling one if needed.
func (e *TCPEndpoint) connFor(to string) (*tcpConn, error) {
	hostport, ok := stripScheme(to)
	if !ok {
		return nil, fmt.Errorf("%w: bad address %q", ErrUnreachable, to)
	}
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if v, ok := e.conns.Load(to); ok {
		return v.(*tcpConn), nil
	}

	conn, err := net.Dial("tcp", hostport)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	// The hello leaves in the first frame's write, so only the dial that
	// wins the race below ever names this endpoint to the peer: a loser
	// is closed having said nothing, and cannot take the peer's route.
	tc := e.newConn(conn)
	tc.wbuf = appendHello(nil, e.addr)
	tc.hello = len(tc.wbuf)
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		_ = conn.Close()
		return nil, ErrClosed
	}
	if v, raced := e.conns.LoadOrStore(to, tc); raced {
		// Raced with another sender; keep the first connection.
		e.mu.Unlock()
		_ = conn.Close()
		return v.(*tcpConn), nil
	}
	e.live[tc] = struct{}{}
	e.wg.Add(1)
	e.mu.Unlock()
	// Replies may come back on this same connection.
	go e.readLoop(tc, to)
	return tc, nil
}

// dropConn forgets a broken connection so the next send re-dials. The
// packet in flight is lost — exactly the datagram semantics the
// protocol above expects.
func (e *TCPEndpoint) dropConn(to string, tc *tcpConn) {
	e.conns.CompareAndDelete(to, tc)
	_ = tc.conn.Close()
}

// Send implements Endpoint. to must have the form "tcp:host:port". The
// packet crosses the stream as one frame via a single writev.
func (e *TCPEndpoint) Send(to string, pkt []byte) error {
	if len(pkt) > MaxPacket {
		return ErrTooLarge
	}
	tc, err := e.connFor(to)
	if err != nil {
		return err
	}
	if err := tc.writeFrame(pkt); err != nil {
		e.dropConn(to, tc)
	}
	return nil
}

// Close implements Endpoint. It closes every live connection — also one
// that has not yet said who it is, or that no send would ever pick — so
// every read loop it waits for is on its way out.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return nil
	}
	e.closed.Store(true)
	for tc := range e.live { // each read loop takes its own entries with it
		_ = tc.conn.Close()
	}
	e.mu.Unlock()

	_ = e.listener.Close()
	e.wg.Wait()
	return nil
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		tc := e.newConn(conn)
		e.mu.Lock()
		if e.closed.Load() {
			e.mu.Unlock()
			_ = conn.Close()
			return
		}
		e.live[tc] = struct{}{}
		e.wg.Add(1)
		e.mu.Unlock()
		go e.readLoop(tc, "")
	}
}

// readLoop delivers the frames of one connection. peer is the address on
// the other end: the one dialled, or empty on an accepted connection,
// whose hello then names it.
func (e *TCPEndpoint) readLoop(tc *tcpConn, peer string) {
	e.serve(tc.newReader(peer, make([]byte, maxRetainedBuf)))
}

// serve runs r until the connection ends, then forgets the connection —
// unless r handed it to a fresh reader, which then does.
func (e *TCPEndpoint) serve(r *tcpReader) {
	defer e.wg.Done()
	if e.read(r) {
		return
	}
	tc := r.tc
	_ = tc.conn.Close()
	e.mu.Lock()
	delete(e.live, tc)
	e.mu.Unlock()
	e.conns.CompareAndDelete(r.peer, tc)
}

// read is the reader's loop. Each turn hands the handler every complete
// frame in the buffer as a slice of it (the Handler contract forbids
// retaining pkt), then fills the buffer with one Read, so a settled
// connection allocates nothing and a burst costs one syscall. A reader
// handed a connection first finishes the batch its predecessor stalled
// in, then goes on with the frames it left. It reports whether a stalled
// delivery handed the connection on.
func (e *TCPEndpoint) read(r *tcpReader) bool {
	tc, s := r.tc, &r.s
	tc.rd = r
	if r.u.p != nil && !r.u.deliver(r.u.rest, r.u.left) {
		return true
	}
	for {
		if r.peer != "" {
			co := e.co.Load()
			h, _ := e.handler.Load().(ChainHandler)
			for {
				pkt, ok, err := s.next()
				if err != nil {
					return false
				}
				if !ok {
					break
				}
				switch {
				case co != nil:
					if !co.deliverOn(&r.u, r.peer, pkt) {
						return true
					}
				case h != nil:
					if !r.u.deliverOne(h, r.peer, pkt) {
						return true
					}
				}
			}
		}
		if err := s.fill(tc.conn); err != nil || e.closed.Load() {
			return false
		}
		r.u.at = time.Time{} // each read starts a delivery
		if r.peer == "" {
			peer, err := s.hello()
			if err != nil {
				return false
			}
			if peer == "" {
				continue
			}
			// Now that the peer has a name, replies reuse this connection
			// instead of dialling back (essential when the peer is behind
			// an ephemeral port). Only the connection the peer sends on
			// says hello, so the latest to do so is the route, even while
			// a predecessor the peer dropped is still being read here.
			r.peer = peer
			e.conns.Store(peer, tc)
		}
	}
}

// handOff runs on the connection's watch while its reader's delivery is
// stalled: a fresh reader takes the connection, its peer, and copies of
// the rest of the batch being unpacked and of the unread bytes — the
// stalled delivery's packet still lives in the old buffer.
func (e *TCPEndpoint) handOff(tc *tcpConn) {
	old := tc.rd
	unread := old.s.buf[old.s.r:old.s.w]
	r := tc.newReader(old.peer, make([]byte, max(maxRetainedBuf, len(unread))))
	r.s.w = copy(r.s.buf, unread)
	if old.u.p != nil {
		r.u.p, r.u.h, r.u.from = old.u.p, old.u.h, old.u.from
		r.u.rest, r.u.left = append([]byte(nil), old.u.rest...), old.u.left
	}
	e.wg.Add(1) // the stalled reader is still counted: never from zero
	go e.serve(r)
}

// frameStream is the receive buffer of one connection: buf[r:w] holds
// the bytes read and not yet consumed, and need is the size of the unit
// (hello or frame) at r that is not all there yet, as far as is known.
type frameStream struct {
	buf        []byte
	r, w, need int
}

// fill makes room for the unit at r and reads once. Room is made by
// moving the unconsumed tail to the front, into a grown buffer when the
// unit is larger than this one, and back into one of the standard size
// once a grown buffer is no longer needed.
func (s *frameStream) fill(conn io.Reader) error {
	if s.r == s.w {
		s.r, s.w = 0, 0
	}
	if size := max(s.need, maxRetainedBuf); size != len(s.buf) {
		grown := make([]byte, size)
		s.w = copy(grown, s.buf[s.r:s.w])
		s.buf, s.r = grown, 0
	} else if s.r+s.need > len(s.buf) {
		s.w = copy(s.buf, s.buf[s.r:s.w])
		s.r = 0
	}
	n, err := conn.Read(s.buf[s.w:])
	s.w += n
	if n > 0 {
		return nil // a failure that came with data is reported again
	}
	return err
}

// appendHello appends the hello of a connection dialled from addr.
func appendHello(dst []byte, addr string) []byte {
	dst = append(append(dst, helloMagic...), helloVersion)
	return append(binary.BigEndian.AppendUint16(dst, uint16(len(addr))), addr...)
}

// hello consumes the connection hello and returns the address in it;
// none and no error means it is not all there yet. A stream that does
// not open with a hello of this version and a sane address is an error.
func (s *frameStream) hello() (string, error) {
	b := s.buf[s.r:s.w]
	if s.need = helloHdrLen; len(b) < s.need {
		return "", nil
	}
	n := int(binary.BigEndian.Uint16(b[helloHdrLen-2:]))
	if string(b[:len(helloMagic)]) != helloMagic || b[len(helloMagic)] != helloVersion || n == 0 || n > maxHelloAddr {
		return "", errBadStream
	}
	if s.need += n; len(b) < s.need {
		return "", nil
	}
	s.r += s.need
	return string(b[helloHdrLen:s.need]), nil
}

// next consumes the next complete frame and returns its packet, a slice
// of buf; !ok means the frame is not all there yet. A length beyond
// MaxPacket is an error.
func (s *frameStream) next() (pkt []byte, ok bool, err error) {
	b := s.buf[s.r:s.w]
	if s.need = frameHdrLen; len(b) < s.need {
		return nil, false, nil
	}
	n := binary.BigEndian.Uint32(b)
	if n > MaxPacket {
		return nil, false, errBadStream
	}
	if s.need += int(n); len(b) < s.need {
		return nil, false, nil
	}
	s.r += s.need
	return b[frameHdrLen:s.need:s.need], true, nil
}

func stripScheme(addr string) (string, bool) {
	const scheme = "tcp:"
	if len(addr) <= len(scheme) || addr[:len(scheme)] != scheme {
		return "", false
	}
	return addr[len(scheme):], true
}
