package netapi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"time"

	"f4t/internal/seqnum"
	"f4t/internal/sock"
	"f4t/internal/wire"
)

// Facade-level errors. Reset and refusal surface as *net.OpError so
// callers (net/http) see familiar shapes.
var (
	errRefused   = &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}
	errReset     = errors.New("connection reset by peer")
	errAddrInUse = errors.New("address already in use")
)

// Addr is the net.Addr of a simulated TCP endpoint.
type Addr struct {
	IP   wire.Addr
	Port uint16
}

// Network implements net.Addr.
func (a Addr) Network() string { return "tcp" }

// String implements net.Addr.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// parseAddr parses "a.b.c.d:port" (the only address family the
// simulated network speaks).
func parseAddr(addr string) (wire.Addr, uint16, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return 0, 0, err
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return 0, 0, fmt.Errorf("netapi: unresolvable host %q (use a dotted-quad address)", host)
	}
	v4 := ip.To4()
	if v4 == nil {
		return 0, 0, fmt.Errorf("netapi: %q is not IPv4; the simulated network is IPv4-only", host)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return 0, 0, fmt.Errorf("netapi: bad port %q: %v", portStr, err)
	}
	return wire.MakeAddr(v4[0], v4[1], v4[2], v4[3]), uint16(port), nil
}

// Listen starts a TCP listener on the given local port.
func (st *Stack) Listen(port uint16) (net.Listener, error) {
	o := &op{kind: opListen, rport: port}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, net.ErrClosed
	}
	st.nextID++
	o.id = st.nextID
	st.mu.Unlock()
	if err := st.submit(o); err != nil {
		return nil, err
	}
	return o.ln, nil
}

// DialAddr opens a connection to raddr:port, blocking through the
// simulated three-way handshake.
func (st *Stack) DialAddr(raddr wire.Addr, port uint16) (net.Conn, error) {
	o := &op{kind: opDial, raddr: raddr, rport: port}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, net.ErrClosed
	}
	st.nextID++
	o.id = st.nextID
	st.mu.Unlock()
	if err := st.submit(o); err != nil {
		return nil, err
	}
	return o.conn, nil
}

// Dial implements the net.Dial shape for "tcp" addresses.
func (st *Stack) Dial(network, addr string) (net.Conn, error) {
	return st.DialContext(context.Background(), network, addr)
}

// DialContext matches http.Transport.DialContext. Cancellation
// abandons the wait; the connection, if it later completes, is closed.
func (st *Stack) DialContext(ctx context.Context, network string, addr string) (net.Conn, error) {
	switch network {
	case "tcp", "tcp4":
	default:
		return nil, fmt.Errorf("netapi: unsupported network %q", network)
	}
	raddr, port, err := parseAddr(addr)
	if err != nil {
		return nil, err
	}
	o := &op{kind: opDial, raddr: raddr, rport: port}
	o.done = make(chan struct{})
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, net.ErrClosed
	}
	st.nextID++
	o.id = st.nextID
	st.seq++
	o.seq = st.seq
	if st.credits > 0 {
		st.credits--
	}
	st.inbox = append(st.inbox, o)
	st.inboxN.Add(1)
	st.mu.Unlock()
	select {
	case st.signal <- struct{}{}:
	default:
	}
	select {
	case <-o.done:
		if o.err != nil {
			return nil, o.err
		}
		return o.conn, nil
	case <-ctx.Done():
		go func() {
			<-o.done
			if o.err == nil {
				o.conn.Close()
			}
		}()
		return nil, ctx.Err()
	}
}

// Conn is a simulated TCP connection implementing net.Conn. The
// exported methods are safe for concurrent use; per the package
// determinism contract, racing multiple Reads (or Writes) against each
// other on one Conn is allowed but their relative order is as
// undefined as it would be on a real socket.
type Conn struct {
	st           *Stack
	id           int64
	bc           sock.Conn
	laddr, raddr Addr

	// Everything below is settle-side state: guarded by st.mu where
	// application goroutines write it (deadlines), island-only
	// otherwise.
	rdPtr, wrPtr seqnum.Value
	wantSend     bool
	wantRecv     bool
	wantClose    bool
	wantAbort    bool
	localClosed  bool
	dialOp       *op
	readQ        []*op
	writeQ       []*op
	rdDeadline   time.Time
	wrDeadline   time.Time
}

// anchor fixes the facade-local pointers once the handshake completed.
// Caller holds mu.
func (c *Conn) anchor() {
	c.rdPtr = c.bc.ReadPtr()
	c.wrPtr = c.bc.WritePtr()
	c.laddr.Port = c.bc.LocalPort()
	raddr, rport := c.bc.Remote()
	c.raddr = Addr{IP: raddr, Port: rport}
}

// dead reports whether the conn can leave the live list. Caller holds mu.
func (c *Conn) dead() bool {
	if c.dialOp != nil || len(c.readQ) > 0 || len(c.writeQ) > 0 {
		return false
	}
	if c.wantSend || c.wantRecv || c.wantClose || c.wantAbort {
		return false
	}
	return c.bc.Closed() || c.bc.WasReset()
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	o := &op{kind: opRead, c: c, buf: p}
	err := c.st.submit(o)
	return o.n, err
}

// Write implements net.Conn. It blocks until every byte is accepted by
// the send buffer (or fails reporting partial progress).
func (c *Conn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	o := &op{kind: opWrite, c: c, buf: p}
	err := c.st.submit(o)
	return o.n, err
}

// Close implements net.Conn: an orderly shutdown (FIN after queued
// data). Parked Reads and Writes fail with net.ErrClosed.
func (c *Conn) Close() error {
	return c.st.submit(&op{kind: opConnClose, c: c})
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.laddr }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.raddr }

// SetDeadline implements net.Conn. Deadlines are wall-clock and
// therefore best-effort with respect to determinism (see the package
// doc); a deadline already in the past reliably fails parked ops at
// the next settle, which is the idiom net/http's abortPendingRead
// depends on.
func (c *Conn) SetDeadline(t time.Time) error {
	c.st.mu.Lock()
	c.rdDeadline, c.wrDeadline = t, t
	c.st.mu.Unlock()
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.st.mu.Lock()
	c.rdDeadline = t
	c.st.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.st.mu.Lock()
	c.wrDeadline = t
	c.st.mu.Unlock()
	return nil
}

func deadlineExpired(t time.Time) bool {
	return !t.IsZero() && !time.Now().Before(t)
}

// tryRead attempts to complete a read op against the current mirrors;
// reports whether it completed. Caller holds mu.
func (st *Stack) tryRead(o *op) bool {
	c := o.c
	if c.localClosed {
		st.finish(o, net.ErrClosed)
		return true
	}
	if deadlineExpired(c.rdDeadline) {
		st.finish(o, os.ErrDeadlineExceeded)
		return true
	}
	if c.bc.WasReset() {
		st.finish(o, &net.OpError{Op: "read", Net: "tcp", Err: errReset})
		return true
	}
	if avail := int(c.bc.DeliveredTo().DistanceFrom(c.rdPtr)); avail > 0 {
		n := len(o.buf)
		if n > avail {
			n = avail
		}
		c.bc.ReadAt(c.rdPtr, o.buf[:n])
		c.rdPtr = c.rdPtr.Add(seqnum.Size(n))
		c.wantRecv = true
		o.n = n
		st.finish(o, nil)
		return true
	}
	if c.bc.PeerClosed() || c.bc.Closed() {
		st.finish(o, io.EOF)
		return true
	}
	return false
}

// tryWrite stages what fits and reports whether the op fully completed.
// Partial progress stays parked — net.Conn's Write contract is
// all-or-error. Caller holds mu.
func (st *Stack) tryWrite(o *op) bool {
	c := o.c
	if c.localClosed {
		st.finish(o, net.ErrClosed)
		return true
	}
	if c.bc.WasReset() || c.bc.Closed() {
		st.finish(o, &net.OpError{Op: "write", Net: "tcp", Err: errReset})
		return true
	}
	if deadlineExpired(c.wrDeadline) {
		st.finish(o, os.ErrDeadlineExceeded)
		return true
	}
	if !c.bc.Established() {
		return false
	}
	space := c.bc.SendCap() - int(c.wrPtr.DistanceFrom(c.bc.AckedTo()))
	rem := len(o.buf) - o.n
	if space > 0 && rem > 0 {
		m := rem
		if m > space {
			m = space
		}
		c.bc.WriteAt(c.wrPtr, o.buf[o.n:o.n+m])
		c.wrPtr = c.wrPtr.Add(seqnum.Size(m))
		c.wantSend = true
		o.n += m
	}
	if o.n == len(o.buf) {
		st.finish(o, nil)
		return true
	}
	return false
}

// Listener is a simulated TCP listener implementing net.Listener.
type Listener struct {
	st   *Stack
	id   int64
	port uint16

	// Settle-side state (same locking discipline as Conn's).
	backlog    []sock.Conn
	acceptQ    []*op
	wantListen bool
	closedLn   bool
}

// Accept implements net.Listener.
func (ln *Listener) Accept() (net.Conn, error) {
	o := &op{kind: opAccept, ln: ln}
	if err := ln.st.submit(o); err != nil {
		return nil, err
	}
	return o.conn, nil
}

// Close implements net.Listener: parked Accepts fail with
// net.ErrClosed and queued not-yet-accepted connections are reset.
func (ln *Listener) Close() error {
	return ln.st.submit(&op{kind: opLnClose, ln: ln})
}

// Addr implements net.Listener.
func (ln *Listener) Addr() net.Addr {
	return Addr{IP: ln.st.opt.LocalIP, Port: ln.port}
}
