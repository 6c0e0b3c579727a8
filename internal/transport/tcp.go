package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxFrame bounds a single wire frame (16 MiB).
const maxFrame = 16 << 20

// Connection bounds; a connection is a transport detail no caller tunes.
const (
	// connInflight bounds the requests in flight at one end of a
	// connection. A request past it is refused with a transient error,
	// which the sender's Reliable retries — never by blocking the reader,
	// so the replies that running handlers wait for keep flowing — and a
	// peer twice past it is disconnected.
	connInflight = 256
	// connIdle is how long a dialled connection with nothing in flight
	// lives; the next request redials. The accepting end waits twice as
	// long, so the dialler's close comes first.
	connIdle = 90 * time.Second
)

var (
	// errConnLost fails the requests in flight on a connection that
	// broke. It is transient: Reliable retries them on a new connection
	// and the receiver's Dedup keeps processing exactly-once.
	errConnLost = errors.New("transport: connection lost")
	// errConnClosed is errConnLost before anything was sent: the
	// connection had closed already, so the caller redials at once.
	errConnClosed = fmt.Errorf("%w: connection closed", errConnLost)
	// errConnBusy refuses a request past connInflight; transient too.
	errConnBusy = errors.New("transport: connection in-flight cap reached")
)

// TCPNetwork is a Network whose endpoints listen on TCP addresses. An
// endpoint keeps one persistent connection per counterparty address it
// dials and multiplexes every exchange with it over that connection, in
// both directions: the far side may send requests back down a
// connection it accepted (CallerConn), and the dialling endpoint's
// handler serves them. A one-way send is an exchange answered with an
// acknowledgement, which gives Send confirmation that the envelope
// reached the peer process. The network tracks its endpoints, so Close
// stops every endpoint registered or dialled through it.
//
// Endpoints write binary frames. A peer from before multiplexing, which
// sends one frame per connection and reads one reply, is still served,
// after which the connection closes.
type TCPNetwork struct {
	mu     sync.Mutex
	eps    map[*tcpEndpoint]struct{}
	closed bool
	// dials and open count the connections dialled and those open now.
	dials, open atomic.Int64
	// inflight and idle are connInflight and connIdle; tests shrink them.
	inflight int
	idle     time.Duration
}

var (
	_ Network = (*TCPNetwork)(nil)
	_ Dialer  = (*TCPNetwork)(nil)
)

// NewTCPNetwork creates a TCP network.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{eps: make(map[*tcpEndpoint]struct{}), inflight: connInflight, idle: connIdle}
}

// TCPStats is a TCP network's connection census: the connections its
// endpoints have dialled, and those open now, dialled and accepted.
type TCPStats struct {
	Dials int64 `json:"dials"`
	Open  int64 `json:"open"`
}

// Stats reports the network's connection census.
func (n *TCPNetwork) Stats() TCPStats { return TCPStats{Dials: n.dials.Load(), Open: n.open.Load()} }

// Register implements Network: it starts a listener on addr
// (host:port; use ":0" for an ephemeral port and read Addr()).
func (n *TCPNetwork) Register(addr string, h Handler) (Endpoint, error) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep, err := n.add(ln, ln.Addr().String(), h)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	go ep.acceptLoop()
	return ep, nil
}

// Dial implements Dialer: an endpoint without a listener.
func (n *TCPNetwork) Dial(h Handler) (Endpoint, error) {
	return n.add(nil, clientAddr(), h)
}

// add creates an endpoint and tracks it. A listening endpoint's accept
// loop is accounted for before the endpoint becomes visible to a
// concurrent network Close, whose ep.Close -> wg.Wait must always see the
// counter raised.
func (n *TCPNetwork) add(ln net.Listener, addr string, h Handler) (*tcpEndpoint, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ep := &tcpEndpoint{net: n, ln: ln, addr: addr, handler: h, ctx: ctx, cancel: cancel, dialled: make(map[string]*dialSlot)}
	if ln != nil {
		ep.wg.Add(1)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		cancel()
		return nil, ErrClosed
	}
	n.eps[ep] = struct{}{}
	return ep, nil
}

// Close stops every endpoint registered or dialled through this network
// and waits for their serving goroutines to finish. Endpoints already
// closed individually are unaffected.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*tcpEndpoint, 0, len(n.eps))
	for ep := range n.eps {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	var firstErr error
	for _, ep := range eps {
		if err := ep.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// tcpEndpoint is a TCP endpoint: a listener (none for a client endpoint)
// and one connection per counterparty address it dials.
type tcpEndpoint struct {
	net     *TCPNetwork
	ln      net.Listener
	addr    string
	handler Handler
	// ctx is the context the endpoint's handlers run under, and its
	// connections live under; Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	dialled map[string]*dialSlot
	closed  bool
	wg      sync.WaitGroup // the accept loop, readers and handlers
}

// dialSlot is the connection to one address, or the dial that will
// produce it: concurrent first requests wait on one dial.
type dialSlot struct {
	ready chan struct{}
	c     *conn
	err   error
}

var _ Endpoint = (*tcpEndpoint)(nil)

// Addr implements Endpoint.
func (e *tcpEndpoint) Addr() string { return e.addr }

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		nc, err := e.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || e.ctx.Err() != nil {
				return
			}
			continue
		}
		e.wg.Add(1)
		go e.serveConn(nc)
	}
}

// serveConn serves one accepted connection. Its first frame says what it
// is: a multiplexed connection, served until it ends, or one exchange
// from a peer that predates multiplexing, answered before the connection
// closes. A frame that does not decode closes the connection unanswered.
func (e *tcpEndpoint) serveConn(nc net.Conn) {
	br := bufio.NewReader(nc)
	f, err := readFrame(br)
	if err != nil || !f.mux {
		if err == nil {
			_ = writeFrame(nc, nil, handle(e.ctx, e.handler, f.env))
		}
		_ = nc.Close()
		e.wg.Done()
		return
	}
	c := e.start(nc, br, 2*e.net.idle, nil)
	c.dispatch(f)
	c.readLoop() // takes over this goroutine's count of wg
}

// start makes nc a connection of the endpoint, which closes with it.
func (e *tcpEndpoint) start(nc net.Conn, br *bufio.Reader, idle time.Duration, onClose func()) *conn {
	e.net.open.Add(1)
	c := &conn{nc: nc, br: br, ep: e, idle: idle, onClose: onClose, pending: make(map[uint64]chan *Envelope), used: time.Now(), done: make(chan struct{})}
	c.mu.Lock() // both callbacks take it
	c.timer = time.AfterFunc(idle, c.idleCheck)
	c.stop = context.AfterFunc(e.ctx, func() { _ = c.Close() })
	c.mu.Unlock()
	return c
}

// conn returns the endpoint's connection to addr, dialling it when there
// is none or the last one has ended.
func (e *tcpEndpoint) conn(ctx context.Context, to string) (*conn, error) {
	for {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return nil, ErrClosed
		}
		s, ok := e.dialled[to]
		if !ok {
			s = &dialSlot{ready: make(chan struct{})}
			e.dialled[to] = s
			e.wg.Add(1) // the reader's
			e.mu.Unlock()
			forget := func() { e.forget(to, s) }
			var d net.Dialer
			nc, err := d.DialContext(ctx, "tcp", to)
			if err != nil {
				e.wg.Done()
				forget()
				s.err = fmt.Errorf("%w: dial %s: %v", ErrUnknownAddress, to, err)
			} else {
				e.net.dials.Add(1)
				s.c = e.start(nc, bufio.NewReader(nc), e.net.idle, forget)
				go s.c.readLoop()
			}
			close(s.ready)
			return s.c, s.err
		}
		e.mu.Unlock()
		select {
		case <-s.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if s.err != nil {
			return nil, s.err
		}
		select {
		case <-s.c.done: // ended since: dial anew
			e.forget(to, s)
		default:
			return s.c, nil
		}
	}
}

// forget drops slot s as the connection to addr, unless another has
// taken its place.
func (e *tcpEndpoint) forget(to string, s *dialSlot) {
	e.mu.Lock()
	if e.dialled[to] == s {
		delete(e.dialled, to)
	}
	e.mu.Unlock()
}

// Send implements Endpoint.
func (e *tcpEndpoint) Send(ctx context.Context, to string, env *Envelope) error {
	_, err := e.Request(ctx, to, env)
	return err
}

// Request implements Endpoint: one exchange over the endpoint's
// connection to the endpoint listening at to, in the binary encoding.
func (e *tcpEndpoint) Request(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	env.From = e.addr
	env.To = to
	for {
		c, err := e.conn(ctx, to)
		if err != nil {
			return nil, err
		}
		if reply, err := c.Request(ctx, env); err != errConnClosed {
			return reply, err
		}
	}
}

// Close implements Endpoint: it stops the listener, cancels the
// handlers' context, which closes every connection, and waits for the
// endpoint's goroutines.
func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.net.mu.Lock()
	delete(e.net.eps, e)
	e.net.mu.Unlock()
	e.cancel()
	var err error
	if e.ln != nil {
		err = e.ln.Close()
	}
	e.wg.Wait()
	return err
}

// conn is one persistent TCP connection carrying multiplexed exchanges
// in both directions. Every request gets an id in its frame header and
// one completion channel; its reply carries the id back. One reader
// goroutine runs per connection and serves inbound requests each in its
// own goroutine, under the in-flight cap. The handlers run under the
// endpoint's context: a broken connection does not cancel them, so one
// whose reply was lost finishes, and the sender's retry finds its result
// in Dedup.
type conn struct {
	nc      net.Conn
	br      *bufio.Reader
	ep      *tcpEndpoint
	idle    time.Duration
	onClose func()
	stop    func() bool // unregisters the close on the endpoint's end

	wmu sync.Mutex // serialises frame writes

	mu      sync.Mutex
	pending map[uint64]chan *Envelope
	nextID  uint64
	serving int
	used    time.Time
	timer   *time.Timer
	closed  bool
	done    chan struct{}
}

var _ Conn = (*conn)(nil)

// Done implements Conn.
func (c *conn) Done() <-chan struct{} { return c.done }

// Close implements Conn.
func (c *conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.timer.Stop()
	close(c.done)
	stop := c.stop
	c.mu.Unlock()
	stop()
	c.ep.net.open.Add(-1)
	if c.onClose != nil {
		c.onClose()
	}
	return c.nc.Close()
}

// idleCheck closes the connection once nothing has been in flight on it
// for the idle time, and otherwise looks again when that could be.
func (c *conn) idleCheck() {
	c.mu.Lock()
	rest := c.idle - time.Since(c.used)
	if len(c.pending) > 0 || c.serving > 0 {
		rest = c.idle
	}
	if rest > 0 && !c.closed {
		c.timer.Reset(rest)
	}
	c.mu.Unlock()
	if rest <= 0 {
		_ = c.Close()
	}
}

// Request implements Conn. A connection that breaks before the reply
// arrives fails the request with errConnLost.
func (c *conn) Request(ctx context.Context, env *Envelope) (*Envelope, error) {
	ch := make(chan *Envelope, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errConnClosed
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.used = time.Now()
		c.mu.Unlock()
	}()
	if err := c.write(ctx, muxHead{id: id}, env); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: %v", errConnLost, err)
	}
	var reply *Envelope
	select {
	case reply = <-ch:
	case <-c.done:
		select {
		case reply = <-ch:
		default:
			return nil, errConnLost
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if reply.Kind == "error" {
		msg, final := strings.CutSuffix(string(reply.Body), answeredMark)
		err := fmt.Errorf("transport: remote handler: %s", msg)
		if final {
			err = answered{err}
		}
		return nil, err
	}
	return reply, nil
}

// write sends one multiplexed frame. The caller's context bounds the
// write too; a write it cuts short tears the frame, so the connection
// closes, as it does on any failed write.
func (c *conn) write(ctx context.Context, h muxHead, env *Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = c.nc.SetWriteDeadline(time.Unix(1, 0)) })
	}
	err := writeFrame(c.nc, h.append(nil), env)
	if !stop() && err == nil {
		err = ctx.Err()
	}
	if err != nil {
		_ = c.Close()
	}
	return err
}

// readLoop reads frames until the connection ends; it holds a count of
// the endpoint's wg.
func (c *conn) readLoop() {
	defer c.ep.wg.Done()
	defer c.Close()
	for {
		f, err := readFrame(c.br)
		if err != nil || !f.mux {
			return
		}
		c.dispatch(f)
	}
}

// dispatch routes one multiplexed frame: a reply to its request, a
// request to a handler of its own.
func (c *conn) dispatch(f frame) {
	c.mu.Lock()
	if f.head.reply {
		if ch := c.pending[f.head.id]; ch != nil {
			select {
			case ch <- f.env:
			default: // a duplicate reply id; the first one stands
			}
		}
		c.mu.Unlock()
		return
	}
	if c.serving >= 2*c.ep.net.inflight {
		// A peer this far past the cap ignores its refusals: drop it.
		c.mu.Unlock()
		_ = c.Close()
		return
	}
	busy := c.serving >= c.ep.net.inflight
	c.serving++
	c.ep.wg.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.ep.wg.Done()
		reply := &Envelope{ID: f.env.ID, Kind: "error", Body: []byte(errConnBusy.Error())}
		if !busy {
			reply = handle(withCallerConn(c.ep.ctx, c), c.ep.handler, f.env)
		}
		if c.ep.ctx.Err() == nil { // a closing endpoint's answers are not sent
			c.answer(f.head.id, reply)
		}
		c.mu.Lock()
		c.serving--
		c.used = time.Now()
		c.mu.Unlock()
	}()
}

// answer writes a reply; a failed write has closed the connection, and
// the sender's retry finds the result in Dedup.
func (c *conn) answer(id uint64, reply *Envelope) {
	_ = c.write(context.Background(), muxHead{id: id, reply: true}, reply)
}

// handle runs a handler on one request and makes its outcome a reply
// envelope: protocol errors travel as an "error" envelope so the caller
// does not block awaiting a frame, and a one-way delivery is answered
// with an acknowledgement.
func handle(ctx context.Context, h Handler, env *Envelope) *Envelope {
	reply, err := h.Handle(ctx, env)
	if err != nil {
		msg := err.Error()
		if isAnswered(err) {
			msg += answeredMark
		}
		return &Envelope{ID: env.ID, Kind: "error", Body: []byte(msg)}
	}
	if reply == nil {
		return &Envelope{ID: env.ID, Kind: "ack"}
	}
	return reply
}

// writeFrame writes a length-prefixed binary envelope as one vectored
// write, behind mux, the header of a multiplexed frame (nil for a
// one-exchange frame). The envelope goes out as three runs — length
// prefix plus headers, the body from where it lies, the tail — so a body
// is never copied into a frame buffer, whatever its size.
func writeFrame(w io.Writer, mux []byte, env *Envelope) error {
	head := make([]byte, 4, 4+len(mux)+64+len(env.ID)+len(env.From)+len(env.To)+len(env.Kind)+len(env.Tenant))
	head = append(head, mux...)
	head = appendEnvelopeHead(head, env)
	body := env.Body
	tail, err := appendEnvelopeTail(nil, env, 0)
	if err != nil {
		return err
	}
	n := len(head) - 4 + len(body) + len(tail)
	if n > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(head, uint32(n))
	bufs := net.Buffers{head, body, tail}
	if _, err := bufs.WriteTo(w); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// A frame read commits memory only in proportion to the bytes that have
// actually arrived: a malicious 4-byte header claiming a maxFrame-sized
// body must not allocate maxFrame up front. The buffer starts at no more
// than frameChunk and, once filled, grows by frameGrowth.
const (
	frameChunk  = 64 << 10
	frameGrowth = 4
)

// frame is one frame as read off the wire.
type frame struct {
	env *Envelope
	// mux marks a multiplexed frame, whose header is head.
	mux  bool
	head muxHead
}

// readFrame reads a length-prefixed frame: a multiplexed one, or a
// one-exchange envelope. Bytes are read straight into the tail of a buffer
// that grows geometrically towards the declared length, so all the
// re-copying of one frame adds up to a third of it. A binary envelope's
// byte fields alias that buffer, which is owned by the decoded envelope
// from here on — the zero-copy path from socket read to chunk
// verification.
func readFrame(r io.Reader) (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, fmt.Errorf("transport: read frame header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrame {
		return frame{}, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	n := int(size)
	// The first buffer is the declared length divided down until it fits
	// frameChunk, so the growth steps land on that length exactly: a frame
	// a few bytes over a step does not cost one more whole step.
	first := n
	for first > frameChunk {
		first = (first + frameGrowth - 1) / frameGrowth
	}
	body := make([]byte, 0, first)
	for len(body) < n {
		if len(body) == cap(body) {
			grown := make([]byte, len(body), min(n, frameGrowth*cap(body)))
			copy(grown, body)
			body = grown
		}
		k, err := io.ReadFull(r, body[len(body):cap(body)])
		body = body[:len(body)+k]
		if err != nil {
			return frame{}, fmt.Errorf("transport: read frame body: %w", err)
		}
	}
	var f frame
	if len(body) > 0 && body[0] == muxMagic {
		var err error
		if f.head, body, err = decodeMuxHead(body); err != nil {
			return frame{}, err
		}
		f.mux = true
	}
	env, err := UnmarshalEnvelope(body)
	if err != nil {
		return frame{}, err
	}
	f.env = env
	return f, nil
}
