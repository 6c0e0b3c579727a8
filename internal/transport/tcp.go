package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// maxFrame bounds a single wire frame (16 MiB).
const maxFrame = 16 << 20

// TCPNetwork is a Network whose endpoints listen on TCP addresses. Every
// exchange is a single framed request followed by a single framed reply
// (one-way sends receive an empty acknowledgement frame), which gives Send
// confirmation that the envelope reached the peer process. The network
// tracks its listeners, so Close stops every endpoint registered through
// it — including any that callers lost track of. Endpoints write binary
// frames; inbound frames auto-detect, and an endpoint answers in the
// encoding the request arrived in, so legacy JSON peers interoperate.
type TCPNetwork struct {
	mu     sync.Mutex
	eps    map[*tcpEndpoint]struct{}
	closed bool
}

var _ Network = (*TCPNetwork)(nil)

// NewTCPNetwork creates a TCP network.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{eps: make(map[*tcpEndpoint]struct{})}
}

// Register implements Network: it starts a listener on addr
// (host:port; use ":0" for an ephemeral port and read Addr()).
func (n *TCPNetwork) Register(addr string, h Handler) (Endpoint, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	n.mu.Unlock()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &tcpEndpoint{net: n, ln: ln, handler: h, done: make(chan struct{})}
	// The accept loop is accounted for before the endpoint becomes
	// visible to a concurrent network Close, whose ep.Close -> wg.Wait
	// must always see the counter raised.
	ep.wg.Add(1)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ep.wg.Done()
		_ = ln.Close()
		return nil, ErrClosed
	}
	n.eps[ep] = struct{}{}
	n.mu.Unlock()
	go ep.acceptLoop()
	return ep, nil
}

// remove forgets a closed endpoint.
func (n *TCPNetwork) remove(ep *tcpEndpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.eps, ep)
}

// Close stops every listener registered through this network and waits
// for their serving goroutines to finish. Endpoints already closed
// individually are unaffected.
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

type tcpEndpoint struct {
	net     *TCPNetwork
	ln      net.Listener
	handler Handler

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

var _ Endpoint = (*tcpEndpoint)(nil)

// Addr implements Endpoint.
func (e *tcpEndpoint) Addr() string { return e.ln.Addr().String() }

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			select {
			case <-e.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		e.wg.Add(1)
		go e.serve(conn)
	}
}

// serve handles one inbound connection carrying one exchange. The reply
// goes out in the encoding the request arrived in, so a legacy JSON
// peer negotiates JSON simply by speaking it.
func (e *tcpEndpoint) serve(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close()
	env, enc, err := readFrame(conn)
	if err != nil {
		return
	}
	reply, err := e.handler.Handle(context.Background(), env)
	if err != nil {
		// Protocol errors travel as an error envelope so the caller
		// does not block awaiting a frame.
		reply = &Envelope{ID: env.ID, Kind: "error", Body: []byte(err.Error())}
	}
	if reply == nil {
		reply = &Envelope{ID: env.ID, Kind: "ack"}
	}
	_ = writeFrame(conn, reply, enc)
}

// Send implements Endpoint.
func (e *tcpEndpoint) Send(ctx context.Context, to string, env *Envelope) error {
	_, err := exchange(ctx, e.Addr(), to, env)
	return err
}

// Request implements Endpoint.
func (e *tcpEndpoint) Request(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	return exchange(ctx, e.Addr(), to, env)
}

// exchange performs one framed request/reply exchange on a fresh
// connection to the endpoint listening at to, on behalf of the endpoint
// addressed from, in the binary encoding. A handler failure on the far
// side arrives as an "error" envelope and is returned as an error.
func exchange(ctx context.Context, from, to string, env *Envelope) (*Envelope, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnknownAddress, to, err)
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	env.From = from
	env.To = to
	if err := writeFrame(conn, env, WireBinary); err != nil {
		return nil, err
	}
	reply, _, err := readFrame(conn)
	if err != nil {
		return nil, err
	}
	if reply.Kind == "error" {
		return nil, fmt.Errorf("transport: remote handler: %s", reply.Body)
	}
	return reply, nil
}

// Close implements Endpoint.
func (e *tcpEndpoint) Close() error {
	var err error
	e.closeOnce.Do(func() {
		if e.net != nil {
			e.net.remove(e)
		}
		close(e.done)
		err = e.ln.Close()
		e.wg.Wait()
	})
	return err
}

// writeFrame writes a length-prefixed envelope in the given encoding as
// one vectored write. A binary envelope goes out as three runs — length
// prefix plus envelope head, the body from where it lies, the tail — so
// a body is never copied into a frame buffer, whatever its size.
func writeFrame(w io.Writer, env *Envelope, enc WireEncoding) error {
	head := make([]byte, 4, 4+64+len(env.ID)+len(env.From)+len(env.To)+len(env.Kind)+len(env.Tenant))
	var body, tail []byte
	var err error
	if enc == WireJSON {
		body, err = MarshalEnvelope(env, WireJSON)
	} else {
		head = appendEnvelopeHead(head, env)
		body = env.Body
		tail, err = appendEnvelopeTail(nil, env, 0)
	}
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

// readFrame reads a length-prefixed envelope, auto-detecting its
// encoding and reporting which one arrived so the reply can mirror it.
// Bytes are read straight into the tail of a buffer that grows
// geometrically towards the declared length, so all the re-copying of
// one frame adds up to a third of it. A binary envelope's byte fields
// alias that buffer, which is owned by the decoded envelope from here on
// — the zero-copy path from socket read to chunk verification.
func readFrame(r io.Reader) (*Envelope, WireEncoding, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, WireBinary, fmt.Errorf("transport: read frame header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrame {
		return nil, WireBinary, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
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
			return nil, WireBinary, fmt.Errorf("transport: read frame body: %w", err)
		}
	}
	enc := WireJSON
	if len(body) > 0 && body[0] == envMagic {
		enc = WireBinary
	}
	env, err := UnmarshalEnvelope(body)
	if err != nil {
		return nil, enc, err
	}
	return env, enc, nil
}
