package transport

import (
	"context"
	"fmt"
	"sync"
)

// InprocNetwork is an in-process Network. Every delivery runs the
// destination's handler in the caller's goroutine and returns its
// outcome: a request its reply, a one-way send its error, as over TCP,
// where a send is an acknowledged exchange. Registering an endpoint
// starts no goroutine. It is safe for concurrent use.
type InprocNetwork struct {
	mu        sync.RWMutex
	endpoints map[string]*inprocEndpoint
	closed    bool
}

var _ Network = (*InprocNetwork)(nil)

// NewInprocNetwork creates an empty in-process network.
func NewInprocNetwork() *InprocNetwork {
	return &InprocNetwork{endpoints: make(map[string]*inprocEndpoint)}
}

// Register implements Network.
func (n *InprocNetwork) Register(addr string, h Handler) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("transport: address %q already registered", addr)
	}
	ep := newInprocEndpoint(n, addr, h)
	n.endpoints[addr] = ep
	return ep, nil
}

// lookup resolves an address.
func (n *InprocNetwork) lookup(addr string) (*inprocEndpoint, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ep, ok := n.endpoints[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAddress, addr)
	}
	return ep, nil
}

// remove deregisters an endpoint.
func (n *InprocNetwork) remove(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, addr)
}

// Close deregisters all endpoints.
func (n *InprocNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*inprocEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

type inprocEndpoint struct {
	net     *InprocNetwork
	addr    string
	handler Handler
	// ctx lives as long as the endpoint; Close cancels it.
	ctx       context.Context
	cancel    context.CancelFunc
	closeOnce sync.Once
}

var (
	_ Endpoint = (*inprocEndpoint)(nil)
	_ Dialer   = (*InprocNetwork)(nil)
)

func newInprocEndpoint(n *InprocNetwork, addr string, h Handler) *inprocEndpoint {
	ctx, cancel := context.WithCancel(context.Background())
	return &inprocEndpoint{net: n, addr: addr, handler: h, ctx: ctx, cancel: cancel}
}

// Dial implements Dialer: an endpoint with no address to be reached at.
func (n *InprocNetwork) Dial(h Handler) (Endpoint, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		return nil, ErrClosed
	}
	return newInprocEndpoint(n, clientAddr(), h), nil
}

// Addr implements Endpoint.
func (e *inprocEndpoint) Addr() string { return e.addr }

// Send implements Endpoint: Request with the reply dropped, as over TCP.
func (e *inprocEndpoint) Send(ctx context.Context, to string, env *Envelope) error {
	_, err := e.Request(ctx, to, env)
	return err
}

// Request implements Endpoint: the destination handler runs in the
// caller's goroutine, with this endpoint as its caller's connection.
func (e *inprocEndpoint) Request(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	dst, err := e.net.lookup(to)
	if err != nil {
		return nil, err
	}
	env.From = e.addr
	env.To = to
	return dst.handler.Handle(withCallerConn(ctx, inprocConn{e}), env)
}

// Close implements Endpoint.
func (e *inprocEndpoint) Close() error {
	e.closeOnce.Do(func() {
		e.net.remove(e.addr)
		e.cancel()
	})
	return nil
}

// inprocConn is the connection back to an in-process endpoint, which is
// the endpoint itself: a request on it runs the endpoint's handler,
// cancelled when the endpoint closes, as over TCP, and Close closes the
// endpoint.
type inprocConn struct{ e *inprocEndpoint }

func (c inprocConn) Request(ctx context.Context, env *Envelope) (*Envelope, error) {
	if c.e.ctx.Err() != nil {
		return nil, errConnLost
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(c.e.ctx, cancel)()
	reply, err := c.e.handler.Handle(ctx, env)
	if c.e.ctx.Err() != nil { // a closed endpoint's answers are lost with it
		return nil, errConnLost
	}
	return reply, err
}

func (c inprocConn) Done() <-chan struct{} { return c.e.ctx.Done() }

func (c inprocConn) Close() error { return c.e.Close() }
