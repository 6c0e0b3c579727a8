package transport

import (
	"context"
	"fmt"
	"sync"
)

// InprocNetwork is an in-process Network. Requests run synchronously in the
// caller's goroutine; one-way sends are dispatched through a per-endpoint
// queue so that protocol handlers never re-enter each other on the same
// stack. It is safe for concurrent use.
type InprocNetwork struct {
	mu        sync.RWMutex
	endpoints map[string]*inprocEndpoint
	closed    bool
	wg        sync.WaitGroup
}

var _ Network = (*InprocNetwork)(nil)

// NewInprocNetwork creates an empty in-process network.
func NewInprocNetwork() *InprocNetwork {
	return &InprocNetwork{endpoints: make(map[string]*inprocEndpoint)}
}

// sendQueueDepth bounds each endpoint's one-way delivery queue.
const sendQueueDepth = 256

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
	ep.inbox = make(chan *Envelope, sendQueueDepth)
	n.endpoints[addr] = ep
	n.wg.Add(1)
	go ep.dispatch(&n.wg)
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

// Close deregisters all endpoints and waits for queued deliveries to
// drain.
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
	n.wg.Wait()
	return nil
}

type inprocEndpoint struct {
	net     *InprocNetwork
	addr    string
	handler Handler
	inbox   chan *Envelope // nil for a client endpoint
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

// Dial implements Dialer: an endpoint with no address to be reached at
// and no inbox.
func (n *InprocNetwork) Dial(h Handler) (Endpoint, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		return nil, ErrClosed
	}
	return newInprocEndpoint(n, clientAddr(), h), nil
}

// dispatch drains the one-way inbox.
func (e *inprocEndpoint) dispatch(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case env := <-e.inbox:
			// One-way deliveries have no reply channel; handler errors
			// surface through protocol-level timeouts and retries.
			_, _ = e.handler.Handle(context.Background(), env)
		case <-e.ctx.Done():
			// Drain anything already queued before exiting.
			for {
				select {
				case env := <-e.inbox:
					_, _ = e.handler.Handle(context.Background(), env)
				default:
					return
				}
			}
		}
	}
}

// Addr implements Endpoint.
func (e *inprocEndpoint) Addr() string { return e.addr }

// Send implements Endpoint.
func (e *inprocEndpoint) Send(ctx context.Context, to string, env *Envelope) error {
	dst, err := e.net.lookup(to)
	if err != nil {
		return err
	}
	env.From = e.addr
	env.To = to
	select {
	case dst.inbox <- env:
		return nil
	case <-dst.ctx.Done():
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
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
