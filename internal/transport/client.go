package transport

import (
	"context"
	"fmt"
	"sync/atomic"

	"nonrep/internal/id"
)

// Dialer is implemented by networks that support outbound-only (client)
// endpoints: an endpoint that can Send and Request but registers no
// listener and is unreachable by address. NAT'd workers use one to dial
// out to a gateway — the network never needs a route back to them.
type Dialer interface {
	// Dial creates a client endpoint. Its Addr identifies the client for
	// envelope From fields only; nothing can be sent to it.
	Dial() (Endpoint, error)
}

var clientSeq atomic.Uint64

// clientAddr generates a synthetic address for a client endpoint; the
// leading '~' keeps it out of any registrable address space.
func clientAddr() string {
	return fmt.Sprintf("~client-%d-%s", clientSeq.Add(1), id.NewMsg())
}

var (
	_ Dialer = (*InprocNetwork)(nil)
	_ Dialer = (*TCPNetwork)(nil)
	_ Dialer = (*FaultyNetwork)(nil)
)

// Dial implements Dialer: an in-process endpoint with no inbox. Requests
// run the destination handler synchronously; one-way sends enqueue on the
// destination like registered endpoints' do.
func (n *InprocNetwork) Dial() (Endpoint, error) {
	n.mu.RLock()
	closed := n.closed
	n.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	return &inprocClient{net: n, addr: clientAddr()}, nil
}

type inprocClient struct {
	net  *InprocNetwork
	addr string
}

var _ Endpoint = (*inprocClient)(nil)

func (e *inprocClient) Addr() string { return e.addr }

func (e *inprocClient) Send(ctx context.Context, to string, env *Envelope) error {
	dst, err := e.net.lookup(to)
	if err != nil {
		return err
	}
	env.From = e.addr
	env.To = to
	select {
	case dst.inbox <- env:
		return nil
	case <-dst.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *inprocClient) Request(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	dst, err := e.net.lookup(to)
	if err != nil {
		return nil, err
	}
	env.From = e.addr
	env.To = to
	return dst.handler.Handle(ctx, env)
}

func (e *inprocClient) Close() error { return nil }

// Dial implements Dialer: a TCP endpoint that only ever dials out, one
// framed exchange per connection, with no listener of its own.
func (n *TCPNetwork) Dial() (Endpoint, error) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return &tcpClient{addr: clientAddr()}, nil
}

type tcpClient struct {
	addr string
}

var _ Endpoint = (*tcpClient)(nil)

func (e *tcpClient) Addr() string { return e.addr }

func (e *tcpClient) Send(ctx context.Context, to string, env *Envelope) error {
	_, err := exchange(ctx, e.addr, to, env)
	return err
}

func (e *tcpClient) Request(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	return exchange(ctx, e.addr, to, env)
}

func (e *tcpClient) Close() error { return nil }

// Dial implements Dialer when the wrapped network does, injecting the
// same fault plan into the client's traffic.
func (n *FaultyNetwork) Dial() (Endpoint, error) {
	d, ok := n.inner.(Dialer)
	if !ok {
		return nil, fmt.Errorf("transport: %T does not support client endpoints", n.inner)
	}
	inner, err := d.Dial()
	if err != nil {
		return nil, err
	}
	return &faultyEndpoint{net: n, inner: inner}, nil
}
