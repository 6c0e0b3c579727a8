package transport

import (
	"fmt"
	"sync/atomic"

	"nonrep/internal/id"
)

// Dialer is implemented by networks that support outbound-only (client)
// endpoints: an endpoint that registers no listener and is unreachable by
// address, yet is served down the connections it dials. NAT'd workers
// use one to dial out to a gateway, which routes their traffic back down
// that connection — the network never needs a route to them.
type Dialer interface {
	// Dial creates a client endpoint. Its Addr identifies the client for
	// envelope From fields only; nothing can be sent to it by address.
	// h serves the requests a peer sends back down a connection the
	// endpoint dialled (the peer's handler finds it with CallerConn).
	Dial(h Handler) (Endpoint, error)
}

var clientSeq atomic.Uint64

// clientAddr generates a synthetic address for a client endpoint; the
// leading '~' keeps it out of any registrable address space.
func clientAddr() string {
	return fmt.Sprintf("~client-%d-%s", clientSeq.Add(1), id.NewMsg())
}

var _ Dialer = (*FaultyNetwork)(nil)

// Dial implements Dialer when the wrapped network does, injecting the
// same fault plan into the client's traffic.
func (n *FaultyNetwork) Dial(h Handler) (Endpoint, error) {
	d, ok := n.inner.(Dialer)
	if !ok {
		return nil, fmt.Errorf("transport: %T does not support client endpoints", n.inner)
	}
	inner, err := d.Dial(h)
	if err != nil {
		return nil, err
	}
	return &faultyEndpoint{net: n, inner: inner}, nil
}
