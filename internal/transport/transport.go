// Package transport carries protocol messages between trusted
// interceptors. The paper's assumption 2 (section 3.1) is that "the
// communication channel between trusted interceptors provides eventual
// message delivery (there is a bounded number of temporary network and
// computer related failures)". The package provides:
//
//   - an in-process network for tests and single-process deployments,
//     which runs each delivery's handler in the sender's goroutine;
//   - a TCP network that keeps one persistent connection per
//     counterparty, multiplexing every exchange in both directions over
//     length-prefixed binary frames (and still answering a peer that
//     sends one frame per connection, binary or JSON, in kind);
//   - a fault-injecting wrapper simulating the bounded temporary failures;
//   - a retrying, de-duplicating layer that turns a lossy network into one
//     with eventual-delivery and exactly-once processing semantics — a
//     connection that breaks fails its requests transiently, the retry
//     redials, and the receiver answers it from its replay window.
package transport

import (
	"context"
	"errors"

	"nonrep/internal/id"
)

// Errors reported by transports.
var (
	// ErrUnknownAddress is returned when no endpoint is registered at the
	// destination.
	ErrUnknownAddress = errors.New("transport: unknown address")
	// ErrDropped is returned by the fault-injecting network when a
	// message is lost.
	ErrDropped = errors.New("transport: message dropped")
	// ErrClosed is returned after an endpoint or network is closed.
	ErrClosed = errors.New("transport: closed")
)

// Envelope is the unit of transfer between endpoints.
type Envelope struct {
	ID   id.Msg `json:"id"`
	From string `json:"from"`
	To   string `json:"to"`
	// Kind distinguishes one-way deliveries from request/response
	// exchanges and lets multiplexed handlers dispatch.
	Kind string `json:"kind"`
	// Tenant demultiplexes envelopes delivered to a shared multi-tenant
	// endpoint: a host serving many organisations behind one address routes
	// each envelope to the tenant named here. Empty for envelopes addressed
	// to dedicated (single-tenant) endpoints. Senders never set it
	// directly — the tenant-addressing layer derives it from
	// tenant-qualified destination addresses (see JoinTenantAddr).
	Tenant string `json:"tenant,omitempty"`
	Body   []byte `json:"body,omitempty"`
	// Batch carries the sub-envelopes of a batch envelope
	// (Kind KindBatch or KindBatchReply); Body is empty for those kinds.
	// Keeping the batch structured — rather than serialised into Body —
	// lets in-process transports pass it by reference; wire transports
	// serialise the whole envelope anyway.
	Batch []BatchItem `json:"batch,omitempty"`
}

// BatchItem is one sub-message of a batch envelope: an outbound
// envelope plus whether its sender awaits a reply, or — in a batch reply —
// the sub-handler's reply or error.
type BatchItem struct {
	Env       *Envelope `json:"env,omitempty"`
	WantReply bool      `json:"want_reply,omitempty"`
	Err       string    `json:"err,omitempty"`
}

// NewEnvelope creates an envelope with a fresh message identifier.
func NewEnvelope(kind string, body []byte) *Envelope {
	return &Envelope{ID: id.NewMsg(), Kind: kind, Body: body}
}

// Handler processes incoming envelopes. For request/response exchanges the
// returned envelope is the reply; one-way deliveries may return nil, and
// their sender learns only the error.
type Handler interface {
	Handle(ctx context.Context, env *Envelope) (*Envelope, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, env *Envelope) (*Envelope, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx context.Context, env *Envelope) (*Envelope, error) {
	return f(ctx, env)
}

// Endpoint is a registered address on a network.
type Endpoint interface {
	// Addr returns the endpoint's address.
	Addr() string
	// Send delivers an envelope and returns the far handler's outcome
	// without its reply: a nil error means the envelope was handled, on
	// every network.
	Send(ctx context.Context, to string, env *Envelope) error
	// Request delivers an envelope and waits for the handler's reply.
	Request(ctx context.Context, to string, env *Envelope) (*Envelope, error)
	// Close deregisters the endpoint.
	Close() error
}

// Conn is one connection between two endpoints as a handler sees it: the
// way back to the endpoint that sent the request being handled. The
// worker gateway routes a worker's traffic down the connection the
// worker dialled.
type Conn interface {
	// Request sends env to the far side and waits for its handler's
	// reply, within ctx.
	Request(ctx context.Context, env *Envelope) (*Envelope, error)
	// Done is closed when the connection ends.
	Done() <-chan struct{}
	// Close ends the connection; requests in flight on it fail.
	Close() error
}

type callerConnKey struct{}

// CallerConn returns the connection the envelope being handled arrived
// on, nil for a handler called directly rather than through a network.
func CallerConn(ctx context.Context) Conn {
	c, _ := ctx.Value(callerConnKey{}).(Conn)
	return c
}

func withCallerConn(ctx context.Context, c Conn) context.Context {
	return context.WithValue(ctx, callerConnKey{}, c)
}

// Network registers endpoints by address.
type Network interface {
	Register(addr string, h Handler) (Endpoint, error)
}
