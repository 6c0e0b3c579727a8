package protocol

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"nonrep/internal/clock"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/store"
	"nonrep/internal/transport"
)

// Envelope kinds used on the wire between coordinators.
const (
	envDeliver        = "b2b-deliver"
	envDeliverRequest = "b2b-deliver-request"
	envReply          = "b2b-reply"
)

// ErrNoHandler is returned when a message names a protocol with no
// registered handler.
var ErrNoHandler = errors.New("protocol: no handler registered")

// Services bundles the local, protocol-independent services the
// coordinator provides to handlers (section 4.1: "the coordinator also
// provides access to generic services that support execution of protocols
// (such as credential management and state storage)"). Issuer is either a
// plain *evidence.Issuer or a *evidence.BatchIssuer aggregating concurrent
// signing into Merkle batch signatures.
type Services struct {
	Party     id.Party
	Issuer    evidence.TokenIssuer
	Verifier  *evidence.Verifier
	Log       store.Log
	States    store.StateStore
	Clock     clock.Clock
	Directory *Directory
	// Obs is the party's telemetry scope (tenant-labelled with the party
	// identifier when telemetry is enabled, nil otherwise). Handlers and
	// the coordinator record metrics and spans through it; a nil scope
	// no-ops.
	Obs *obs.Scope
}

// LogGenerated verifies-nothing and records evidence this party issued.
func (s *Services) LogGenerated(tok *evidence.Token, note string) error {
	_, err := s.Log.Append(store.Generated, tok, note)
	return err
}

// LogReceived records evidence received from a counterparty. Callers must
// have verified the token first.
func (s *Services) LogReceived(tok *evidence.Token, note string) error {
	_, err := s.Log.Append(store.Received, tok, note)
	return err
}

// LogGroup records the evidence of one protocol step — entries a party
// must have durable before the same next action — in protocol order, as
// one commit, so the caller waits once for all of them. A group of one is
// an Append: the same commit, and the call a log wrapper that instruments
// Append (the benchmark harness's tracer) sees. Received tokens must have
// been verified.
func (s *Services) LogGroup(entries ...store.Entry) error {
	if len(entries) == 1 {
		e := entries[0]
		_, err := s.Log.Append(e.Dir, e.Token, e.Note)
		return err
	}
	_, err := s.Log.AppendGroup(entries)
	return err
}

// Coordinator is the B2BCoordinator: the remote entry point through which
// other trusted interceptors deliver protocol messages, and the local
// gateway through which handlers send them.
type Coordinator struct {
	svc *Services
	ep  transport.Endpoint

	// kindCounters caches the per-envelope-kind counters of the party's
	// scope so the per-envelope hot path is one lock-free map load.
	kindCounters sync.Map // string → *obs.Counter

	mu       sync.RWMutex
	handlers map[string]Handler
}

// Option configures a coordinator.
type Option func(*config)

type config struct {
	retry    transport.RetryPolicy
	coalesce *transport.CoalesceOptions
	// obs homes the outbound coalescer's occupancy histogram.
	// Single-tenant coordinators take it from the services' scope; hosts
	// from WithTelemetry.
	obs *obs.Scope
}

// WithRetryPolicy overrides the default retransmission policy.
func WithRetryPolicy(p transport.RetryPolicy) Option {
	return func(c *config) { c.retry = p }
}

// WithCoalescing batches concurrent outbound envelopes per counterparty
// into single b2b-batch wire envelopes (the protocol-level batching of
// evidence exchange for small messages). Incoming batches are always
// understood regardless of this option, so coalescing and non-coalescing
// coordinators interoperate.
func WithCoalescing(opts transport.CoalesceOptions) Option {
	return func(c *config) { c.coalesce = &opts }
}

// New registers a coordinator for svc.Party at addr on the network. The
// endpoint is wrapped with retransmission and incoming traffic with replay
// de-duplication, so coordinators see eventual delivery with exactly-once
// processing (trusted-interceptor assumption 2). Incoming batch envelopes
// are unpacked outside the de-duplication layer, so every coalesced
// sub-message keeps its own exactly-once processing.
func New(network transport.Network, addr string, svc *Services, opts ...Option) (*Coordinator, error) {
	cfg := config{retry: transport.DefaultRetryPolicy}
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.obs = svc.Obs
	c := &Coordinator{svc: svc, handlers: make(map[string]Handler)}
	h := transport.NewTenantChain(transport.HandlerFunc(c.handle), svc.Obs)
	ep, err := network.Register(addr, h)
	if err != nil {
		return nil, err
	}
	c.ep = wrapEndpoint(ep, cfg)
	svc.Directory.Register(svc.Party, c.ep.Addr())
	return c, nil
}

// wrapEndpoint layers the outbound stack over a raw endpoint: retrying
// retransmission, optional envelope coalescing, chunked transfer for
// envelopes past the wire frame budget (each chunk slice is individually
// retried by the reliable layer and bypasses coalescing by size), and —
// outermost, so coalescing keys its batches by wire address alone and
// batches merge across tenants of one peer host — tenant addressing,
// which lets this endpoint send to tenant-qualified addresses of hosted
// coordinators.
func wrapEndpoint(ep transport.Endpoint, cfg config) transport.Endpoint {
	ep = transport.NewReliable(ep, cfg.retry)
	if cfg.coalesce != nil {
		// Copy before attaching the scope: one CoalesceOptions value may
		// configure many coordinators with different scopes.
		co := *cfg.coalesce
		if co.Obs == nil {
			co.Obs = cfg.obs
		}
		ep = transport.NewCoalescer(ep, co)
	}
	ep = transport.NewChunker(ep)
	return transport.WithTenantAddressing(ep)
}

// Services returns the coordinator's local services.
func (c *Coordinator) Services() *Services { return c.svc }

// Party returns the party this coordinator acts for.
func (c *Coordinator) Party() id.Party { return c.svc.Party }

// Addr returns the coordinator's transport address.
func (c *Coordinator) Addr() string { return c.ep.Addr() }

// Register installs a protocol handler (section 4.1: "custom protocol
// handlers are registered with the coordinator service").
func (c *Coordinator) Register(h Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handlers[h.Protocol()] = h
}

// Protocols lists the protocol names with registered handlers.
func (c *Coordinator) Protocols() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.handlers))
	for name := range c.handlers {
		out = append(out, name)
	}
	return out
}

// handler resolves the handler for a protocol.
func (c *Coordinator) handler(protocol string) (Handler, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h, ok := c.handlers[protocol]
	if !ok {
		return nil, fmt.Errorf("%w for protocol %q at %s", ErrNoHandler, protocol, c.svc.Party)
	}
	return h, nil
}

// envCounter resolves the party's per-envelope-kind counter, cached so
// steady-state resolution is one lock-free load.
func (c *Coordinator) envCounter(kind string) *obs.Counter {
	if c.svc.Obs == nil {
		return nil
	}
	if v, ok := c.kindCounters.Load(kind); ok {
		return v.(*obs.Counter)
	}
	v, _ := c.kindCounters.LoadOrStore(kind, c.svc.Obs.Counter(obs.EnvelopeMetric(kind)))
	return v.(*obs.Counter)
}

// handle is the transport-facing entry point.
func (c *Coordinator) handle(ctx context.Context, env *transport.Envelope) (*transport.Envelope, error) {
	c.envCounter(env.Kind).Inc()
	var msg Message
	if err := unmarshalMessage(env.Body, &msg); err != nil {
		return nil, err
	}
	h, err := c.handler(msg.Protocol)
	if err != nil {
		return nil, err
	}
	// A traced message continues its trace on this side of the wire: the
	// handler's spans (execution, evidence issuance, vault appends) nest
	// under the sender's transport span.
	if msg.Trace != nil && c.svc.Obs != nil {
		var span *obs.Span
		ctx, span = c.svc.Obs.StartRemoteSpan(ctx, "server.handle", msg.Trace)
		span.SetAttr("kind", env.Kind)
		span.SetAttr("step", strconv.Itoa(msg.Step))
		defer span.End()
	}
	switch env.Kind {
	case envDeliver:
		if err := h.Process(ctx, &msg); err != nil {
			return nil, err
		}
		return nil, nil
	case envDeliverRequest:
		reply, err := h.ProcessRequest(ctx, &msg)
		if err != nil {
			return nil, err
		}
		body, err := marshalMessage(reply)
		if err != nil {
			return nil, err
		}
		out := transport.NewEnvelope(envReply, body)
		return out, nil
	default:
		return nil, fmt.Errorf("protocol: unknown envelope kind %q", env.Kind)
	}
}

// stampOutgoing fills sender fields and, when the context carries an
// active span, stamps the trace reference so the receiving coordinator
// continues the trace. With telemetry off no span ever enters a context
// and the wire stays byte-identical.
func (c *Coordinator) stampOutgoing(ctx context.Context, msg *Message) {
	msg.Sender = c.svc.Party
	msg.ReplyAddr = c.ep.Addr()
	if msg.Trace == nil {
		msg.Trace = obs.SpanFromContext(ctx).Ref()
	}
}

// transportSpan opens a transport-layer span for one outbound exchange
// when (and only when) the caller's context is already traced, so
// untraced background traffic does not flood the span ring.
func (c *Coordinator) transportSpan(ctx context.Context, name string, msg *Message) (context.Context, *obs.Span) {
	if c.svc.Obs == nil || obs.SpanFromContext(ctx) == nil {
		return ctx, nil
	}
	ctx, span := c.svc.Obs.StartSpan(ctx, name)
	span.SetAttr("step", strconv.Itoa(msg.Step))
	span.SetAttr("kind", msg.Kind)
	return ctx, span
}

// Deliver sends a one-way protocol message to a party (the deliver
// operation of the B2BCoordinatorRemote interface). Handlers replying to
// an incoming message may instead use DeliverAddr with the message's
// ReplyAddr, avoiding a directory lookup.
func (c *Coordinator) Deliver(ctx context.Context, to id.Party, msg *Message) error {
	addr, err := c.svc.Directory.Resolve(to)
	if err != nil {
		return err
	}
	return c.DeliverAddr(ctx, addr, msg)
}

// DeliverAddr is Deliver to an explicit coordinator address.
func (c *Coordinator) DeliverAddr(ctx context.Context, addr string, msg *Message) error {
	ctx, span := c.transportSpan(ctx, "transport.deliver", msg)
	defer span.End()
	c.stampOutgoing(ctx, msg)
	body, err := marshalMessage(msg)
	if err != nil {
		return err
	}
	return c.ep.Send(ctx, addr, transport.NewEnvelope(envDeliver, body))
}

// DeliverRequest sends a protocol message and waits synchronously for the
// counterparty handler's reply (the deliverRequest operation of the
// B2BCoordinatorRemote interface).
func (c *Coordinator) DeliverRequest(ctx context.Context, to id.Party, msg *Message) (*Message, error) {
	addr, err := c.svc.Directory.Resolve(to)
	if err != nil {
		return nil, err
	}
	return c.DeliverRequestAddr(ctx, addr, msg)
}

// DeliverRequestAddr is DeliverRequest to an explicit coordinator address.
func (c *Coordinator) DeliverRequestAddr(ctx context.Context, addr string, msg *Message) (*Message, error) {
	ctx, span := c.transportSpan(ctx, "transport.request", msg)
	defer span.End()
	c.stampOutgoing(ctx, msg)
	body, err := marshalMessage(msg)
	if err != nil {
		return nil, err
	}
	replyEnv, err := c.ep.Request(ctx, addr, transport.NewEnvelope(envDeliverRequest, body))
	if err != nil {
		return nil, err
	}
	var reply Message
	if err := unmarshalMessage(replyEnv.Body, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Close deregisters the coordinator's endpoint and withdraws the party's
// directory registration (only while it still names this coordinator's
// address, so a successor registered at a different address is never
// clobbered). Callers re-enrolling the same party at the SAME address
// must let Close return before starting the replacement — the address
// guard cannot distinguish the two.
func (c *Coordinator) Close() error {
	// Hosted coordinators unregister inside Host.Remove, under the shard
	// mutex that serialises detach against re-enrolment; doing it here
	// too would repeat the withdrawal outside that lock.
	if _, hosted := c.ep.(*hostedEndpoint); !hosted {
		c.svc.Directory.Unregister(c.svc.Party, c.ep.Addr())
	}
	c.detachHandlers()
	return c.ep.Close()
}

// detachable is implemented by handlers holding live per-tenant state —
// subscriptions, vault hooks — that must be torn down when the tenant
// detaches. Plain request/response handlers need not implement it.
type detachable interface{ Detach() }

// detachHandlers tears down every detachable handler. It runs on
// Coordinator.Close and Host.Remove so a re-enrolled successor never
// inherits (or keeps feeding) a predecessor's subscriptions.
func (c *Coordinator) detachHandlers() {
	c.mu.RLock()
	hs := make([]Handler, 0, len(c.handlers))
	for _, h := range c.handlers {
		hs = append(hs, h)
	}
	c.mu.RUnlock()
	for _, h := range hs {
		if d, ok := h.(detachable); ok {
			d.Detach()
		}
	}
}
