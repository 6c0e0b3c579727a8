package transport

import (
	"context"

	"nonrep/internal/obs"
)

// Metered wraps a Network and counts traffic: the measurement hook for the
// paper's section 6 observation that non-repudiation costs include "the
// communication overhead of additional messages to execute protocols".
//
// A batch envelope from an older peer would make a raw envelope count
// dishonest — one wire envelope may carry dozens of protocol messages —
// so batch envelopes and their contained sub-messages are counted
// separately: Messages stays the wire-envelope count, while Batches,
// SubMessages and LogicalMessages expose what those envelopes carried.
// Chunked transfer would make the byte count dishonest in the other
// direction — a chunk frame's body is the JSON/base64 encoding of its
// slice — so chunk-* envelopes contribute their decoded slice payload,
// which also credits chunked replies that previously went uncounted as
// data.
//
// The counters live in an obs registry — the process-wide one when the
// network is built with NewMeteredWith, a private one otherwise — so
// wire-traffic numbers and the rest of the telemetry plane share one
// snapshot. The accessor methods are thin reads of those instruments.
type Metered struct {
	inner Network

	messages *obs.Counter
	bytes    *obs.Counter
	batches  *obs.Counter
	submsgs  *obs.Counter
	logical  *obs.Counter
}

var _ Network = (*Metered)(nil)

// NewMeteredWith wraps inner with traffic counters homed in reg (a
// private registry when reg is nil). Wire counters carry no tenant label:
// the network layer sits below tenant demultiplexing, where one batch
// envelope may mix tenants.
func NewMeteredWith(inner Network, reg *obs.Registry) *Metered {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metered{
		inner:    inner,
		messages: reg.Counter(obs.MWireMessagesTotal, ""),
		bytes:    reg.Counter(obs.MWireBytesTotal, ""),
		batches:  reg.Counter(obs.MWireBatchesTotal, ""),
		submsgs:  reg.Counter(obs.MWireSubMessagesTotal, ""),
		logical:  reg.Counter(obs.MWireLogicalTotal, ""),
	}
}

// Messages returns the number of wire envelopes sent (requests and one-way
// sends; replies are counted with their requests). A batch envelope counts
// as one.
func (m *Metered) Messages() int64 { return m.messages.Value() }

// Bytes returns the payload bytes carried by counted envelopes and their
// replies. Chunk envelopes (including chunked replies) contribute their
// decoded slice payload rather than their frame encoding.
func (m *Metered) Bytes() int64 { return m.bytes.Value() }

// Batches returns how many of the counted envelopes (including replies)
// were batch envelopes.
func (m *Metered) Batches() int64 { return m.batches.Value() }

// SubMessages returns the total protocol messages carried inside batch
// envelopes (including batch replies).
func (m *Metered) SubMessages() int64 { return m.submsgs.Value() }

// LogicalMessages returns the protocol-level message count: like Messages,
// but with every batch envelope contributing its sub-message count instead
// of one. Without batch envelopes it equals Messages.
func (m *Metered) LogicalMessages() int64 { return m.logical.Value() }

// Reset zeroes the counters.
func (m *Metered) Reset() {
	m.messages.Reset()
	m.bytes.Reset()
	m.batches.Reset()
	m.submsgs.Reset()
	m.logical.Reset()
}

// payloadBytes reports the data bytes an envelope carries: the decoded
// slice payload for chunk frames, the body otherwise. A chunk frame that
// fails to decode falls back to its raw body so malformed traffic still
// counts as bytes moved.
func payloadBytes(env *Envelope) int64 {
	if isChunkKind(env.Kind) {
		var f chunkFrame
		if err := unmarshalChunkFrame(env.Body, &f); err == nil {
			return int64(len(f.Data))
		}
	}
	return int64(len(env.Body))
}

// countEnvelope records one wire envelope, unpacking batch framing for the
// logical counters. Batch envelopes carry their sub-messages structurally,
// so their payload bytes are the sum of the sub-envelope payloads.
func (m *Metered) countEnvelope(env *Envelope) {
	if n := BatchSize(env); n > 0 {
		var bytes int64
		for _, item := range env.Batch {
			if item.Env != nil {
				bytes += payloadBytes(item.Env)
			}
		}
		m.bytes.Add(bytes)
		m.batches.Add(1)
		m.submsgs.Add(int64(n))
		m.logical.Add(int64(n))
		return
	}
	m.bytes.Add(payloadBytes(env))
	m.logical.Add(1)
}

// Register implements Network.
func (m *Metered) Register(addr string, h Handler) (Endpoint, error) {
	ep, err := m.inner.Register(addr, h)
	if err != nil {
		return nil, err
	}
	return &meteredEndpoint{net: m, inner: ep}, nil
}

type meteredEndpoint struct {
	net   *Metered
	inner Endpoint
}

var _ Endpoint = (*meteredEndpoint)(nil)

// Addr implements Endpoint.
func (e *meteredEndpoint) Addr() string { return e.inner.Addr() }

// Send implements Endpoint.
func (e *meteredEndpoint) Send(ctx context.Context, to string, env *Envelope) error {
	e.net.messages.Add(1)
	e.net.countEnvelope(env)
	return e.inner.Send(ctx, to, env)
}

// Request implements Endpoint.
func (e *meteredEndpoint) Request(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	e.net.messages.Add(2) // request + reply
	e.net.countEnvelope(env)
	reply, err := e.inner.Request(ctx, to, env)
	if err != nil {
		return nil, err
	}
	e.net.countEnvelope(reply)
	return reply, nil
}

// Close implements Endpoint.
func (e *meteredEndpoint) Close() error { return e.inner.Close() }
