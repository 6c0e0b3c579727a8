package main

import (
	"context"
	"io"
	"sync"
	"sync/atomic"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/invoke"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

// The decorators below wrap the seams core.NodeConfig and invoke.NewServer
// expose — Signer, Network, Log, Executor — so each layer is timed from
// outside, without touching the program under test. Every topology has
// them; with the tracer off each is one atomic load on top of the call it
// wraps, and the Network decorator keeps counting bytes.

// wireStats counts what crosses the Network seam. An envelope is one
// request, one reply to a request, or one one-way send; the transport's
// own "ack" frame for a one-way send is below the seam and not counted.
type wireStats struct {
	envelopes atomic.Int64
	bytes     atomic.Int64
	submsgs   atomic.Int64 // protocol messages: 1 per plain envelope, len(Batch) per batch
	// The rest needs a look into the message header and is counted only
	// while tracing is on.
	chunkEnvs  atomic.Int64 // envelopes carrying a slice of a larger payload
	chunkBytes atomic.Int64
	geoPushes  atomic.Int64 // geo-append requests
}

type wireSnapshot struct {
	envelopes, bytes, submsgs, chunkEnvs, chunkBytes, geoPushes int64
}

func (w *wireStats) snapshot() wireSnapshot {
	return wireSnapshot{
		envelopes: w.envelopes.Load(), bytes: w.bytes.Load(), submsgs: w.submsgs.Load(),
		chunkEnvs: w.chunkEnvs.Load(), chunkBytes: w.chunkBytes.Load(), geoPushes: w.geoPushes.Load(),
	}
}

func (a wireSnapshot) sub(b wireSnapshot) wireSnapshot {
	return wireSnapshot{
		envelopes: a.envelopes - b.envelopes, bytes: a.bytes - b.bytes, submsgs: a.submsgs - b.submsgs,
		chunkEnvs: a.chunkEnvs - b.chunkEnvs, chunkBytes: a.chunkBytes - b.chunkBytes, geoPushes: a.geoPushes - b.geoPushes,
	}
}

// envelopeBytes is the size the harness books for one envelope: its
// addressing strings and body, recursively over a batch's sub-envelopes.
// It is the payload handed to the wire encoder, not the encoder's output,
// so it does not move when only the frame format changes.
func envelopeBytes(env *transport.Envelope) int64 {
	if env == nil {
		return 0
	}
	n := int64(len(env.ID) + len(env.From) + len(env.To) + len(env.Kind) + len(env.Tenant) + len(env.Body))
	for i := range env.Batch {
		n += envelopeBytes(env.Batch[i].Env) + int64(len(env.Batch[i].Err))
	}
	return n
}

func isChunkKind(kind string) bool {
	switch kind {
	case transport.KindChunkPart, transport.KindChunkEnd, transport.KindChunkAck,
		transport.KindChunkReply, transport.KindChunkFetch, transport.KindChunkData:
		return true
	}
	return false
}

func (w *wireStats) count(env *transport.Envelope) {
	if env == nil {
		return
	}
	w.envelopes.Add(1)
	w.bytes.Add(envelopeBytes(env))
	if n := transport.BatchSize(env); n > 0 {
		w.submsgs.Add(int64(n))
	} else {
		w.submsgs.Add(1)
	}
}

// countKind books what the message kind tells: a chunk is either a
// transport-level chunk-* frame (an envelope past the frame budget, cut
// up by the Chunker) or an invocation-level stream chunk — "chunk" on the
// way in, "chunk-data" on the way back.
func (w *wireStats) countKind(env *transport.Envelope, msgKind string) {
	if isChunkKind(env.Kind) || msgKind == "chunk" || msgKind == "chunk-data" {
		w.chunkEnvs.Add(1)
		w.chunkBytes.Add(int64(len(env.Body)))
	}
	if msgKind == "geo-append" {
		w.geoPushes.Add(1)
	}
}

// peekMessage reads the leading fields of a binary protocol message —
// protocol, run, transaction, step, kind — without decoding its tokens
// or payload.
func peekMessage(body []byte) (run, kind string, ok bool) {
	const msgMagic = 0xEC
	if len(body) < 2 || body[0] != msgMagic {
		return "", "", false
	}
	r := canon.NewBinReader(body[2:])
	_ = r.String() // protocol
	run = r.String()
	_ = r.String() // txn
	_ = r.Int()    // step
	kind = r.String()
	return run, kind, r.Err() == nil
}

// capture keeps a bounded sample of what the workload pushed through the
// seams, for the probes that replay it through layers with no seam of
// their own.
type capture struct {
	mu        sync.Mutex
	envelopes []*transport.Envelope
	snapshots []*evidence.RequestSnapshot
}

const (
	captureCap = 256
	// captureBody keeps bulk payload out of the sample: the envelope
	// codec probe is about framing protocol messages, not copying chunks.
	captureBody = 16 << 10
)

// envelope samples env, or, for a coalesced batch, the envelopes inside
// it: the codec probe frames single protocol messages.
func (c *capture) envelope(env *transport.Envelope) {
	if env == nil || len(env.Body) > captureBody {
		return
	}
	if transport.BatchSize(env) > 0 {
		for i := range env.Batch {
			c.envelope(env.Batch[i].Env)
		}
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.envelopes) >= captureCap {
		return
	}
	clone := *env
	clone.Body = append([]byte(nil), env.Body...)
	c.envelopes = append(c.envelopes, &clone)
}

func (c *capture) snapshot(req *evidence.RequestSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.snapshots) >= captureCap {
		return
	}
	clone := *req
	c.snapshots = append(c.snapshots, &clone)
}

// meteredNetwork decorates a transport.Network: every endpoint it
// registers counts its traffic and, while tracing is on, records a
// client-side span per exchange and a server-side span per handled
// envelope. node labels the spans of the endpoints registered through
// this value.
type meteredNetwork struct {
	inner transport.Network
	tr    *tracer
	wire  *wireStats
	cap   *capture
	node  string
}

var _ transport.Network = (*meteredNetwork)(nil)

// at returns a view of the network that labels its endpoints with node.
func (n *meteredNetwork) at(node string) *meteredNetwork {
	view := *n
	view.node = node
	return &view
}

func (n *meteredNetwork) Register(addr string, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.inner.Register(addr, &meteredHandler{inner: h, net: n})
	if err != nil {
		return nil, err
	}
	return &meteredEndpoint{inner: ep, net: n}, nil
}

type meteredEndpoint struct {
	inner transport.Endpoint
	net   *meteredNetwork
}

func (e *meteredEndpoint) Addr() string { return e.inner.Addr() }
func (e *meteredEndpoint) Close() error { return e.inner.Close() }

// outbound counts an outgoing envelope and opens its span.
func (e *meteredEndpoint) outbound(env *transport.Envelope) (open, string) {
	n := e.net
	n.wire.count(env)
	if !n.tr.on.Load() {
		return open{}, ""
	}
	n.cap.envelope(env)
	run, kind, ok := peekMessage(env.Body)
	n.wire.countKind(env, kind)
	name := env.Kind
	if ok {
		name = kind
	}
	return n.tr.start(layerRequest, name, "", n.node), run
}

func (e *meteredEndpoint) Send(ctx context.Context, to string, env *transport.Envelope) error {
	sp, run := e.outbound(env)
	err := e.inner.Send(ctx, to, env)
	sp.end(run, string(env.ID))
	return err
}

func (e *meteredEndpoint) Request(ctx context.Context, to string, env *transport.Envelope) (*transport.Envelope, error) {
	sp, run := e.outbound(env)
	reply, err := e.inner.Request(ctx, to, env)
	sp.end(run, string(env.ID))
	if err == nil && reply != nil {
		e.net.wire.count(reply)
		if sp.t != nil {
			_, kind, _ := peekMessage(reply.Body)
			e.net.wire.countKind(reply, kind)
		}
	}
	return reply, err
}

type meteredHandler struct {
	inner transport.Handler
	net   *meteredNetwork
}

func (h *meteredHandler) Handle(ctx context.Context, env *transport.Envelope) (*transport.Envelope, error) {
	if !h.net.tr.on.Load() {
		return h.inner.Handle(ctx, env)
	}
	run, kind, ok := peekMessage(env.Body)
	name := env.Kind
	if ok {
		name = kind
	}
	msg := string(env.ID)
	sp := h.net.tr.start(layerHandle, name, "", h.net.node)
	reply, err := h.inner.Handle(ctx, env)
	sp.end(run, msg)
	return reply, err
}

// tracedSigner records one span per signature.
type tracedSigner struct {
	sig.Signer
	tr          *tracer
	party, node string
}

func (s *tracedSigner) Sign(d sig.Digest) (sig.Signature, error) {
	sp := s.tr.start(layerSig, "sign", s.party, s.node)
	out, err := s.Signer.Sign(d)
	sp.end("", "")
	return out, err
}

// tracedLog records the time a caller is blocked in Append: queueing for
// the committer, the group commit and its fsync. Everything else is the
// vault's own method set; Unwrap lets the durable journal keep finding
// the vault's indexes and asynchronous append behind the wrapper.
type tracedLog struct {
	*vault.Vault
	tr          *tracer
	party, node string
}

var _ store.Log = (*tracedLog)(nil)

func (l *tracedLog) Append(dir store.Direction, tok *evidence.Token, note string) (*store.Record, error) {
	sp := l.tr.start(layerVault, "append", l.party, l.node)
	rec, err := l.Vault.Append(dir, tok, note)
	sp.end(string(tok.Run), "")
	return rec, err
}

func (l *tracedLog) Unwrap() *vault.Vault { return l.Vault }

// tracedExecutor records the component's execution time — the floor no
// middleware change can remove — and samples request snapshots.
type tracedExecutor struct {
	inner       invoke.StreamExecutor
	tr          *tracer
	cap         *capture
	party, node string
}

var _ invoke.StreamExecutor = (*tracedExecutor)(nil)

func (e *tracedExecutor) Execute(ctx context.Context, req *evidence.RequestSnapshot) ([]evidence.Param, error) {
	if e.tr.on.Load() {
		e.cap.snapshot(req)
	}
	sp := e.tr.start(layerContainer, "execute", e.party, e.node)
	out, err := e.inner.Execute(ctx, req)
	sp.end(string(req.Run), "")
	return out, err
}

func (e *tracedExecutor) ExecuteStream(ctx context.Context, req *evidence.RequestSnapshot, streams map[string]io.Reader, results *invoke.ResultStreams) ([]evidence.Param, error) {
	if e.tr.on.Load() {
		e.cap.snapshot(req)
	}
	sp := e.tr.start(layerContainer, "execute-stream", e.party, e.node)
	out, err := e.inner.ExecuteStream(ctx, req, streams, results)
	sp.end(string(req.Run), "")
	return out, err
}
