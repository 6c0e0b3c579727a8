// Chunked transfer: the wire caps a single frame (16 MiB over TCP), so an
// envelope of unbounded size travels as an ordered sequence of size-bounded
// chunk envelopes sharing a stream identifier, reassembled at the receiver
// before dispatch. The layer is protocol-agnostic — any coordinator service
// (invocation, audit paging, sealed-segment shipping) sends oversized
// envelopes exactly as before and the stack below splits and reassembles
// them. Reliability composes with the existing machinery: each chunk is an
// ordinary envelope, individually retransmitted by the Reliable layer and
// individually replay-deduplicated at the receiver, and the final chunk
// carries the original envelope's identity, so a retransmitted tail returns
// the cached reply instead of re-dispatching the assembled message —
// exactly-once processing is preserved end to end.
//
// Replies too large for one frame travel pull-style: the handler stashes
// the reply, answers with a chunk-reply header carrying the first slice,
// and the sending side fetches the remaining slices with chunk-fetch
// requests before reconstructing the reply envelope.
package transport

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"nonrep/internal/bounded"
	"nonrep/internal/id"
	"nonrep/internal/obs"
)

// Envelope kinds of the chunked-transfer layer.
const (
	// KindChunkPart carries one non-final slice of a chunked envelope.
	KindChunkPart = "chunk-part"
	// KindChunkEnd carries the final slice plus the original envelope's
	// identity and kind; its reply is the assembled exchange's reply.
	KindChunkEnd = "chunk-end"
	// KindChunkAck acknowledges a chunk slice (and a chunk-end whose
	// assembled exchange was one-way).
	KindChunkAck = "chunk-ack"
	// KindChunkReply announces a chunked reply and carries its first
	// slice; the requester pulls the rest with chunk-fetch.
	KindChunkReply = "chunk-reply"
	// KindChunkFetch requests one slice of a stashed chunked reply.
	KindChunkFetch = "chunk-fetch"
	// KindChunkData answers a chunk-fetch with the requested slice.
	KindChunkData = "chunk-data"
)

// Chunking bounds. The chunk size must leave room for the JSON/base64
// envelope overhead (×4/3 twice: the slice inside the chunk frame and the
// envelope body inside the wire frame) under the 16 MiB wire frame; 4 MiB
// slices encode to ~7.2 MiB frames.
const (
	// DefaultChunkThreshold is the body size above which an envelope is
	// chunked (8 MiB: within one wire frame after encoding overhead).
	DefaultChunkThreshold = 8 << 20
	// DefaultChunkSize is the slice size of chunked transfer.
	DefaultChunkSize = 4 << 20
	// DefaultMaxChunkMessage bounds one reassembled envelope body, and
	// all of a handler's partial ones together (1 GiB).
	DefaultMaxChunkMessage = 1 << 30
	// DefaultMaxChunkStreams bounds concurrent reassemblies (and stashed
	// chunked replies) per handler.
	DefaultMaxChunkStreams = 64
)

// Hard shape bounds on untrusted chunk frames: a hostile frame must not
// be able to make the assembler allocate more than the bytes actually
// delivered, so the slice count (which sizes the part table) and the
// per-slice payload are both capped.
const (
	maxChunkCount = 1 << 16
	maxChunkSlice = 8 << 20
)

// chunkLimits are the chunked-transfer bounds one Chunker or ChunkHandler
// applies: always the constants above, except in this package's tests,
// which shrink them to reach the bounds with small messages.
type chunkLimits struct {
	// threshold is the envelope body size above which chunking engages.
	threshold int
	// chunkSize is the slice size of outbound chunked transfers.
	chunkSize int
	// maxMessage bounds one reassembled envelope body, and the bytes all
	// of a handler's in-flight reassemblies hold together.
	maxMessage int64
	// maxStreams bounds concurrent reassemblies per handler. Past either
	// bound the oldest stream is evicted.
	maxStreams int
}

var defaultChunkLimits = chunkLimits{
	threshold:  DefaultChunkThreshold,
	chunkSize:  DefaultChunkSize,
	maxMessage: DefaultMaxChunkMessage,
	maxStreams: DefaultMaxChunkStreams,
}

// chunkFrame is the body of every chunk-* envelope.
type chunkFrame struct {
	// Stream identifies one chunked transfer.
	Stream string `json:"stream"`
	// Seq is the zero-based slice index.
	Seq int `json:"seq"`
	// Total is the slice count of the stream (stated identically on every
	// slice).
	Total int `json:"total,omitempty"`
	// Size is the reassembled body's byte length.
	Size int64 `json:"size,omitempty"`
	// MsgID and Kind carry the original envelope's identity on the final
	// slice (and a chunked reply's on its header), so the reassembled
	// envelope is indistinguishable from one that travelled whole.
	MsgID id.Msg `json:"msg_id,omitempty"`
	Kind  string `json:"kind,omitempty"`
	// WantReply marks a chunk-end whose assembled exchange expects a
	// reply.
	WantReply bool `json:"want_reply,omitempty"`
	// Data is the slice payload.
	Data []byte `json:"data,omitempty"`
}

// isChunkKind reports whether an envelope kind belongs to this layer (such
// envelopes are never themselves chunked).
func isChunkKind(kind string) bool {
	switch kind {
	case KindChunkPart, KindChunkEnd, KindChunkAck, KindChunkReply, KindChunkFetch, KindChunkData:
		return true
	}
	return false
}

// Chunker wraps an endpoint so envelopes of unbounded body size can be
// sent: bodies above the threshold are split into chunk envelopes, each an
// ordinary exchange on the inner endpoint (and so individually retried by
// a Reliable layer beneath).
type Chunker struct {
	inner Endpoint
	lim   chunkLimits
}

var _ Endpoint = (*Chunker)(nil)

// NewChunker wraps inner with chunked transfer.
func NewChunker(inner Endpoint) *Chunker {
	return &Chunker{inner: inner, lim: defaultChunkLimits}
}

// Addr implements Endpoint.
func (k *Chunker) Addr() string { return k.inner.Addr() }

// Close implements Endpoint.
func (k *Chunker) Close() error { return k.inner.Close() }

// oversized reports whether the envelope needs chunking.
func (k *Chunker) oversized(env *Envelope) bool {
	return len(env.Body) > k.lim.threshold && !isChunkKind(env.Kind)
}

// Send implements Endpoint.
func (k *Chunker) Send(ctx context.Context, to string, env *Envelope) error {
	if !k.oversized(env) {
		return k.inner.Send(ctx, to, env)
	}
	_, err := k.sendChunked(ctx, to, env, false)
	return err
}

// Request implements Endpoint. Replies that arrive as chunk-reply headers
// are reconstructed by fetching the remaining slices, so callers see the
// full reply envelope regardless of its size.
func (k *Chunker) Request(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	if !k.oversized(env) {
		reply, err := k.inner.Request(ctx, to, env)
		if err != nil {
			return nil, err
		}
		return k.resolveReply(ctx, to, env.Tenant, reply)
	}
	return k.sendChunked(ctx, to, env, true)
}

// sendChunked splits the envelope body into slices and sends each as its
// own exchange; the final slice's reply is the assembled exchange's reply.
func (k *Chunker) sendChunked(ctx context.Context, to string, env *Envelope, wantReply bool) (*Envelope, error) {
	body := env.Body
	cs := k.lim.chunkSize
	total := (len(body) + cs - 1) / cs
	stream := string(id.NewMsg())
	for seq := 0; seq < total; seq++ {
		lo := seq * cs
		hi := min(lo+cs, len(body))
		f := chunkFrame{Stream: stream, Seq: seq, Total: total, Size: int64(len(body)), Data: body[lo:hi]}
		kind := KindChunkPart
		if seq == total-1 {
			kind = KindChunkEnd
			f.MsgID, f.Kind, f.WantReply = env.ID, env.Kind, wantReply
		}
		part := &Envelope{ID: id.NewMsg(), Kind: kind, Tenant: env.Tenant, Body: marshalChunkFrame(&f)}
		reply, err := k.inner.Request(ctx, to, part)
		if err != nil {
			return nil, fmt.Errorf("transport: chunk %d/%d of %s envelope: %w", seq+1, total, env.Kind, err)
		}
		if seq == total-1 {
			if !wantReply {
				return nil, nil
			}
			return k.resolveReply(ctx, to, env.Tenant, reply)
		}
	}
	return nil, fmt.Errorf("transport: empty chunked envelope")
}

// resolveReply reconstructs a chunked reply, fetching slices beyond the
// header's first one. Any other reply passes through untouched.
func (k *Chunker) resolveReply(ctx context.Context, to, tenant string, reply *Envelope) (*Envelope, error) {
	if reply == nil || reply.Kind != KindChunkReply {
		return reply, nil
	}
	var f chunkFrame
	if err := unmarshalChunkFrame(reply.Body, &f); err != nil {
		return nil, fmt.Errorf("transport: decode chunked reply header: %w", err)
	}
	if f.Total < 1 || f.Total > maxChunkCount || f.Size < 0 || f.Size > k.lim.maxMessage || f.Seq != 0 {
		return nil, fmt.Errorf("transport: chunked reply header out of bounds (%d slices, %d bytes)", f.Total, f.Size)
	}
	if int64(len(f.Data)) > f.Size {
		return nil, fmt.Errorf("transport: chunked reply slice overruns declared size")
	}
	body := append([]byte(nil), f.Data...)
	for seq := 1; seq < f.Total; seq++ {
		ff := chunkFrame{Stream: f.Stream, Seq: seq}
		fetch := &Envelope{ID: id.NewMsg(), Kind: KindChunkFetch, Tenant: tenant, Body: marshalChunkFrame(&ff)}
		r, err := k.inner.Request(ctx, to, fetch)
		if err != nil {
			return nil, fmt.Errorf("transport: fetch reply chunk %d/%d: %w", seq+1, f.Total, err)
		}
		if r == nil || r.Kind != KindChunkData {
			return nil, fmt.Errorf("transport: unexpected chunk fetch reply")
		}
		var df chunkFrame
		if err := unmarshalChunkFrame(r.Body, &df); err != nil {
			return nil, err
		}
		if df.Stream != f.Stream || df.Seq != seq {
			return nil, fmt.Errorf("transport: chunk fetch answered with slice %d of %q, want %d of %q", df.Seq, df.Stream, seq, f.Stream)
		}
		if int64(len(body))+int64(len(df.Data)) > f.Size {
			return nil, fmt.Errorf("transport: chunked reply overruns declared size %d", f.Size)
		}
		body = append(body, df.Data...)
	}
	if int64(len(body)) != f.Size {
		return nil, fmt.Errorf("transport: chunked reply truncated: %d of %d bytes", len(body), f.Size)
	}
	return &Envelope{ID: f.MsgID, Kind: f.Kind, From: reply.From, To: reply.To, Body: body}, nil
}

// ChunkHandler is the receiving half: it reassembles chunk streams,
// dispatches the assembled envelope through the inner handler, and serves
// oversized replies as pull-style chunk streams. It must sit INSIDE the
// replay-deduplication layer: every chunk slice then keeps exactly-once
// absorption, and a retransmitted final slice returns the cached reply
// without re-dispatching the assembled envelope.
type ChunkHandler struct {
	inner      Handler
	lim        chunkLimits
	reassembly *obs.Histogram

	mu sync.Mutex
	// asm holds the in-flight reassemblies, charged with the bytes each
	// has absorbed: at most maxStreams of them and maxMessage bytes in
	// all, so what unverified senders pin is one message's worth however
	// many streams they open. An evicted stream is refused as truncated
	// when its final slice arrives.
	asm *bounded.Table[string, *chunkAssembly]
	// replies holds the slices of stashed chunked replies, at most
	// maxStreams replies.
	replies *bounded.Table[string, [][]byte]
}

var _ Handler = (*ChunkHandler)(nil)

// chunkAssembly is one in-flight reassembly.
type chunkAssembly struct {
	total int
	size  int64
	parts [][]byte
	got   int
	bytes int64
}

// NewChunkHandler wraps inner with chunk reassembly; scope, when non-nil,
// records reassembled-message sizes into the telemetry plane.
func NewChunkHandler(inner Handler, scope *obs.Scope) *ChunkHandler {
	return newChunkHandler(inner, scope, defaultChunkLimits)
}

func newChunkHandler(inner Handler, scope *obs.Scope, lim chunkLimits) *ChunkHandler {
	return &ChunkHandler{
		inner:      inner,
		lim:        lim,
		reassembly: scope.Histogram(obs.MChunkReassemblyBytes),
		asm:        bounded.New[string, *chunkAssembly](lim.maxStreams, lim.maxMessage, nil),
		replies:    bounded.New[string, [][]byte](lim.maxStreams, 0, nil),
	}
}

// Handle implements Handler.
func (h *ChunkHandler) Handle(ctx context.Context, env *Envelope) (*Envelope, error) {
	switch env.Kind {
	case KindChunkPart:
		if _, _, err := h.absorb(env); err != nil {
			return nil, err
		}
		return &Envelope{ID: id.NewMsg(), Kind: KindChunkAck}, nil
	case KindChunkEnd:
		body, f, err := h.absorb(env)
		if err != nil {
			return nil, err
		}
		assembled := &Envelope{ID: f.MsgID, Kind: f.Kind, From: env.From, To: env.To, Tenant: env.Tenant, Body: body}
		reply, err := h.inner.Handle(ctx, assembled)
		if err != nil {
			return nil, err
		}
		if !f.WantReply || reply == nil {
			return &Envelope{ID: id.NewMsg(), Kind: KindChunkAck}, nil
		}
		if len(reply.Body) <= h.lim.threshold {
			return reply, nil
		}
		return h.stashReply(reply), nil
	case KindChunkFetch:
		return h.fetch(env)
	default:
		return h.inner.Handle(ctx, env)
	}
}

// absorb validates and stores one chunk slice; for a final slice of a
// complete stream it returns the reassembled body and the end frame.
// Malformed, conflicting or over-budget slices yield errors — never a
// panic, and never an allocation sized by an undelivered claim: the part
// table is capped by maxChunkCount and payload bytes accrue only as they
// arrive, with the full-size buffer allocated only once every byte is in.
func (h *ChunkHandler) absorb(env *Envelope) ([]byte, *chunkFrame, error) {
	var f chunkFrame
	if err := unmarshalChunkFrame(env.Body, &f); err != nil {
		return nil, nil, fmt.Errorf("transport: decode chunk frame: %w", err)
	}
	if f.Stream == "" {
		return nil, nil, fmt.Errorf("transport: chunk frame without stream id")
	}
	if f.Total < 1 || f.Total > maxChunkCount {
		return nil, nil, fmt.Errorf("transport: chunk stream of %d slices out of bounds", f.Total)
	}
	if f.Size < 0 || f.Size > h.lim.maxMessage {
		return nil, nil, fmt.Errorf("transport: chunk stream of %d bytes exceeds the %d byte limit", f.Size, h.lim.maxMessage)
	}
	if f.Seq < 0 || f.Seq >= f.Total {
		return nil, nil, fmt.Errorf("transport: chunk slice %d outside stream of %d", f.Seq, f.Total)
	}
	if len(f.Data) > maxChunkSlice {
		return nil, nil, fmt.Errorf("transport: chunk slice of %d bytes exceeds the %d byte limit", len(f.Data), maxChunkSlice)
	}
	isEnd := env.Kind == KindChunkEnd
	if isEnd && f.Seq != f.Total-1 {
		return nil, nil, fmt.Errorf("transport: final chunk has slice %d of %d", f.Seq, f.Total)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.asm.Get(f.Stream)
	if !ok {
		a = &chunkAssembly{total: f.Total, size: f.Size, parts: make([][]byte, f.Total)}
		h.asm.Put(f.Stream, a)
	}
	if a.total != f.Total || a.size != f.Size {
		return nil, nil, fmt.Errorf("transport: chunk slice disagrees with stream %q shape", f.Stream)
	}
	if prev := a.parts[f.Seq]; prev != nil {
		if !bytes.Equal(prev, f.Data) {
			h.asm.Delete(f.Stream)
			return nil, nil, fmt.Errorf("transport: conflicting duplicate of chunk slice %d in stream %q", f.Seq, f.Stream)
		}
		// Idempotent duplicate (a replayed slice): already absorbed.
	} else {
		if a.bytes+int64(len(f.Data)) > a.size {
			h.asm.Delete(f.Stream)
			return nil, nil, fmt.Errorf("transport: chunk stream %q overruns its declared %d bytes", f.Stream, a.size)
		}
		a.parts[f.Seq] = f.Data
		a.got++
		a.bytes += int64(len(f.Data))
		h.asm.Charge(f.Stream, int64(len(f.Data)))
	}
	if !isEnd {
		return nil, &f, nil
	}
	if a.got != a.total || a.bytes != a.size {
		h.asm.Delete(f.Stream)
		return nil, nil, fmt.Errorf("transport: chunk stream %q truncated: %d of %d slices, %d of %d bytes",
			f.Stream, a.got, a.total, a.bytes, a.size)
	}
	body := make([]byte, 0, a.size)
	for _, p := range a.parts {
		body = append(body, p...)
	}
	h.asm.Delete(f.Stream)
	h.reassembly.Observe(a.size)
	return body, &f, nil
}

// stashReply stores an oversized reply for pull-style retrieval and
// returns its chunk-reply header carrying the first slice.
func (h *ChunkHandler) stashReply(reply *Envelope) *Envelope {
	cs := h.lim.chunkSize
	body := reply.Body
	total := (len(body) + cs - 1) / cs
	slices := make([][]byte, total)
	for i := range slices {
		lo := i * cs
		slices[i] = body[lo:min(lo+cs, len(body))]
	}
	stream := string(id.NewMsg())
	h.mu.Lock()
	h.replies.Put(stream, slices)
	h.mu.Unlock()
	hdr := chunkFrame{
		Stream: stream, Seq: 0, Total: total, Size: int64(len(body)),
		MsgID: reply.ID, Kind: reply.Kind, Data: slices[0],
	}
	return &Envelope{ID: id.NewMsg(), Kind: KindChunkReply, Body: marshalChunkFrame(&hdr)}
}

// fetch serves one slice of a stashed chunked reply. Serving the final
// slice releases the stash; a retransmitted final fetch is answered by the
// deduplication layer's cached reply.
func (h *ChunkHandler) fetch(env *Envelope) (*Envelope, error) {
	var f chunkFrame
	if err := unmarshalChunkFrame(env.Body, &f); err != nil {
		return nil, fmt.Errorf("transport: decode chunk fetch: %w", err)
	}
	h.mu.Lock()
	slices, ok := h.replies.Get(f.Stream)
	if !ok {
		h.mu.Unlock()
		return nil, fmt.Errorf("transport: unknown reply stream %q", f.Stream)
	}
	if f.Seq < 1 || f.Seq >= len(slices) {
		h.mu.Unlock()
		return nil, fmt.Errorf("transport: reply slice %d outside stream of %d", f.Seq, len(slices))
	}
	data := slices[f.Seq]
	if f.Seq == len(slices)-1 {
		h.replies.Delete(f.Stream)
	}
	h.mu.Unlock()
	out := chunkFrame{Stream: f.Stream, Seq: f.Seq, Data: data}
	return &Envelope{ID: id.NewMsg(), Kind: KindChunkData, Body: marshalChunkFrame(&out)}, nil
}
