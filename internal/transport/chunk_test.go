package transport

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"nonrep/internal/canon"
	"nonrep/internal/id"
)

// chunkStack builds an in-process network with a full chunked endpoint
// stack on the sender and a reassembling receive chain on the handler
// side, mirroring how coordinators compose the layers.
func chunkStack(t *testing.T, lim chunkLimits, handler Handler) (Endpoint, string) {
	t.Helper()
	net := NewInprocNetwork()
	t.Cleanup(func() { net.Close() })
	recv := NewBatchOpener(NewDedupWith(newChunkHandler(handler, nil, lim), nil))
	if _, err := net.Register("server", recv); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Register("client", HandlerFunc(func(context.Context, *Envelope) (*Envelope, error) {
		return nil, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	ep := &Chunker{inner: NewReliable(raw, RetryPolicy{Attempts: 3}), lim: lim}
	return ep, "server"
}

// randomBody returns deterministic pseudo-random bytes (compressible by
// nothing, so sizes are honest).
func randomBody(n int, seed int64) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

func TestChunkedRequestRoundTrip(t *testing.T) {
	lim := chunkLimits{threshold: 1 << 10, chunkSize: 300, maxMessage: 1 << 22, maxStreams: DefaultMaxChunkStreams}
	var got []byte
	var kind string
	handler := HandlerFunc(func(_ context.Context, env *Envelope) (*Envelope, error) {
		got = env.Body
		kind = env.Kind
		// Reply is oversized too, exercising pull-style reply chunking.
		return &Envelope{ID: id.NewMsg(), Kind: "echo-reply", Body: append([]byte("re:"), env.Body...)}, nil
	})
	ep, to := chunkStack(t, lim, handler)

	body := randomBody(10_000, 1)
	env := NewEnvelope("bulk", body)
	reply, err := ep.Request(context.Background(), to, env)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "bulk" || !bytes.Equal(got, body) {
		t.Fatalf("handler saw kind %q, %d bytes; want bulk, %d", kind, len(got), len(body))
	}
	if reply.Kind != "echo-reply" || !bytes.Equal(reply.Body, append([]byte("re:"), body...)) {
		t.Fatalf("reply kind %q, %d bytes: reassembly mismatch", reply.Kind, len(reply.Body))
	}
}

func TestChunkedSendOneWay(t *testing.T) {
	lim := chunkLimits{threshold: 512, chunkSize: 100, maxMessage: 1 << 20, maxStreams: DefaultMaxChunkStreams}
	var calls atomic.Int32
	var got []byte
	handler := HandlerFunc(func(_ context.Context, env *Envelope) (*Envelope, error) {
		calls.Add(1)
		got = env.Body
		return nil, nil
	})
	ep, to := chunkStack(t, lim, handler)
	body := randomBody(2_000, 2)
	if err := ep.Send(context.Background(), to, NewEnvelope("bulk", body)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 || !bytes.Equal(got, body) {
		t.Fatalf("handler calls %d, %d bytes; want 1 call with %d bytes", calls.Load(), len(got), len(body))
	}
}

func TestSmallEnvelopePassesThrough(t *testing.T) {
	lim := defaultChunkLimits
	lim.threshold = 1 << 20
	var sawKind string
	handler := HandlerFunc(func(_ context.Context, env *Envelope) (*Envelope, error) {
		sawKind = env.Kind
		return &Envelope{ID: env.ID, Kind: "small-reply"}, nil
	})
	ep, to := chunkStack(t, lim, handler)
	reply, err := ep.Request(context.Background(), to, NewEnvelope("small", []byte("hello")))
	if err != nil {
		t.Fatal(err)
	}
	if sawKind != "small" || reply.Kind != "small-reply" {
		t.Fatalf("small envelope was not passed through untouched (%q, %q)", sawKind, reply.Kind)
	}
}

// TestChunkEndRetransmitExactlyOnce verifies the exactly-once contract: a
// retransmitted final chunk must return the cached reply without
// re-dispatching the assembled envelope.
func TestChunkEndRetransmitExactlyOnce(t *testing.T) {
	lim := chunkLimits{threshold: 100, chunkSize: 64, maxMessage: 1 << 20, maxStreams: DefaultMaxChunkStreams}
	var calls atomic.Int32
	inner := HandlerFunc(func(_ context.Context, env *Envelope) (*Envelope, error) {
		calls.Add(1)
		return &Envelope{ID: id.NewMsg(), Kind: "done", Body: []byte("ok")}, nil
	})
	chain := NewDedupWith(newChunkHandler(inner, nil, lim), nil)

	body := randomBody(150, 3)
	f1 := chunkFrame{Stream: "s1", Seq: 0, Total: 3, Size: int64(len(body)), Data: body[:64]}
	f2 := chunkFrame{Stream: "s1", Seq: 1, Total: 3, Size: int64(len(body)), Data: body[64:128]}
	f3 := chunkFrame{Stream: "s1", Seq: 2, Total: 3, Size: int64(len(body)), MsgID: "orig-1", Kind: "bulk", WantReply: true, Data: body[128:]}
	envs := []*Envelope{
		{ID: "c1", Kind: KindChunkPart, Body: marshalChunkFrame(&f1)},
		{ID: "c2", Kind: KindChunkPart, Body: marshalChunkFrame(&f2)},
		{ID: "c3", Kind: KindChunkEnd, Body: marshalChunkFrame(&f3)},
	}
	var lastReply *Envelope
	for _, e := range envs {
		r, err := chain.Handle(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		lastReply = r
	}
	if calls.Load() != 1 || lastReply.Kind != "done" {
		t.Fatalf("dispatch count %d, reply %q", calls.Load(), lastReply.Kind)
	}
	// Retransmit the final chunk (same envelope id): cached reply, no
	// second dispatch.
	r, err := chain.Handle(context.Background(), &Envelope{ID: "c3", Kind: KindChunkEnd, Body: marshalChunkFrame(&f3)})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("retransmitted chunk-end re-dispatched the assembled envelope (%d calls)", calls.Load())
	}
	if r.Kind != "done" {
		t.Fatalf("retransmitted chunk-end reply %q, want cached %q", r.Kind, "done")
	}
}

func TestChunkAssemblyRejectsAbuse(t *testing.T) {
	lim := chunkLimits{threshold: 100, chunkSize: 64, maxMessage: 1 << 16, maxStreams: 2}
	var calls atomic.Int64
	inner := HandlerFunc(func(_ context.Context, env *Envelope) (*Envelope, error) {
		calls.Add(1)
		return nil, nil
	})
	h := newChunkHandler(inner, nil, lim)
	send := func(kind string, f chunkFrame) error {
		_, err := h.Handle(context.Background(), &Envelope{ID: id.NewMsg(), Kind: kind, Body: marshalChunkFrame(&f)})
		return err
	}

	cases := []struct {
		name string
		kind string
		f    chunkFrame
	}{
		{"oversized declared size", KindChunkPart, chunkFrame{Stream: "a", Seq: 0, Total: 2, Size: 1 << 20, Data: []byte("x")}},
		{"slice count out of bounds", KindChunkPart, chunkFrame{Stream: "b", Seq: 0, Total: maxChunkCount + 1, Size: 10, Data: []byte("x")}},
		{"slice index outside stream", KindChunkPart, chunkFrame{Stream: "c", Seq: 5, Total: 2, Size: 10, Data: []byte("x")}},
		{"no stream id", KindChunkPart, chunkFrame{Seq: 0, Total: 1, Size: 1, Data: []byte("x")}},
		{"final slice mid-stream", KindChunkEnd, chunkFrame{Stream: "d", Seq: 0, Total: 3, Size: 10, Data: []byte("x")}},
	}
	for _, tc := range cases {
		if err := send(tc.kind, tc.f); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// Conflicting duplicate slice.
	if err := send(KindChunkPart, chunkFrame{Stream: "e", Seq: 0, Total: 2, Size: 8, Data: []byte("AAAA")}); err != nil {
		t.Fatal(err)
	}
	if err := send(KindChunkPart, chunkFrame{Stream: "e", Seq: 0, Total: 2, Size: 8, Data: []byte("BBBB")}); err == nil {
		t.Error("conflicting duplicate slice accepted")
	}

	// Truncated stream: end arrives with slices missing.
	if err := send(KindChunkEnd, chunkFrame{Stream: "f", Seq: 1, Total: 2, Size: 8, Data: []byte("AAAA")}); err == nil {
		t.Error("truncated stream dispatched")
	}

	// Overrun: slices deliver more bytes than declared.
	if err := send(KindChunkPart, chunkFrame{Stream: "g", Seq: 0, Total: 2, Size: 6, Data: []byte("AAAA")}); err != nil {
		t.Fatal(err)
	}
	if err := send(KindChunkEnd, chunkFrame{Stream: "g", Seq: 1, Total: 2, Size: 6, MsgID: "m", Kind: "bulk", Data: []byte("BBBB")}); err == nil {
		t.Error("overrunning stream dispatched")
	}

	// A JSON chunk frame, which no build in the wire support window
	// writes, is refused: a whole one-slice stream in JSON reaches no
	// handler, and the same slice in binary does.
	whole := chunkFrame{Stream: "j", Seq: 0, Total: 1, Size: 4, MsgID: "m", Kind: "bulk", Data: []byte("AAAA")}
	calls.Store(0)
	if _, err := h.Handle(context.Background(), &Envelope{ID: id.NewMsg(), Kind: KindChunkEnd, Body: canon.MustMarshal(&whole)}); err == nil || calls.Load() != 0 {
		t.Errorf("JSON chunk frame: error %v after %d handler calls, want an error and none", err, calls.Load())
	}
	if err := send(KindChunkEnd, whole); err != nil || calls.Load() != 1 {
		t.Errorf("binary chunk frame: error %v after %d handler calls, want none and 1", err, calls.Load())
	}
}

// TestChunkStreamEviction: the oldest in-flight assembly is evicted at the
// stream cap, bounding memory regardless of how many streams a peer opens.
func TestChunkStreamEviction(t *testing.T) {
	lim := chunkLimits{threshold: 100, chunkSize: 64, maxMessage: 1 << 16, maxStreams: 2}
	h := newChunkHandler(HandlerFunc(func(_ context.Context, env *Envelope) (*Envelope, error) {
		return nil, nil
	}), nil, lim)
	for i := 0; i < 5; i++ {
		f := chunkFrame{Stream: fmt.Sprintf("s%d", i), Seq: 0, Total: 2, Size: 8, Data: []byte("AAAA")}
		if _, err := h.Handle(context.Background(), &Envelope{ID: id.NewMsg(), Kind: KindChunkPart, Body: marshalChunkFrame(&f)}); err != nil {
			t.Fatal(err)
		}
	}
	h.mu.Lock()
	n := h.asm.Len()
	h.mu.Unlock()
	if n > 2 {
		t.Fatalf("%d concurrent assemblies held, cap is 2", n)
	}
}

// TestChunkReassemblyBoundedByBytes: partial streams together hold no
// more than MaxMessage bytes, however many a sender opens within the
// stream cap, and the stream started last still completes.
func TestChunkReassemblyBoundedByBytes(t *testing.T) {
	lim := defaultChunkLimits
	lim.maxMessage = 1 << 16
	var dispatched []byte
	h := newChunkHandler(HandlerFunc(func(_ context.Context, env *Envelope) (*Envelope, error) {
		dispatched = env.Body
		return nil, nil
	}), nil, lim)
	half := bytes.Repeat([]byte("x"), 1<<15)
	send := func(kind, stream string, seq int) error {
		f := chunkFrame{Stream: stream, Seq: seq, Total: 2, Size: 1 << 16, Data: half}
		if kind == KindChunkEnd {
			f.MsgID, f.Kind = "m", "bulk"
		}
		_, err := h.Handle(context.Background(), &Envelope{ID: id.NewMsg(), Kind: kind, Body: marshalChunkFrame(&f)})
		return err
	}
	held := func() (n int64) {
		h.mu.Lock()
		defer h.mu.Unlock()
		for _, a := range h.asm.All() {
			n += a.bytes
		}
		return n
	}
	for i := 0; i < DefaultMaxChunkStreams; i++ {
		if err := send(KindChunkPart, fmt.Sprintf("partial-%d", i), 0); err != nil {
			t.Fatal(err)
		}
		if n := held(); n > lim.maxMessage {
			t.Fatalf("%d partial streams hold %d bytes, bound %d", i+1, n, lim.maxMessage)
		}
	}
	if err := send(KindChunkPart, "last", 0); err != nil {
		t.Fatal(err)
	}
	if err := send(KindChunkEnd, "last", 1); err != nil {
		t.Fatalf("stream started last: %v", err)
	}
	if len(dispatched) != 1<<16 {
		t.Fatalf("stream started last dispatched %d bytes, want %d", len(dispatched), 1<<16)
	}
	// An evicted stream is refused as truncated when it ends.
	if err := send(KindChunkEnd, "partial-0", 1); err == nil {
		t.Fatal("evicted stream dispatched")
	}
}
