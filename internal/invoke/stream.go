// Streamed invocation payloads: the chunked-transfer extension of the
// three-message exchange. A streamed parameter travels ahead of the
// request as ordered chunk protocol messages; the request's snapshot then
// carries the parameter resolved to its chunk-digest chain
// (evidence.StreamRef), so the NRO — and the server's NRR — sign evidence
// binding the whole payload while each chunk stays independently
// verifiable. Streamed results travel pull-style: the response snapshot
// carries the chain (signed by NRO-of-response), and the client fetches
// and verifies chunks lazily as the result is read.
package invoke

import (
	"context"
	"fmt"
	"io"
	"sync"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
)

// DefaultStreamChunk is the chunk size of streamed parameters and results
// (1 MiB: each chunk message rides one wire envelope comfortably inside
// the frame budget).
const DefaultStreamChunk = 1 << 20

// Streamed-payload limits on the serving side.
const (
	// DefaultMaxStreamBytes bounds one buffered inbound stream (1 GiB);
	// chunks beyond it are refused, which fails the stream's run without
	// affecting others. It also bounds what a server's buffered streams
	// hold together, before any signature over them has been checked:
	// past it the oldest stream is evicted, and its request is refused
	// as incomplete.
	DefaultMaxStreamBytes = 1 << 30
	// maxPendingStreams bounds concurrently buffered inbound streams; the
	// oldest is evicted when a new stream would exceed it.
	maxPendingStreams = 256
)

// Stream names one streamed invocation parameter and its byte source.
type Stream struct {
	// Name is the parameter name the evidence (and the server-side
	// Invocation) exposes the payload under.
	Name string
	// Reader supplies the payload; it is read exactly once, to EOF.
	Reader io.Reader
}

// StreamParam declares a streamed parameter for Proxy.CallStream or
// Request.Streams.
func StreamParam(name string, r io.Reader) Stream {
	return Stream{Name: name, Reader: r}
}

// Additional message kinds of a streaming run.
const (
	kindChunk      = "chunk"
	kindChunkAck   = "chunk-ack"
	kindChunkFetch = "chunk-fetch"
	kindChunkData  = "chunk-data"
)

// chunkBody describes one streamed-parameter chunk, delivered before the
// request. The chunk's bytes ride the message's Attachment.
type chunkBody struct {
	Stream string `json:"stream"`
	Seq    int    `json:"seq"`
}

// chunkFetchBody requests one chunk of a streamed result.
type chunkFetchBody struct {
	Run  id.Run `json:"run"`
	Name string `json:"name"`
	Seq  int    `json:"seq"`
}

// StreamExecutor is an Executor that additionally accepts streamed
// parameters and produces streamed results. The container implements it;
// custom executors may too. streams maps parameter names to their verified
// payloads; results collects streamed results the server ships back
// chunk-by-chunk under the response evidence.
type StreamExecutor interface {
	Executor
	ExecuteStream(ctx context.Context, req *evidence.RequestSnapshot, streams map[string]io.Reader, results *ResultStreams) ([]evidence.Param, error)
}

// StreamExecutorFunc adapts a function to StreamExecutor; plain Execute
// calls it with no streams.
type StreamExecutorFunc func(ctx context.Context, req *evidence.RequestSnapshot, streams map[string]io.Reader, results *ResultStreams) ([]evidence.Param, error)

// Execute implements Executor.
func (f StreamExecutorFunc) Execute(ctx context.Context, req *evidence.RequestSnapshot) ([]evidence.Param, error) {
	return f(ctx, req, nil, nil)
}

// ExecuteStream implements StreamExecutor.
func (f StreamExecutorFunc) ExecuteStream(ctx context.Context, req *evidence.RequestSnapshot, streams map[string]io.Reader, results *ResultStreams) ([]evidence.Param, error) {
	return f(ctx, req, streams, results)
}

// ResultStreams collects streamed results on the server side: each Writer
// buffers its payload in evidence-sized chunks and digests the chain as it
// is written, so the response snapshot can bind the whole result before a
// single chunk travels.
type ResultStreams struct {
	chunkSize int

	mu    sync.Mutex
	order []string
	m     map[string]*resultBuffer
}

// NewResultStreams creates a collector with the given chunk size (0 means
// DefaultStreamChunk).
func NewResultStreams(chunkSize int) *ResultStreams {
	if chunkSize <= 0 {
		chunkSize = DefaultStreamChunk
	}
	return &ResultStreams{chunkSize: chunkSize, m: make(map[string]*resultBuffer)}
}

// Writer returns (creating on first use) the stream writer for a named
// result. The client reads it back with Result.Stream(name).
func (r *ResultStreams) Writer(name string) io.Writer {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.m[name]
	if !ok {
		b = &resultBuffer{chunkSize: r.chunkSize}
		r.m[name] = b
		r.order = append(r.order, name)
	}
	return b
}

// params finalises every stream into its evidence parameter, in writer
// creation order.
func (r *ResultStreams) params() ([]evidence.Param, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]evidence.Param, 0, len(r.order))
	for _, name := range r.order {
		ref, err := r.m[name].ref()
		if err != nil {
			return nil, fmt.Errorf("invoke: finalise result stream %q: %w", name, err)
		}
		out = append(out, evidence.StreamRefParam(name, ref))
	}
	return out, nil
}

// chunkMap exposes the buffered chunks for fetch serving, keyed by name.
func (r *ResultStreams) chunkMap() map[string][][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.m) == 0 {
		return nil
	}
	out := make(map[string][][]byte, len(r.m))
	for name, b := range r.m {
		out[name] = b.sealedChunks()
	}
	return out
}

// resultBuffer chunks written bytes and digests each chunk as it fills,
// so finalising the stream only digests its tail.
type resultBuffer struct {
	chunkSize int
	mu        sync.Mutex
	chunks    [][]byte
	cur       []byte
	d         *evidence.StreamDigester
	err       error // the digester's first refusal
}

// Write implements io.Writer.
func (b *resultBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(p)
	for len(p) > 0 {
		if b.cur == nil {
			b.cur = make([]byte, 0, b.chunkSize)
		}
		take := min(b.chunkSize-len(b.cur), len(p))
		b.cur = append(b.cur, p[:take]...)
		p = p[take:]
		if len(b.cur) == b.chunkSize {
			b.sealLocked()
		}
	}
	return n, nil
}

// sealLocked closes the current chunk and digests it.
func (b *resultBuffer) sealLocked() {
	if b.d == nil {
		b.d = evidence.NewStreamDigester(b.chunkSize)
	}
	if err := b.d.Add(b.cur); err != nil && b.err == nil {
		b.err = err
	}
	b.chunks = append(b.chunks, b.cur)
	b.cur = nil
}

// sealedChunks returns the chunk list with any partial tail flushed.
func (b *resultBuffer) sealedChunks() [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur != nil {
		b.sealLocked()
	}
	return b.chunks
}

// ref finishes the digest chain: the tail is the only chunk left to
// digest.
func (b *resultBuffer) ref() (evidence.StreamRef, error) {
	b.sealedChunks()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return evidence.StreamRef{}, b.err
	}
	if b.d == nil {
		b.d = evidence.NewStreamDigester(b.chunkSize)
	}
	return b.d.Ref("")
}

// ResultStream reads one streamed invocation result on the client side,
// fetching chunks lazily from the server and verifying every chunk
// against the digest chain the server's response evidence signed. A chunk
// that fails verification ends the stream with an ErrEvidenceInvalid
// error naming the chunk.
type ResultStream struct {
	ctx    context.Context
	co     *protocol.Coordinator
	server id.Party
	proto  string
	run    id.Run
	name   string
	ref    evidence.StreamRef

	seq int
	buf []byte
	err error
}

// Name returns the result stream's name.
func (s *ResultStream) Name() string { return s.name }

// Size returns the stream's total byte length, as bound by the response
// evidence.
func (s *ResultStream) Size() int64 { return s.ref.Size }

// Ref returns the stream's signed chunk-digest chain.
func (s *ResultStream) Ref() evidence.StreamRef { return s.ref }

// Read implements io.Reader. Fetches run under the invocation's context.
func (s *ResultStream) Read(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	for len(s.buf) == 0 {
		if s.seq >= len(s.ref.Chunks) {
			return 0, io.EOF
		}
		msg := &protocol.Message{Protocol: s.proto, Run: s.run, Step: stepResponse, Kind: kindChunkFetch}
		if err := msg.SetBody(chunkFetchBody{Run: s.run, Name: s.name, Seq: s.seq}); err != nil {
			s.err = err
			return 0, s.err
		}
		reply, err := s.co.DeliverRequest(s.ctx, s.server, msg)
		if err != nil {
			s.err = fmt.Errorf("invoke: fetch result stream %q chunk %d: %w", s.name, s.seq, err)
			return 0, s.err
		}
		data := reply.Attachment
		if err := s.ref.VerifyChunk(s.seq, data); err != nil {
			s.err = fmt.Errorf("%w: result stream %q: %v", ErrEvidenceInvalid, s.name, err)
			return 0, s.err
		}
		s.buf = data
		s.seq++
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	if len(s.buf) == 0 {
		// A chunk borrows the whole frame it arrived in: a Result kept
		// after its stream was read must not pin the last one.
		s.buf = nil
	}
	return n, nil
}
