// Streamed payloads in agreed representation: section 3.4 requires every
// invocation parameter and result to resolve to a representation both
// parties agree on before evidence is signed over it. A payload too large
// to travel (or be held) whole resolves to a chunk-digest chain — the
// ordered digests of its fixed-size chunks plus a root digest over the
// chain — and the root is what NRO/NRR tokens sign (via the snapshot
// digest). Each chunk is then independently verifiable against the signed
// chain: a tampered or missing chunk is detected by index and attributable
// to whichever party's signed evidence covers it, preserving the property
// that evidence binds the whole payload even though the payload itself
// travelled in pieces.
package evidence

import (
	"fmt"

	"nonrep/internal/sig"
)

// ParamStream is the parameter kind of a streamed payload: the parameter
// resolves to a chunk-digest chain (StreamRef) rather than inline bytes.
const ParamStream ParamKind = "stream"

// StreamRef resolves a streamed payload to its agreed representation: the
// total size, the chunking geometry, the ordered chunk digests, and the
// root digest over all of it that signed snapshots commit to.
type StreamRef struct {
	// Stream identifies the wire transfer carrying the chunks (empty for
	// result streams, which are fetched by run and name).
	Stream string `json:"stream,omitempty"`
	// Size is the payload's total byte length.
	Size int64 `json:"size"`
	// ChunkSize is the byte length of every chunk except the last.
	ChunkSize int `json:"chunk_size"`
	// Chunks are the SHA-256 digests of the chunks, in order.
	Chunks []sig.Digest `json:"chunks,omitempty"`
	// Root is the digest of the canonical chunk chain — the single value
	// the evidence tokens bind.
	Root sig.Digest `json:"root"`
}

// streamRoot is the canonical preimage of a stream's root digest: a pure
// content commitment. The wire stream identifier is deliberately excluded
// so the root depends only on the payload bytes and chunk geometry, not on
// the transfer instance that happened to carry them.
type streamRoot struct {
	Size      int64        `json:"size"`
	ChunkSize int          `json:"chunk_size"`
	Chunks    []sig.Digest `json:"chunks,omitempty"`
}

// ComputeRoot returns the root digest of the chunk chain.
func (r *StreamRef) ComputeRoot() (sig.Digest, error) {
	return sig.SumCanonical(streamRoot{Size: r.Size, ChunkSize: r.ChunkSize, Chunks: r.Chunks})
}

// chunkCountFor returns how many chunks a payload of size bytes splits
// into at the given chunk size.
func chunkCountFor(size int64, chunkSize int) int64 {
	if size == 0 {
		return 0
	}
	return (size + int64(chunkSize) - 1) / int64(chunkSize)
}

// ChunkLen returns the expected byte length of chunk i.
func (r *StreamRef) ChunkLen(i int) int64 {
	if i < len(r.Chunks)-1 {
		return int64(r.ChunkSize)
	}
	return r.Size - int64(r.ChunkSize)*int64(len(r.Chunks)-1)
}

// Verify checks the reference's internal consistency: sane geometry, a
// chunk count matching the declared size, and a root that reproduces from
// the chain. A reference embedded in a signed snapshot that passes Verify
// makes every chunk of the payload independently checkable.
func (r *StreamRef) Verify() error {
	if r.ChunkSize <= 0 {
		return fmt.Errorf("evidence: stream chunk size %d", r.ChunkSize)
	}
	if r.Size < 0 {
		return fmt.Errorf("evidence: stream size %d", r.Size)
	}
	if want := chunkCountFor(r.Size, r.ChunkSize); int64(len(r.Chunks)) != want {
		return fmt.Errorf("evidence: stream of %d bytes needs %d chunks, reference lists %d", r.Size, want, len(r.Chunks))
	}
	root, err := r.ComputeRoot()
	if err != nil {
		return err
	}
	if root != r.Root {
		return fmt.Errorf("evidence: stream root does not reproduce from the chunk chain")
	}
	return nil
}

// VerifyChunk checks chunk i's bytes against the digest chain: exact
// expected length and digest match. A failure names the chunk, which is
// what makes a tampered or truncated transfer attributable against the
// signed root.
func (r *StreamRef) VerifyChunk(i int, data []byte) error {
	if i < 0 || i >= len(r.Chunks) {
		return fmt.Errorf("evidence: chunk %d outside stream of %d", i, len(r.Chunks))
	}
	if int64(len(data)) != r.ChunkLen(i) {
		return fmt.Errorf("evidence: chunk %d is %d bytes, chain binds %d", i, len(data), r.ChunkLen(i))
	}
	if sig.Sum(data) != r.Chunks[i] {
		return fmt.Errorf("evidence: chunk %d does not match its digest in the signed chain", i)
	}
	return nil
}

// StreamRefParam resolves a streamed payload to its chunk-digest chain.
func StreamRefParam(name string, ref StreamRef) Param {
	return Param{Kind: ParamStream, Name: name, Stream: &ref}
}

// StreamDigester accumulates a payload's chunk-digest chain as the payload
// is read or written, so neither side ever needs the whole payload in
// memory to compute the evidence representation.
type StreamDigester struct {
	chunkSize int
	size      int64
	chunks    []sig.Digest
}

// NewStreamDigester creates a digester for the given chunk size.
func NewStreamDigester(chunkSize int) *StreamDigester {
	return &StreamDigester{chunkSize: chunkSize}
}

// Add digests one chunk. Every chunk must be exactly the digester's chunk
// size except the final one, which may be shorter; Add enforces this by
// rejecting a chunk that follows a short one.
func (d *StreamDigester) Add(chunk []byte) error {
	if len(d.chunks) > 0 && d.size != int64(d.chunkSize)*int64(len(d.chunks)) {
		return fmt.Errorf("evidence: chunk after a short chunk (stream already ended)")
	}
	if len(chunk) == 0 || len(chunk) > d.chunkSize {
		return fmt.Errorf("evidence: chunk of %d bytes with chunk size %d", len(chunk), d.chunkSize)
	}
	d.chunks = append(d.chunks, sig.Sum(chunk))
	d.size += int64(len(chunk))
	return nil
}

// Ref finalises the chain into a StreamRef bound to the given wire stream
// identifier.
func (d *StreamDigester) Ref(stream string) (StreamRef, error) {
	ref := StreamRef{Stream: stream, Size: d.size, ChunkSize: d.chunkSize, Chunks: d.chunks}
	root, err := ref.ComputeRoot()
	if err != nil {
		return StreamRef{}, err
	}
	ref.Root = root
	return ref, nil
}
