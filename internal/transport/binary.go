// Binary envelope encoding — the machine path for the wire.
//
// A binary envelope opens with a magic byte (0xEB, outside UTF-8's
// first-byte range for JSON text, whose envelopes always start '{') and
// a format version, then varint-framed fields mirroring the canonical
// JSON field order. Chunk frames get the same treatment under their own
// magic (0xC7) with the slice payload carried as a raw byte run — a
// received chunk's Data is a sub-slice of the frame buffer, so payload
// bytes travel from the socket read to reassembly to VerifyChunk
// without ever being copied through an intermediate encoding.
//
// Both decoders auto-detect: a frame starting '{' is decoded as
// canonical JSON, so binary speakers interoperate with legacy peers,
// and a TCP endpoint answers a one-exchange frame in the encoding it
// arrived in (the version negotiation — no handshake needed). A
// multiplexed TCP frame opens with its own magic (0xE6) and a header
// naming the request it carries or answers, ahead of a binary envelope;
// a connection's first frame says which kind of peer is speaking.
package transport

import (
	"fmt"

	"nonrep/internal/canon"
	"nonrep/internal/id"
)

// WireEncoding names a frame encoding. TCP endpoints write binary and
// answer a request in the encoding it arrived in; reads auto-detect.
type WireEncoding uint8

// Wire encodings.
const (
	// WireBinary frames binary envelopes (the default).
	WireBinary WireEncoding = iota
	// WireJSON frames canonical JSON envelopes, for interoperating with
	// peers that predate the binary format.
	WireJSON
)

// Binary frame magic bytes and format versions.
const (
	envMagic      = 0xEB
	chunkMagic    = 0xC7
	muxMagic      = 0xE6
	wireVersion   = 0x01
	maxBatchDepth = 16
)

// muxHead opens a multiplexed TCP frame, ahead of its binary envelope:
// muxMagic, the version, a flags byte (bit 0: a reply) and the request
// id as a uvarint. A reply carries its request's id; each side numbers
// its own requests, so the flag keeps the two sequences apart.
type muxHead struct {
	id    uint64
	reply bool
}

func (h muxHead) append(dst []byte) []byte {
	var flags byte
	if h.reply {
		flags = 1
	}
	dst = append(dst, muxMagic, wireVersion, flags)
	return canon.AppendUvarint(dst, h.id)
}

// decodeMuxHead splits a multiplexed frame into its header and the
// envelope bytes behind it.
func decodeMuxHead(body []byte) (muxHead, []byte, error) {
	r := canon.NewBinReader(body)
	r.Byte() // magic, checked by the caller
	if v := r.Byte(); r.Err() == nil && v != wireVersion {
		return muxHead{}, nil, fmt.Errorf("transport: %w: unsupported multiplexed frame version %d", canon.ErrBinary, v)
	}
	flags := r.Byte()
	h := muxHead{reply: flags == 1, id: r.Uvarint()}
	if err := r.Err(); err != nil {
		return muxHead{}, nil, fmt.Errorf("transport: decode multiplexed frame: %w", err)
	}
	if flags > 1 {
		return muxHead{}, nil, fmt.Errorf("transport: %w: multiplexed frame flags %#x", canon.ErrBinary, flags)
	}
	return h, body[len(body)-r.Len():], nil
}

// MarshalEnvelope encodes an envelope in the given wire encoding.
func MarshalEnvelope(env *Envelope, enc WireEncoding) ([]byte, error) {
	if enc == WireJSON {
		return canon.Marshal(env)
	}
	return appendEnvelope(make([]byte, 0, 64+len(env.Body)), env, 0)
}

// UnmarshalEnvelope decodes an envelope, auto-detecting its encoding.
// Byte fields of a binary envelope are sub-slices of data: the caller
// must hand over ownership of the buffer.
func UnmarshalEnvelope(data []byte) (*Envelope, error) {
	if len(data) > 0 && data[0] == envMagic {
		r := canon.NewBinReader(data)
		env, err := decodeEnvelope(&r, 0)
		if err != nil {
			return nil, err
		}
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("transport: decode binary envelope: %w", err)
		}
		return env, nil
	}
	env := new(Envelope)
	if err := canon.Unmarshal(data, env); err != nil {
		return nil, err
	}
	return env, nil
}

func appendEnvelope(dst []byte, env *Envelope, depth int) ([]byte, error) {
	if depth > maxBatchDepth {
		return nil, fmt.Errorf("transport: batch envelope nested beyond depth %d", maxBatchDepth)
	}
	dst = appendEnvelopeHead(dst, env)
	dst = append(dst, env.Body...)
	return appendEnvelopeTail(dst, env, depth)
}

// appendEnvelopeHead appends everything a binary envelope holds ahead of
// its body's bytes, the body's length prefix included. The frame writer
// sends head, body and tail as separate runs, so a body is never copied
// into a frame buffer.
func appendEnvelopeHead(dst []byte, env *Envelope) []byte {
	dst = append(dst, envMagic, wireVersion)
	dst = canon.AppendString(dst, string(env.ID))
	dst = canon.AppendString(dst, env.From)
	dst = canon.AppendString(dst, env.To)
	dst = canon.AppendString(dst, env.Kind)
	dst = canon.AppendString(dst, env.Tenant)
	return canon.AppendBytesHeader(dst, env.Body)
}

// appendEnvelopeTail appends what follows the body: the batch items,
// each sub-envelope encoded whole.
func appendEnvelopeTail(dst []byte, env *Envelope, depth int) ([]byte, error) {
	dst = canon.AppendUvarint(dst, uint64(len(env.Batch)))
	for i := range env.Batch {
		item := &env.Batch[i]
		if item.Env == nil {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			var err error
			dst, err = appendEnvelope(dst, item.Env, depth+1)
			if err != nil {
				return nil, err
			}
		}
		dst = canon.AppendBool(dst, item.WantReply)
		dst = canon.AppendString(dst, item.Err)
	}
	return dst, nil
}

func decodeEnvelope(r *canon.BinReader, depth int) (*Envelope, error) {
	if depth > maxBatchDepth {
		return nil, fmt.Errorf("transport: %w: batch nested beyond depth %d", canon.ErrBinary, maxBatchDepth)
	}
	if r.Byte() != envMagic {
		r.Fail(fmt.Errorf("transport: %w: envelope magic", canon.ErrBinary))
	}
	if v := r.Byte(); r.Err() == nil && v != wireVersion {
		return nil, fmt.Errorf("transport: %w: unsupported envelope version %d", canon.ErrBinary, v)
	}
	env := new(Envelope)
	env.ID = id.Msg(r.ValidString())
	env.From = r.ValidString()
	env.To = r.ValidString()
	env.Kind = r.ValidString()
	env.Tenant = r.ValidString()
	env.Body = r.Bytes()
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n == 0 {
		return env, nil
	}
	// Each item needs at least three bytes, bounding the count by the
	// remaining input before the part table is allocated.
	if n > uint64(r.Len()) {
		return nil, r.Fail(fmt.Errorf("transport: %w: batch count", canon.ErrBinary))
	}
	env.Batch = make([]BatchItem, n)
	for i := range env.Batch {
		switch r.Byte() {
		case 0:
		case 1:
			sub, err := decodeEnvelope(r, depth+1)
			if err != nil {
				return nil, err
			}
			env.Batch[i].Env = sub
		default:
			return nil, r.Fail(fmt.Errorf("transport: %w: batch item marker", canon.ErrBinary))
		}
		env.Batch[i].WantReply = r.Bool()
		env.Batch[i].Err = r.ValidString()
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// marshalChunkFrame encodes a chunk frame in binary. Chunk frames are
// created by this layer on both sides, so unlike envelopes they never
// need a JSON-producing option — a legacy peer would not understand the
// chunk protocol's kinds either way.
func marshalChunkFrame(f *chunkFrame) []byte {
	dst := make([]byte, 0, 64+len(f.Data))
	dst = append(dst, chunkMagic, wireVersion)
	dst = canon.AppendString(dst, f.Stream)
	dst = canon.AppendVarint(dst, int64(f.Seq))
	dst = canon.AppendVarint(dst, int64(f.Total))
	dst = canon.AppendVarint(dst, f.Size)
	dst = canon.AppendString(dst, string(f.MsgID))
	dst = canon.AppendString(dst, f.Kind)
	dst = canon.AppendBool(dst, f.WantReply)
	return canon.AppendBytes(dst, f.Data)
}

// unmarshalChunkFrame decodes a chunk frame, auto-detecting the binary
// format against legacy JSON. Data is a sub-slice of the input: chunk
// payload bytes are borrowed, never copied, on their way to reassembly.
func unmarshalChunkFrame(data []byte, f *chunkFrame) error {
	if len(data) == 0 || data[0] != chunkMagic {
		return canon.Unmarshal(data, f)
	}
	r := canon.NewBinReader(data)
	r.Byte() // magic, checked above
	if v := r.Byte(); r.Err() == nil && v != wireVersion {
		return fmt.Errorf("transport: %w: unsupported chunk frame version %d", canon.ErrBinary, v)
	}
	f.Stream = r.ValidString()
	f.Seq = r.Int()
	f.Total = r.Int()
	f.Size = r.Varint()
	f.MsgID = id.Msg(r.ValidString())
	f.Kind = r.ValidString()
	f.WantReply = r.Bool()
	f.Data = r.Bytes()
	if err := r.Done(); err != nil {
		return fmt.Errorf("transport: decode binary chunk frame: %w", err)
	}
	return nil
}
