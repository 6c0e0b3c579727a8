// Fuzz harnesses for the transport decode surfaces exposed to untrusted
// bytes: the TCP frame reader and the structured batch/tenant envelope
// handlers. Malformed input must yield errors — never a panic, and never
// an allocation sized by an attacker-chosen header. Seed corpora are
// checked in under testdata/fuzz; CI runs each target for a bounded
// fuzzing interval on top of the always-on seed replay.
package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"testing"

	"nonrep/internal/canon"
	"nonrep/internal/id"
)

// FuzzReadFrame feeds arbitrary bytes to the length-prefixed frame
// reader. The reader must never panic and never allocate more than the
// bytes actually delivered (a lying header claiming maxFrame with a
// 4-byte body must fail cheaply), and must refuse a frame whose
// envelope is not binary: the JSON frames among the seeds are refused.
func FuzzReadFrame(f *testing.F) {
	// Well-formed frames as the structural seeds: a one-exchange frame,
	// and a multiplexed request and reply.
	for _, mux := range [][]byte{nil, muxHead{id: 1}.append(nil), muxHead{id: 1 << 40, reply: true}.append(nil)} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, mux, NewEnvelope("b2b-deliver", []byte(`{"protocol":"ping"}`))); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A header claiming a huge body with no bytes behind it.
	var lying [8]byte
	binary.BigEndian.PutUint32(lying[:4], maxFrame)
	f.Add(lying[:])
	// A header over the limit.
	var over [4]byte
	binary.BigEndian.PutUint32(over[:], maxFrame+1)
	f.Add(over[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if fr.env == nil {
			t.Fatal("readFrame returned neither envelope nor error")
		}
		if lead := data[4]; lead != envMagic && lead != muxMagic {
			t.Fatalf("frame led by %#x read as an envelope", lead)
		}
		// A decoded frame must survive re-framing (round-trip safety),
		// header included.
		var mux []byte
		if fr.mux {
			mux = fr.head.append(nil)
		}
		var out bytes.Buffer
		if werr := writeFrame(&out, mux, fr.env); werr != nil {
			t.Fatalf("re-frame of decoded envelope failed: %v", werr)
		}
		back, err := readFrame(&out)
		if err != nil {
			t.Fatalf("re-read of re-framed envelope failed: %v", err)
		}
		if back.mux != fr.mux || back.head != fr.head {
			t.Fatalf("frame header drifted: %+v/%v -> %+v/%v", fr.head, fr.mux, back.head, back.mux)
		}
	})
}

// FuzzEnvelopeDecode feeds arbitrary JSON to the envelope decoder and
// pushes every decode through the full receive chain — batch opener,
// replay dedup, tenant mux — with a benign terminal handler. Hostile
// batch shapes (missing sub-envelopes, mixed tenants, nested kinds) must
// be answered with per-item errors, not panics.
func FuzzEnvelopeDecode(f *testing.F) {
	ok := func(body []byte) []byte { return body }
	f.Add(ok([]byte(`{"id":"m1","kind":"b2b-deliver","body":"aGk="}`)))
	f.Add(ok([]byte(`{"id":"m2","kind":"b2b-batch","batch":[{"env":{"id":"s1","kind":"b2b-deliver"},"want_reply":true},{}]}`)))
	f.Add(ok([]byte(`{"id":"m3","kind":"b2b-batch","batch":[{"env":{"id":"s2","kind":"b2b-batch","tenant":"t1"}}]}`)))
	f.Add(ok([]byte(`{"id":"m4","kind":"b2b-batch","tenant":"t9","batch":[{"env":{"id":"s3","kind":"b2b-deliver","tenant":"zzz"}}]}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var env Envelope
		if err := canon.Unmarshal(data, &env); err != nil {
			return
		}
		terminal := HandlerFunc(func(_ context.Context, e *Envelope) (*Envelope, error) {
			return &Envelope{ID: e.ID, Kind: "ack"}, nil
		})
		chain := NewTenantChain(terminal, nil)
		if _, err := chain.Handle(context.Background(), &env); err != nil {
			_ = err // errors are the contract; panics are the bug
		}
		// And through a tenant mux resolving one known tenant.
		mux := NewTenantMux(tenantResolverFunc(func(tenant string) Handler {
			if tenant == "t1" {
				return chain
			}
			return nil
		}))
		if _, err := mux.Handle(context.Background(), &env); err != nil {
			_ = err
		}
	})
}

// tenantResolverFunc adapts a function to TenantResolver.
type tenantResolverFunc func(tenant string) Handler

func (f tenantResolverFunc) TenantHandler(tenant string) Handler { return f(tenant) }

// FuzzChunkAssemble replays an arbitrary sequence of chunk envelopes — a
// JSON array of {kind, frame} steps, each frame sent in binary — through
// a ChunkHandler with tight
// limits. Out-of-order, duplicate, overlapping, truncated and oversized
// chunk streams must yield errors, never a panic; and the assembler must
// never hold more than its configured budget no matter what the frames
// claim (the over-allocation class FuzzReadFrame fixed at the frame
// layer).
func FuzzChunkAssemble(f *testing.F) {
	type step struct {
		Kind  string     `json:"kind"`
		Frame chunkFrame `json:"frame"`
	}
	seed := func(steps []step) []byte {
		b, err := json.Marshal(steps)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// A complete two-slice stream with a reply fetch.
	f.Add(seed([]step{
		{KindChunkPart, chunkFrame{Stream: "s", Seq: 0, Total: 2, Size: 8, Data: []byte("AAAA")}},
		{KindChunkEnd, chunkFrame{Stream: "s", Seq: 1, Total: 2, Size: 8, MsgID: "m1", Kind: "bulk", WantReply: true, Data: []byte("BBBB")}},
		{KindChunkFetch, chunkFrame{Stream: "r", Seq: 1}},
	}))
	// Out-of-order and duplicate slices.
	f.Add(seed([]step{
		{KindChunkPart, chunkFrame{Stream: "s", Seq: 1, Total: 3, Size: 12, Data: []byte("BBBB")}},
		{KindChunkPart, chunkFrame{Stream: "s", Seq: 1, Total: 3, Size: 12, Data: []byte("BBBB")}},
		{KindChunkPart, chunkFrame{Stream: "s", Seq: 0, Total: 3, Size: 12, Data: []byte("AAAA")}},
		{KindChunkEnd, chunkFrame{Stream: "s", Seq: 2, Total: 3, Size: 12, MsgID: "m", Kind: "k", Data: []byte("CCCC")}},
	}))
	// Overlapping (conflicting duplicate) slice.
	f.Add(seed([]step{
		{KindChunkPart, chunkFrame{Stream: "s", Seq: 0, Total: 2, Size: 8, Data: []byte("AAAA")}},
		{KindChunkPart, chunkFrame{Stream: "s", Seq: 0, Total: 2, Size: 8, Data: []byte("XXXX")}},
	}))
	// Truncated stream: final slice with holes behind it.
	f.Add(seed([]step{
		{KindChunkEnd, chunkFrame{Stream: "s", Seq: 3, Total: 4, Size: 16, MsgID: "m", Kind: "k", Data: []byte("DDDD")}},
	}))
	// Oversized claims: lying size and slice count.
	f.Add(seed([]step{
		{KindChunkPart, chunkFrame{Stream: "s", Seq: 0, Total: 1 << 30, Size: 1 << 40, Data: []byte("A")}},
		{KindChunkPart, chunkFrame{Stream: "t", Seq: 0, Total: 2, Size: 1 << 40, Data: []byte("A")}},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var steps []step
		if err := json.Unmarshal(data, &steps); err != nil {
			return
		}
		if len(steps) > 64 {
			steps = steps[:64]
		}
		lim := chunkLimits{threshold: 128, chunkSize: 64, maxMessage: 1 << 12, maxStreams: 4}
		h := newChunkHandler(HandlerFunc(func(_ context.Context, env *Envelope) (*Envelope, error) {
			return &Envelope{ID: env.ID, Kind: "echo", Body: env.Body}, nil
		}), nil, lim)
		for _, s := range steps {
			kind := s.Kind
			switch kind {
			case KindChunkPart, KindChunkEnd, KindChunkFetch:
			default:
				kind = KindChunkPart
			}
			env := &Envelope{ID: id.NewMsg(), Kind: kind, Body: marshalChunkFrame(&s.Frame)}
			if _, err := h.Handle(context.Background(), env); err != nil {
				_ = err // errors are the contract; panics are the bug
			}
			// Invariant: buffered bytes never exceed one message's budget
			// in total, whatever the frames claimed.
			h.mu.Lock()
			var held int64
			for _, a := range h.asm.All() {
				held += a.bytes
			}
			streams := h.asm.Len()
			h.mu.Unlock()
			if streams > lim.maxStreams {
				t.Fatalf("%d concurrent assemblies, cap %d", streams, lim.maxStreams)
			}
			if held > lim.maxMessage {
				t.Fatalf("assembler holds %d bytes, budget %d", held, lim.maxMessage)
			}
		}
	})
}
