package transport

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"

	"nonrep/internal/canon"
)

// goldenEnvelopes is one envelope per wire shape: plain deliver,
// tenant-routed, request/reply kinds, empty vs nil body, batches with
// want-reply and error items, nested batch replies, and chunk frames
// ride separately below.
func goldenEnvelopes() []*Envelope {
	return []*Envelope{
		{ID: "m1", Kind: "b2b-deliver", Body: []byte(`{"protocol":"ping"}`)},
		{ID: "m2", From: "a:1", To: "b:2", Kind: "b2b-request", Tenant: "urn:org:b", Body: []byte{0xEB, 0x00, 'x'}},
		{ID: "m3", Kind: "ack"},                   // nil body
		{ID: "m4", Kind: "error", Body: []byte{}}, // empty (non-nil) body
		{ID: "m5", Kind: "b2b-batch", Batch: []BatchItem{
			{Env: &Envelope{ID: "s1", Kind: "b2b-deliver", Body: []byte("one")}, WantReply: true},
			{Env: &Envelope{ID: "s2", Kind: "b2b-deliver"}},
			{Err: "boom"},
		}},
		{ID: "m6", Kind: "b2b-batch-reply", Batch: []BatchItem{
			{Env: &Envelope{ID: "r1", Kind: "b2b-batch", Batch: []BatchItem{
				{Env: &Envelope{ID: "rr1", Kind: "ack"}, WantReply: true},
			}}},
			{},
		}},
	}
}

// TestBinaryEnvelopeGoldenVectors pins the binary envelope codec to the
// canonical JSON projection: encode→decode→canonical-JSON must equal
// the original envelope's canonical JSON for every shape, through both
// the binary and (trivially) the JSON wire encodings.
func TestBinaryEnvelopeGoldenVectors(t *testing.T) {
	t.Parallel()
	for i, env := range goldenEnvelopes() {
		want, err := canon.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		for _, enc := range []WireEncoding{WireBinary, WireJSON} {
			frame, err := MarshalEnvelope(env, enc)
			if err != nil {
				t.Fatalf("envelope %d (%v): marshal: %v", i, enc, err)
			}
			dec, err := UnmarshalEnvelope(frame)
			if err != nil {
				t.Fatalf("envelope %d (%v): unmarshal: %v", i, enc, err)
			}
			got, err := canon.Marshal(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("envelope %d (%v): canonical projection drifted:\n want %s\n  got %s", i, enc, want, got)
			}
		}
	}
}

// TestTCPEndpointAnswersInRequestEncoding: endpoints write binary frames,
// and a legacy peer that speaks JSON frames is answered in JSON.
func TestTCPEndpointAnswersInRequestEncoding(t *testing.T) {
	t.Parallel()
	n := NewTCPNetwork()
	defer n.Close()
	ep, err := n.Register("127.0.0.1:0", HandlerFunc(func(_ context.Context, env *Envelope) (*Envelope, error) {
		return &Envelope{ID: env.ID, Kind: "pong", Body: env.Body}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []WireEncoding{WireBinary, WireJSON} {
		conn, err := net.Dial("tcp", ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, nil, &Envelope{ID: "q", Kind: "ping", Body: []byte("x")}, enc); err != nil {
			t.Fatal(err)
		}
		f, err := readFrame(conn)
		if err != nil {
			conn.Close()
			t.Fatal(err)
		}
		if f.mux || f.enc != enc || f.env.Kind != "pong" || string(f.env.Body) != "x" {
			t.Fatalf("request in %v: reply %+v in %v (multiplexed %v)", enc, f.env, f.enc, f.mux)
		}
		// The old client reads one reply and the server closes: nothing
		// follows the reply.
		if _, err := readFrame(conn); err == nil {
			t.Fatalf("request in %v: the connection carried a second frame", enc)
		}
		conn.Close()
	}
}

// TestMuxFrameGoldenVectors pins the multiplexed frame: its header bytes
// ahead of the binary envelope, and the round trip of every golden
// envelope behind a request header and a reply header.
func TestMuxFrameGoldenVectors(t *testing.T) {
	t.Parallel()
	vectors := []struct {
		head muxHead
		want []byte
	}{
		{muxHead{id: 1}, []byte{0xE6, 0x01, 0x00, 0x01}},
		{muxHead{id: 300, reply: true}, []byte{0xE6, 0x01, 0x01, 0xAC, 0x02}},
	}
	for _, v := range vectors {
		if got := v.head.append(nil); !bytes.Equal(got, v.want) {
			t.Fatalf("header %+v = % x, want % x", v.head, got, v.want)
		}
		for i, env := range goldenEnvelopes() {
			want, err := canon.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := writeFrame(&buf, v.head.append(nil), env, WireBinary); err != nil {
				t.Fatal(err)
			}
			if raw := buf.Bytes(); !bytes.Equal(raw[4:4+len(v.want)], v.want) || raw[4+len(v.want)] != envMagic {
				t.Fatalf("envelope %d: frame opens % x", i, raw[:4+len(v.want)+1])
			}
			f, err := readFrame(&buf)
			if err != nil {
				t.Fatalf("envelope %d: %v", i, err)
			}
			got, err := canon.Marshal(f.env)
			if err != nil {
				t.Fatal(err)
			}
			if !f.mux || f.head != v.head || !bytes.Equal(want, got) {
				t.Fatalf("envelope %d: read %+v %s, want %+v %s", i, f.head, got, v.head, want)
			}
		}
	}
	// A multiplexed frame carries a binary envelope, never JSON, and no
	// unknown flag or version.
	for _, body := range [][]byte{
		append(muxHead{id: 1}.append(nil), '{', '}'),
		{0xE6, 0x01, 0x02, 0x01, envMagic},
		{0xE6, 0x02, 0x00, 0x01, envMagic},
		{0xE6, 0x01},
	} {
		var buf bytes.Buffer
		var hdr [4]byte
		hdr[3] = byte(len(body))
		buf.Write(hdr[:])
		buf.Write(body)
		if _, err := readFrame(&buf); err == nil {
			t.Fatalf("frame % x read without error", body)
		}
	}
}

// TestBinaryChunkFrameGoldenVectors does the same for chunk frames, the
// zero-copy payload path.
func TestBinaryChunkFrameGoldenVectors(t *testing.T) {
	t.Parallel()
	frames := []*chunkFrame{
		{Stream: "s1", Seq: 0, Total: 3, Size: 1 << 20, Data: []byte("payload")},
		{Stream: "s2", Seq: 2, Total: 3, Size: 12, MsgID: "m1", Kind: "bulk", WantReply: true, Data: []byte{}},
		{Stream: "r", Seq: 1},
	}
	for i, f := range frames {
		want, err := canon.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		bin := marshalChunkFrame(f)
		var dec chunkFrame
		if err := unmarshalChunkFrame(bin, &dec); err != nil {
			t.Fatalf("frame %d: unmarshal: %v", i, err)
		}
		got, err := canon.Marshal(&dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("frame %d: canonical projection drifted:\n want %s\n  got %s", i, want, got)
		}
		// Zero-copy contract: decoded data aliases the frame buffer.
		if len(dec.Data) > 0 && &dec.Data[0] != &bin[len(bin)-len(dec.Data)] {
			t.Fatalf("frame %d: decoded data was copied, want borrow", i)
		}
	}
}

// FuzzBinaryEnvelopeDecode feeds arbitrary bytes to the envelope
// decoder. Malformed frames must error — never panic, never allocate
// proportionally to a lying count — and whatever decodes must
// re-encode and decode back to the same canonical projection.
func FuzzBinaryEnvelopeDecode(f *testing.F) {
	for _, env := range goldenEnvelopes() {
		for _, enc := range []WireEncoding{WireBinary, WireJSON} {
			if frame, err := MarshalEnvelope(env, enc); err == nil {
				f.Add(frame)
			}
		}
	}
	f.Add([]byte{envMagic})                   // torn magic
	f.Add([]byte{envMagic, 0x02})             // version confusion
	f.Add([]byte{envMagic, 0x01, 0xFF, 0xFF}) // truncated field
	f.Add([]byte{chunkMagic, 0x01, 0x01, 's'})
	f.Add([]byte{muxMagic, 0x01, 0x00, 0x01, envMagic}) // a frame header is no envelope

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		frame, err := MarshalEnvelope(env, WireBinary)
		if err != nil {
			// The one legitimate refusal is a JSON-decoded batch nested
			// past the binary encoder's depth cap.
			if strings.Contains(err.Error(), "nested beyond depth") {
				return
			}
			t.Fatalf("re-marshal of decoded envelope failed: %v", err)
		}
		back, err := UnmarshalEnvelope(frame)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		a, aerr := canon.Marshal(env)
		b, berr := canon.Marshal(back)
		if aerr == nil && berr == nil && !bytes.Equal(a, b) {
			t.Fatalf("round-trip drift:\n %s\n %s", a, b)
		}
	})
}
