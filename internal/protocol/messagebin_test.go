package protocol

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/sig"
)

// goldenToken is a fixed token: every field that reaches the wire is
// pinned, so the vectors below depend on neither a clock nor a key.
func goldenToken() *evidence.Token {
	return &evidence.Token{
		Kind: evidence.KindNRO, Run: "run-1", Txn: "txn-1", Step: 1, Issuer: "urn:org:a",
		Recipients: []id.Party{"urn:org:b"}, Digest: sig.Sum([]byte("content")),
		IssuedAt:  time.Date(2004, 6, 28, 12, 0, 0, 0, time.UTC),
		Nonce:     "n1",
		Signature: sig.Signature{Algorithm: sig.AlgEd25519, KeyID: "k1", Bytes: []byte{1, 2, 3}},
	}
}

// goldenMessages pairs one message per wire shape with the bytes the
// binary codec must produce for it. The version-0x01 vectors were
// captured from the codec as it stood before attachments existed: a
// message without an attachment must keep those bytes exactly.
var goldenMessages = []struct {
	name string
	msg  *Message
	hex  string
}{
	{"v1 request with token and payload", &Message{
		Protocol: "nonrep/direct", Run: "run-1", Txn: "txn-1", Step: 1, Kind: "request",
		Sender: "urn:org:a", ReplyAddr: "127.0.0.1:9", Tokens: []*evidence.Token{goldenToken()},
		Payload: []byte(`{"snapshot":{}}`),
	}, "ec010d6e6f6e7265702f6469726563740572756e2d310574786e2d310207726571756573740975726e3a6f72673a610b3132372e302e302e313a39010191027b226b696e64223a226e726f2d726571222c2272756e223a2272756e2d31222c2274786e223a2274786e2d31222c2273746570223a312c22697373756572223a2275726e3a6f72673a61222c22726563697069656e7473223a5b2275726e3a6f72673a62225d2c22646967657374223a2265643730303262343339653961633834356632323335376438323262616331343434373330666264623630313664336563393433323239376239656339663733222c226973737565645f6174223a22323030342d30362d32385431323a30303a30305a222c226e6f6e6365223a226e31222c227369676e6174757265223a7b22616c67223a312c226b6964223a226b31222c22736967223a2241514944227d7d010f7b22736e617073686f74223a7b7d7d00"},
	{"v1 bare one-way, nil payload", &Message{
		Protocol: "ping", Run: "r", Step: 3, Kind: "receipt", Sender: "urn:org:b",
	}, "ec010470696e670172000607726563656970740975726e3a6f72673a6200000000"},
	{"v1 empty payload, negative step, traced", &Message{
		Protocol: "ping", Run: "r", Step: -2, Kind: "k", Sender: "s", Payload: []byte{},
		Trace: &obs.TraceRef{TraceID: "r", SpanID: "7"},
	}, "ec010470696e6701720003016b0173000001000101052272403722"},
	{"v1 binary payload starting with the magic byte", &Message{
		Protocol: "nonrep/sub", Run: "r", Step: 1, Kind: "sub-push", Sender: "s", Payload: []byte{msgMagic, 0x00, 0xFF},
	}, "ec010a6e6f6e7265702f73756201720002087375622d70757368017300000103ec00ff00"},
	{"v2 chunk with attachment", &Message{
		Protocol: "nonrep/direct", Run: "run-1", Step: 1, Kind: "chunk", Sender: "urn:org:a",
		Payload: []byte(`{"stream":"run-1/doc","seq":0}`), Attachment: []byte("raw \x00\xff bytes"),
	}, "ec020d6e6f6e7265702f6469726563740572756e2d310002056368756e6b0975726e3a6f72673a610000011e7b2273747265616d223a2272756e2d312f646f63222c22736571223a307d00010c7261772000ff206279746573"},
	{"v2 attachment, nil payload, traced", &Message{
		Protocol: "p", Run: "r", Step: 2, Kind: "chunk-data", Sender: "s",
		Trace: &obs.TraceRef{TraceID: "r", SpanID: "9"}, Attachment: []byte{msgMagic},
	}, "ec020170017200040a6368756e6b2d64617461017300000001010522724039220101ec"},
}

// TestBinaryMessageGoldenVectors pins the binary message codec byte for
// byte, and to the canonical JSON projection: encode→decode→canonical
// JSON must equal the original message's canonical JSON, through both
// encodings.
func TestBinaryMessageGoldenVectors(t *testing.T) {
	t.Parallel()
	for _, g := range goldenMessages {
		bin, err := marshalMessage(g.msg)
		if err != nil {
			t.Fatalf("%s: marshal: %v", g.name, err)
		}
		if got := hex.EncodeToString(bin); got != g.hex {
			t.Errorf("%s: wire bytes drifted:\n want %s\n  got %s", g.name, g.hex, got)
		}
		want, err := canon.Marshal(g.msg)
		if err != nil {
			t.Fatal(err)
		}
		var dec Message
		if err := unmarshalMessage(bin, &dec); err != nil {
			t.Fatalf("%s: unmarshal: %v", g.name, err)
		}
		got, err := canon.Marshal(&dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s: canonical projection drifted:\n want %s\n  got %s", g.name, want, got)
		}
		// The JSON form, which no build in the wire support window
		// writes, is refused.
		if err := unmarshalMessage(want, new(Message)); err == nil {
			t.Errorf("%s: JSON message decoded", g.name)
		}
	}
}

// TestBinaryMessageAttachmentBorrowed pins the zero-copy contract: a
// decoded attachment (and payload) is a sub-slice of the buffer it was
// decoded from, capped so an append cannot run into what follows.
func TestBinaryMessageAttachmentBorrowed(t *testing.T) {
	t.Parallel()
	m := &Message{Protocol: "p", Run: "r", Kind: "chunk", Payload: []byte(`{"seq":1}`), Attachment: bytes.Repeat([]byte{0xAB}, 1<<16)}
	bin, err := marshalMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	var dec Message
	if err := unmarshalMessage(bin, &dec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Attachment, m.Attachment) {
		t.Fatal("attachment did not survive the round trip")
	}
	if &dec.Attachment[0] != &bin[len(bin)-len(dec.Attachment)] {
		t.Fatal("decoded attachment was copied, want a borrow of the frame's tail")
	}
	if cap(dec.Attachment) != len(dec.Attachment) || cap(dec.Payload) != len(dec.Payload) {
		t.Fatal("borrowed runs must be capped at their length")
	}
	// One copy on the way out: the encoder sizes its buffer up front.
	if cap(bin) > len(bin)+128 {
		t.Fatalf("encoder over-allocated: %d bytes for a %d byte message", cap(bin), len(bin))
	}
}

// FuzzMessageDecode feeds arbitrary bytes to the message decoder.
// Malformed input must error — never panic, never read past the buffer —
// anything not led by the message magic (the JSON form of each golden
// message among the seeds included) must be refused, and whatever
// decodes must re-encode and decode back to the same canonical
// projection, with its byte runs inside the input.
func FuzzMessageDecode(f *testing.F) {
	for _, g := range goldenMessages {
		bin, err := marshalMessage(g.msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
		f.Add(canon.MustMarshal(g.msg))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := unmarshalMessage(data, &m); err != nil {
			return
		}
		if data[0] != msgMagic {
			t.Fatalf("input led by %#x decoded as a message", data[0])
		}
		within := func(run []byte) bool {
			return len(run) == 0 || bytes.Contains(data, run) && cap(run) == len(run)
		}
		if !within(m.Payload) || !within(m.Attachment) {
			t.Fatal("decoded byte run is not a capped sub-slice of the input")
		}
		bin, err := marshalMessage(&m)
		if err != nil {
			t.Fatalf("re-marshal of decoded message failed: %v", err)
		}
		var back Message
		if err := unmarshalMessage(bin, &back); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		a, aerr := canon.Marshal(&m)
		b, berr := canon.Marshal(&back)
		if aerr == nil && berr == nil && !bytes.Equal(a, b) {
			t.Fatalf("round-trip drift:\n %s\n %s", a, b)
		}
	})
}
