package invoke

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/testpki"
)

const (
	attClient = id.Party("urn:org:dealer")
	attServer = id.Party("urn:org:manufacturer")
)

// captureStreamExec keeps what the executor read from the "doc" stream
// and streams it back as "echo".
func captureStreamExec(got *[]byte) StreamExecutor {
	return StreamExecutorFunc(func(_ context.Context, _ *evidence.RequestSnapshot, streams map[string]io.Reader, results *ResultStreams) ([]evidence.Param, error) {
		data, err := io.ReadAll(streams["doc"])
		if err != nil {
			return nil, err
		}
		*got = data
		_, err = results.Writer("echo").Write(data)
		return nil, err
	})
}

// submitStream signs and submits the request whose "doc" parameter is
// the stream the caller already delivered chunk by chunk.
func submitStream(t *testing.T, co *protocol.Coordinator, run id.Run, ref evidence.StreamRef) (*protocol.Message, error) {
	t.Helper()
	svc := co.Services()
	snap := evidence.RequestSnapshot{
		Run: run, Client: svc.Party, Server: attServer,
		Service: "urn:org:manufacturer/docs", Operation: "Archive",
		Params:   []evidence.Param{{Kind: evidence.ParamStream, Name: "doc", Stream: &ref}},
		Protocol: ProtocolDirect,
	}
	reqDigest, err := snap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	nro, err := svc.Issuer.Issue(evidence.KindNRO, run, stepRequest, reqDigest, evidence.WithRecipients(attServer))
	if err != nil {
		t.Fatal(err)
	}
	return co.DeliverRequest(context.Background(), attServer, NewRequestMessage(ProtocolDirect, run, snap, nro))
}

// TestLegacyChunkBodiesAccepted: a peer that predates attachments puts
// chunk bytes in the JSON body's base64 `data` field, both ways. The
// server still buffers and verifies such chunks, and the client still
// reads such chunk-data replies.
func TestLegacyChunkBodiesAccepted(t *testing.T) {
	d := testpki.MustDomain(attClient, attServer)
	defer d.Close()
	var got []byte
	srv := NewServer(d.Node(attServer).Coordinator(), captureStreamExec(&got))
	defer srv.Close()
	co := d.Node(attClient).Coordinator()
	ctx := context.Background()

	payload := make([]byte, 2*DefaultStreamChunk+999)
	rand.New(rand.NewSource(15)).Read(payload)
	run := id.NewRun()
	sid := string(run) + "/doc"
	dig := evidence.NewStreamDigester(DefaultStreamChunk)
	for seq, rest := 0, payload; len(rest) > 0; seq++ {
		chunk := rest[:min(len(rest), DefaultStreamChunk)]
		rest = rest[len(chunk):]
		if err := dig.Add(chunk); err != nil {
			t.Fatal(err)
		}
		msg := &protocol.Message{Protocol: ProtocolDirect, Run: run, Step: stepRequest, Kind: kindChunk}
		if err := msg.SetBody(chunkBody{Stream: sid, Seq: seq, Data: chunk}); err != nil {
			t.Fatal(err)
		}
		if _, err := co.DeliverRequest(ctx, attServer, msg); err != nil {
			t.Fatalf("legacy chunk %d refused: %v", seq, err)
		}
	}
	ref, err := dig.Ref(sid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitStream(t, co, run, ref); err != nil {
		t.Fatalf("request over legacy chunks: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("executor read %d bytes, want the %d byte payload", len(got), len(payload))
	}

	// The client half: a legacy server answers chunk fetches in the body.
	legacy := &legacyChunkServer{chunks: [][]byte{payload[:DefaultStreamChunk], payload[DefaultStreamChunk : 2*DefaultStreamChunk], payload[2*DefaultStreamChunk:]}}
	d.Node(attServer).Coordinator().Register(legacy)
	back := &ResultStream{ctx: ctx, co: co, server: attServer, proto: legacy.Protocol(), run: run, name: "echo", ref: ref}
	echoed, err := io.ReadAll(back)
	if err != nil {
		t.Fatalf("read of legacy chunk-data replies: %v", err)
	}
	if !bytes.Equal(echoed, payload) {
		t.Fatalf("legacy result stream returned %d bytes, want the %d byte payload", len(echoed), len(payload))
	}
}

// legacyChunkServer serves chunk fetches the way a peer without
// attachments does: the chunk inside the JSON body.
type legacyChunkServer struct{ chunks [][]byte }

func (s *legacyChunkServer) Protocol() string { return "test/legacy-stream" }

func (s *legacyChunkServer) ProcessRequest(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
	var fb chunkFetchBody
	if err := msg.Body(&fb); err != nil {
		return nil, err
	}
	reply := &protocol.Message{Protocol: msg.Protocol, Run: msg.Run, Step: msg.Step, Kind: kindChunkData}
	return reply, reply.SetBody(chunkDataBody{Data: s.chunks[fb.Seq]})
}

// TestChunkSenderBufferNotAliased: on the in-process network an envelope
// travels by reference, so a sender that reuses one read buffer for every
// chunk (as Client.sendStream does) must not end up sharing it with what
// the server buffered: the message encoder's copy is the only one between
// the two, and this test is what keeps it there.
func TestChunkSenderBufferNotAliased(t *testing.T) {
	d := testpki.MustDomain(attClient, attServer)
	defer d.Close()
	var got []byte
	srv := NewServer(d.Node(attServer).Coordinator(), captureStreamExec(&got))
	defer srv.Close()
	co := d.Node(attClient).Coordinator()
	ctx := context.Background()

	payload := make([]byte, 3*DefaultStreamChunk)
	rand.New(rand.NewSource(16)).Read(payload)
	run := id.NewRun()
	sid := string(run) + "/doc"
	dig := evidence.NewStreamDigester(DefaultStreamChunk)
	buf := make([]byte, DefaultStreamChunk)
	for seq := 0; seq < 3; seq++ {
		copy(buf, payload[seq*DefaultStreamChunk:])
		if err := dig.Add(buf); err != nil {
			t.Fatal(err)
		}
		msg := &protocol.Message{Protocol: ProtocolDirect, Run: run, Step: stepRequest, Kind: kindChunk, Attachment: buf}
		if err := msg.SetBody(chunkBody{Stream: sid, Seq: seq}); err != nil {
			t.Fatal(err)
		}
		if _, err := co.DeliverRequest(ctx, attServer, msg); err != nil {
			t.Fatal(err)
		}
		// The chunk is acknowledged: the buffer is the sender's again.
		for i := range buf {
			buf[i] = 0xEE
		}
	}
	ref, err := dig.Ref(sid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitStream(t, co, run, ref); err != nil {
		t.Fatalf("request after the sender reused its buffer: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("the server's buffered chunks alias the sender's read buffer")
	}

	// The same holds on the way back: a served result chunk is not the
	// server's stored chunk, so a client that scribbles on what it read
	// cannot change what a retransmitted fetch is answered with.
	fetch := func() []byte {
		msg := &protocol.Message{Protocol: ProtocolDirect, Run: run, Step: stepResponse, Kind: kindChunkFetch}
		if err := msg.SetBody(chunkFetchBody{Run: run, Name: "echo", Seq: 0}); err != nil {
			t.Fatal(err)
		}
		reply, err := co.DeliverRequest(ctx, attServer, msg)
		if err != nil {
			t.Fatal(err)
		}
		return reply.Attachment
	}
	first := fetch()
	if !bytes.Equal(first, payload[:DefaultStreamChunk]) {
		t.Fatal("fetched chunk differs from the payload")
	}
	for i := range first {
		first[i] = 0xEE
	}
	if !bytes.Equal(fetch(), payload[:DefaultStreamChunk]) {
		t.Fatal("the server's stored result chunk aliases what it served")
	}
}
