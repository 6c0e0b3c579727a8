package invoke_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
	"nonrep/internal/testpki"
)

// hashingStreamExec consumes every streamed parameter, returns its digest
// and size as value results, and streams the payload back reversed-cased
// (well, copied) through a result stream named after the input.
func hashingStreamExec() invoke.StreamExecutor {
	return invoke.StreamExecutorFunc(func(_ context.Context, req *evidence.RequestSnapshot, streams map[string]io.Reader, results *invoke.ResultStreams) ([]evidence.Param, error) {
		var out []evidence.Param
		for _, p := range req.Params {
			if p.Kind != evidence.ParamStream {
				continue
			}
			r := streams[p.Name]
			if r == nil {
				return nil, fmt.Errorf("no stream %q", p.Name)
			}
			w := results.Writer("echo-" + p.Name)
			n, err := io.Copy(w, io.TeeReader(r, discardDigest{}))
			if err != nil {
				return nil, err
			}
			sizeParam, err := evidence.ValueParam("size-"+p.Name, n)
			if err != nil {
				return nil, err
			}
			out = append(out, sizeParam)
		}
		return out, nil
	})
}

type discardDigest struct{}

func (discardDigest) Write(p []byte) (int, error) { return len(p), nil }

// streamPayload is deterministic pseudo-random data spanning several
// chunks, with a partial tail chunk.
func streamPayload(n int, seed int64) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

func TestStreamedInvocationEndToEnd(t *testing.T) {
	d := testpki.MustDomain(client, server)
	defer d.Close()
	srv := invoke.NewServer(d.Node(server).Coordinator(), hashingStreamExec())
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator())

	payload := streamPayload(3*invoke.DefaultStreamChunk+12345, 1)
	req := invoke.Request{
		Service:   id.Service("urn:org:manufacturer/docs"),
		Operation: "Archive",
		Streams:   []invoke.Stream{invoke.StreamParam("doc", bytes.NewReader(payload))},
		Txn:       id.NewTxn(),
	}
	res, err := cli.Invoke(context.Background(), server, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status %v: %s", res.Status, res.Err)
	}
	// The standard four tokens, with the NRO binding the chunk chain.
	if len(res.Evidence) != 4 {
		t.Fatalf("evidence tokens: %d, want 4", len(res.Evidence))
	}
	// The streamed result reads back the full payload, verified chunk by
	// chunk against the signed chain.
	rs := res.Stream("echo-doc")
	if rs == nil {
		t.Fatalf("no result stream; have %v", res.StreamNames())
	}
	if rs.Size() != int64(len(payload)) {
		t.Fatalf("result stream size %d, want %d", rs.Size(), len(payload))
	}
	back, err := io.ReadAll(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatalf("result stream mismatch: %d bytes", len(back))
	}
	if err := srv.WaitReceipt(context.Background(), res.Run); err != nil {
		t.Fatal(err)
	}
}

// TestStreamedParamBoundByNRO: the request snapshot's stream parameter —
// and so the NRO digest — commits to the chunk chain root.
func TestStreamedParamBoundByNRO(t *testing.T) {
	d := testpki.MustDomain(client, server)
	defer d.Close()
	var seenSnap *evidence.RequestSnapshot
	exec := invoke.StreamExecutorFunc(func(_ context.Context, req *evidence.RequestSnapshot, streams map[string]io.Reader, _ *invoke.ResultStreams) ([]evidence.Param, error) {
		seenSnap = req
		if _, err := io.Copy(io.Discard, streams["doc"]); err != nil {
			return nil, err
		}
		return nil, nil
	})
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator())

	payload := streamPayload(invoke.DefaultStreamChunk+1, 2)
	res, err := cli.Invoke(context.Background(), server, invoke.Request{
		Service:   id.Service("urn:org:manufacturer/docs"),
		Operation: "Check",
		Streams:   []invoke.Stream{invoke.StreamParam("doc", bytes.NewReader(payload))},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ref *evidence.StreamRef
	for _, p := range seenSnap.Params {
		if p.Kind == evidence.ParamStream && p.Name == "doc" {
			ref = p.Stream
		}
	}
	if ref == nil {
		t.Fatal("snapshot carries no stream param")
	}
	if ref.Size != int64(len(payload)) || len(ref.Chunks) != 2 {
		t.Fatalf("ref shape: %d bytes, %d chunks", ref.Size, len(ref.Chunks))
	}
	// The NRO digest is the snapshot digest, which covers the ref.
	snapDigest, err := seenSnap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	var nro *evidence.Token
	for _, tok := range res.Evidence {
		if tok.Kind == evidence.KindNRO {
			nro = tok
		}
	}
	if nro == nil || nro.Digest != snapDigest {
		t.Fatal("NRO does not bind the snapshot carrying the chunk chain")
	}
}

// tamperChain is a coordinator handler wrapper that flips one byte of one
// streamed chunk in flight.
func TestTamperedChunkAttributedByIndex(t *testing.T) {
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec := invoke.StreamExecutorFunc(func(_ context.Context, _ *evidence.RequestSnapshot, streams map[string]io.Reader, _ *invoke.ResultStreams) ([]evidence.Param, error) {
		for _, r := range streams {
			if _, err := io.Copy(io.Discard, r); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()

	// Drive the exchange manually so chunk 1 of 3 is tampered after
	// digesting: the client signs the true chain, the wire carries a
	// corrupted chunk.
	co := d.Node(client).Coordinator()
	run := id.NewRun()
	payload := streamPayload(3*invoke.DefaultStreamChunk, 3)
	sid := string(run) + "/doc"
	dig := evidence.NewStreamDigester(invoke.DefaultStreamChunk)
	for seq := 0; seq < 3; seq++ {
		chunk := payload[seq*invoke.DefaultStreamChunk : (seq+1)*invoke.DefaultStreamChunk]
		if err := dig.Add(chunk); err != nil {
			t.Fatal(err)
		}
		wire := chunk
		if seq == 1 {
			wire = append([]byte(nil), chunk...)
			wire[0] ^= 0xff
		}
		msg := &protocol.Message{Protocol: invoke.ProtocolDirect, Run: run, Step: 1, Kind: "chunk", Attachment: wire}
		if err := msg.SetBody(map[string]any{"stream": sid, "seq": seq}); err != nil {
			t.Fatal(err)
		}
		if _, err := co.DeliverRequest(context.Background(), server, msg); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := dig.Ref(sid)
	if err != nil {
		t.Fatal(err)
	}
	svc := co.Services()
	snap := evidence.RequestSnapshot{
		Run: run, Client: svc.Party, Server: server,
		Service: "urn:org:manufacturer/docs", Operation: "Archive",
		Params:   []evidence.Param{{Kind: evidence.ParamStream, Name: "doc", Stream: &ref}},
		Protocol: invoke.ProtocolDirect,
	}
	reqDigest, err := snap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	nro, err := svc.Issuer.Issue(evidence.KindNRO, run, 1, reqDigest, evidence.WithRecipients(server))
	if err != nil {
		t.Fatal(err)
	}
	msg := invoke.NewRequestMessage(invoke.ProtocolDirect, run, snap, nro)
	_, err = co.DeliverRequest(context.Background(), server, msg)
	if err == nil {
		t.Fatal("request over a tampered chunk succeeded")
	}
	if !strings.Contains(err.Error(), "chunk 1") {
		t.Fatalf("tampered chunk not attributed by index: %v", err)
	}
}

// TestMissingChunkRefused: a stream whose signed chain promises more
// chunks than were delivered is refused, attributably.
func TestMissingChunkRefused(t *testing.T) {
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec := invoke.StreamExecutorFunc(func(_ context.Context, _ *evidence.RequestSnapshot, _ map[string]io.Reader, _ *invoke.ResultStreams) ([]evidence.Param, error) {
		return nil, nil
	})
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()

	co := d.Node(client).Coordinator()
	run := id.NewRun()
	sid := string(run) + "/doc"
	// Sign a 2-chunk chain but deliver only chunk 0.
	chunk := streamPayload(invoke.DefaultStreamChunk, 4)
	dig := evidence.NewStreamDigester(invoke.DefaultStreamChunk)
	if err := dig.Add(chunk); err != nil {
		t.Fatal(err)
	}
	if err := dig.Add(chunk); err != nil {
		t.Fatal(err)
	}
	msg := &protocol.Message{Protocol: invoke.ProtocolDirect, Run: run, Step: 1, Kind: "chunk", Attachment: chunk}
	if err := msg.SetBody(map[string]any{"stream": sid, "seq": 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := co.DeliverRequest(context.Background(), server, msg); err != nil {
		t.Fatal(err)
	}
	ref, err := dig.Ref(sid)
	if err != nil {
		t.Fatal(err)
	}
	svc := co.Services()
	snap := evidence.RequestSnapshot{
		Run: run, Client: svc.Party, Server: server,
		Service: "urn:org:manufacturer/docs", Operation: "Archive",
		Params:   []evidence.Param{{Kind: evidence.ParamStream, Name: "doc", Stream: &ref}},
		Protocol: invoke.ProtocolDirect,
	}
	reqDigest, err := snap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	nro, err := svc.Issuer.Issue(evidence.KindNRO, run, 1, reqDigest, evidence.WithRecipients(server))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.DeliverRequest(context.Background(), server, invoke.NewRequestMessage(invoke.ProtocolDirect, run, snap, nro)); err == nil {
		t.Fatal("request with a missing chunk succeeded")
	} else if !strings.Contains(err.Error(), "1 of the 2 chunks") {
		t.Fatalf("missing chunk not attributed: %v", err)
	}
}

// TestPlainExecutorRefusesStreams: streams against a non-streaming
// executor become received-but-not-executed evidence, not a crash.
func TestPlainExecutorRefusesStreams(t *testing.T) {
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator())
	res, err := cli.Invoke(context.Background(), server, invoke.Request{
		Service:   id.Service("urn:org:manufacturer/docs"),
		Operation: "Archive",
		Streams:   []invoke.Stream{invoke.StreamParam("doc", bytes.NewReader([]byte("payload")))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusNotExecuted {
		t.Fatalf("status %v, want not-executed", res.Status)
	}
}

// TestStreamedResultTamperDetected: a corrupted result chunk is caught by
// the reader against the chain the response evidence signed.
func TestStreamedResultTamperDetected(t *testing.T) {
	d := testpki.MustDomain(client, server)
	defer d.Close()
	payload := streamPayload(2*invoke.DefaultStreamChunk, 5)
	exec := invoke.StreamExecutorFunc(func(_ context.Context, _ *evidence.RequestSnapshot, _ map[string]io.Reader, results *invoke.ResultStreams) ([]evidence.Param, error) {
		_, err := results.Writer("out").Write(payload)
		return nil, err
	})
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator())
	res, err := cli.Invoke(context.Background(), server, invoke.Request{
		Service: id.Service("urn:org:manufacturer/docs"), Operation: "Fetch",
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Stream("out")
	if rs == nil {
		t.Fatal("no result stream")
	}
	// Corrupt the server's stored chunk 1 after the evidence was issued.
	srv.TamperResultChunk(res.Run, "out", 1)
	_, err = io.ReadAll(rs)
	if err == nil {
		t.Fatal("tampered result stream read through")
	}
	if !errors.Is(err, invoke.ErrEvidenceInvalid) || !strings.Contains(err.Error(), "chunk 1") {
		t.Fatalf("tampered result chunk not attributed: %v", err)
	}
}
