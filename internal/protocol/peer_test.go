package protocol

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"nonrep/internal/canon"
	"nonrep/internal/clock"
	"nonrep/internal/credential"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

// legacyPeer holds messages and claim digests captured from the build
// before the peer-service skeleton, whose services carried bulk bytes in
// their bodies: a seg-ship with its package (data included) in the JSON
// body and urn:org:alice's token, a sub-records push with the binary
// 0xF5 body and a sub-seal push with its package in the JSON body — the
// pushes of one subscription from genesis — plus the certificates that
// verify the token and the hex of the ship, geo-append and sub-open claim
// digests for fixed inputs.
var legacyPeer = filepath.Join("testdata", "legacy-peer")

func readLegacy(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(legacyPeer, name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func decodeLegacy(tb testing.TB, name string) *Message {
	tb.Helper()
	var msg Message
	if err := unmarshalMessage(readLegacy(tb, name), &msg); err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return &msg
}

// peerFixture is a replica host (urn:org:bob) serving the four peer
// handlers over an in-process network, verifying tokens against the
// legacy-peer certificates at the time they were issued.
type peerFixture struct {
	ver   *evidence.Verifier
	rs    *vault.ReplicaSet
	audit *AuditService
	geo   *GeoService
	sub   *SubService
	feed  *SubClient
}

func newPeerFixture(tb testing.TB) *peerFixture {
	tb.Helper()
	var ca credential.Certificate
	var certs []*credential.Certificate
	if err := json.Unmarshal(readLegacy(tb, "ca.cert.json"), &ca); err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal(readLegacy(tb, "certs.json"), &certs); err != nil {
		tb.Fatal(err)
	}
	clk := clock.NewManual(ca.NotBefore)
	creds := credential.NewStore(clk)
	if err := creds.AddRoot(&ca); err != nil {
		tb.Fatal(err)
	}
	for _, c := range certs {
		if err := creds.Add(c); err != nil {
			tb.Fatal(err)
		}
	}
	network := transport.NewInprocNetwork()
	tb.Cleanup(func() { _ = network.Close() })
	fx := &peerFixture{ver: &evidence.Verifier{Keys: creds}}
	co, err := New(network, "urn:org:bob", &Services{
		Party: "urn:org:bob", Verifier: fx.ver, Log: tempLog(tb, clk),
		States: store.NewMemStateStore(), Clock: clk, Directory: NewDirectory(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = co.Close() })
	if fx.rs, err = vault.OpenReplicaSet(tb.TempDir()); err != nil {
		tb.Fatal(err)
	}
	v, err := vault.Open(tb.TempDir(), clk)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = v.Close() })
	fx.audit = NewAuditService(co, nil, fx.rs)
	fx.geo = NewGeoService(co, fx.rs)
	fx.sub = NewSubService(co, v)
	fx.feed = NewSubClient(co)
	return fx
}

// watch opens a local feed from genesis under subID, as a sub-open of
// this subscriber would have.
func (fx *peerFixture) watch(subID string) *Feed {
	f := newFeed(fx.feed, WatchConfig{buffer: 16})
	u := newUpstream(subID, "", f)
	fx.feed.mu.Lock()
	u.open = true
	fx.feed.ups[subID] = u
	fx.feed.mu.Unlock()
	return f
}

// positions maps every replicated source to how far its replica reaches:
// sealed segments and held records.
func (fx *peerFixture) positions(tb testing.TB) map[string][2]uint64 {
	sources, err := fx.rs.Sources()
	if err != nil {
		tb.Fatal(err)
	}
	out := make(map[string][2]uint64, len(sources))
	for _, s := range sources {
		sealed, _ := fx.rs.LastSealed(s)
		acked, _ := fx.rs.AckedSeq(s)
		out[s] = [2]uint64{sealed, acked}
	}
	return out
}

// TestLegacyPeerFixtures: bodies written by peers that predate the
// attachment path still land — the seg-ship through its JSON package,
// the feed pushes through the 0xF5 reader and the JSON package — and
// every claim digest is the one those peers signed. Sub-open digests and
// notes are journaled evidence, so they must never move.
func TestLegacyPeerFixtures(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	fx := newPeerFixture(t)

	ship := decodeLegacy(t, "seg-ship.bin")
	if len(ship.Attachment) != 0 {
		t.Fatal("legacy seg-ship fixture carries an attachment")
	}
	if _, err := fx.audit.ProcessRequest(ctx, ship); err != nil {
		t.Fatalf("legacy seg-ship refused: %v", err)
	}
	if last, err := fx.rs.LastSealed("urn:org:alice"); err != nil || last != 1 {
		t.Fatalf("replica after legacy seg-ship at segment %d, %v; want 1", last, err)
	}

	records := decodeLegacy(t, "sub-records.bin")
	if len(records.Payload) == 0 || records.Payload[0] != subPushMagic {
		t.Fatal("legacy sub-records fixture lacks its binary body")
	}
	var push subRecordsPush
	if err := unmarshalRecordsPush(records, &push); err != nil {
		t.Fatal(err)
	}
	f := fx.watch(push.SubID)
	if reply, err := fx.feed.ProcessRequest(ctx, records); err != nil || reply.Kind != KindSubAck {
		t.Fatalf("legacy sub-records: reply %v, err %v", reply, err)
	}
	if ev := <-f.Events(); len(ev.Records) != push.Count || ev.Records[0].Seq != 1 {
		t.Fatalf("legacy sub-records delivered %d records; want %d from seq 1", len(ev.Records), push.Count)
	}

	seal := decodeLegacy(t, "sub-seal.bin")
	if len(seal.Attachment) != 0 {
		t.Fatal("legacy sub-seal fixture carries an attachment")
	}
	if _, err := fx.feed.ProcessRequest(ctx, seal); err != nil {
		t.Fatalf("legacy sub-seal refused: %v", err)
	}
	// The package the legacy push carried in its body is not read: a seal
	// event is a notification only.
	var sealPush subSealPush
	if err := seal.Body(&sealPush); err != nil {
		t.Fatal(err)
	}
	if ev := <-f.Events(); ev.Seal == nil || ev.Seal.Digest != sealPush.Entry.Digest || len(ev.Records) != 0 {
		t.Fatalf("legacy sub-seal delivered %+v; want the seal of segment %d alone", ev, sealPush.Entry.Segment)
	}

	var want map[string]string
	if err := json.Unmarshal(readLegacy(t, "digests.json"), &want); err != nil {
		t.Fatal(err)
	}
	open := &subOpenReq{
		Subscriber: "urn:org:bob", SubID: "sub-run-fixed", Addr: "urn:org:bob", AfterSeq: 7,
		AfterHash: sig.Sum([]byte("head")), Seals: true, Segments: true,
	}
	for name, claim := range map[string]any{
		"seg-ship":   &shipClaim{Source: "urn:org:alice", Segment: 3, Seal: sig.Sum([]byte("seal"))},
		"geo-append": &geoAppendClaim{Source: "urn:org:alice", First: 5, Count: 3, Frames: sig.Sum([]byte("frames"))},
		"sub-open":   open,
	} {
		d, err := claimDigest(claim)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(d[:]); got != want[name] {
			t.Errorf("%s claim digest moved: %s, want %s", name, got, want[name])
		}
	}
	if note := string(canon.MustMarshal(open)); note != want["sub-open-note"] {
		t.Errorf("sub-open note moved:\n got %s\nwant %s", note, want["sub-open-note"])
	}
}

// FuzzPeerRequest feeds arbitrary bytes through the message decoder into
// every request handler of the evidence plane's peer services — audit,
// geo, subscription and feed — on one replica host. Nothing may panic,
// and no replica may advance unless the request carried a token that
// verifies and was issued by the source whose replica moved.
func FuzzPeerRequest(f *testing.F) {
	ship := decodeLegacy(f, "seg-ship.bin")
	records := decodeLegacy(f, "sub-records.bin")
	var push subRecordsPush
	if err := unmarshalRecordsPush(records, &push); err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"seg-ship.bin", "sub-records.bin", "sub-seal.bin"} {
		f.Add(readLegacy(f, name))
	}
	seed := func(m *Message, body any) []byte {
		if body != nil {
			if err := m.SetBody(body); err != nil {
				f.Fatal(err)
			}
		}
		bin, err := marshalMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
		return bin
	}
	// The current seg-ship: the legacy shipment with its data moved onto
	// the attachment, under the same token.
	var req segShipReq
	if err := ship.Body(&req); err != nil {
		f.Fatal(err)
	}
	current := *ship
	current.Attachment, req.Package.Data = req.Package.Data, nil
	seed(&current, &req)
	// The intruder's shipment: the same segment, unsigned, seeding a
	// source that has shipped nothing yet.
	unsigned := current
	unsigned.Tokens, req.Source = nil, "urn:org:carol"
	seed(&unsigned, &req)
	// Hostile attachments on the feed and geo pushes: count and first
	// that do not match the frames, no frames at all, and an attachment
	// whose length runs past the end of the message.
	frames := push.Frames
	pushMsg := func(kind string, attachment []byte) *Message {
		return &Message{Protocol: SubFeedProtocol, Run: records.Run, Step: 1, Kind: kind, Attachment: attachment}
	}
	seed(pushMsg(KindSubRecords, frames), &subRecordsPush{SubID: push.SubID, First: push.First, Count: push.Count + 1})
	seed(pushMsg(KindSubRecords, frames), &subRecordsPush{SubID: push.SubID, First: push.First + 1, Count: push.Count})
	seed(pushMsg(KindSubRecords, nil), &subRecordsPush{SubID: push.SubID, First: 1, Count: 0})
	past := seed(pushMsg(KindSubRecords, frames), &subRecordsPush{SubID: push.SubID, First: push.First, Count: push.Count})
	f.Add(past[:len(past)-7])
	geo := &Message{Protocol: GeoProtocol, Run: id.NewRun(), Step: 1, Kind: KindGeoAppend, Attachment: frames, Tokens: ship.Tokens}
	seed(geo, &geoAppendReq{Source: "urn:org:alice", First: push.First, Count: push.Count - 1})

	fx := newPeerFixture(f)
	handlers := []Handler{fx.audit, fx.geo, fx.sub, fx.feed}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		var msg Message
		if err := unmarshalMessage(data, &msg); err != nil {
			return
		}
		fx.watch(push.SubID)
		before := fx.positions(t)
		for _, h := range handlers {
			_, _ = h.ProcessRequest(ctx, &msg)
		}
		for source, pos := range fx.positions(t) {
			if pos == before[source] {
				continue
			}
			signed := false
			for _, tok := range msg.Tokens {
				if tok != nil && tok.Issuer == id.Party(source) && fx.ver.Verify(tok) == nil {
					signed = true
				}
			}
			if !signed {
				t.Fatalf("replica of %s moved %v → %v on a %s without a valid %s token", source, before[source], pos, msg.Kind, source)
			}
		}
	})
}
