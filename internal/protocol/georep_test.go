package protocol_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
	"nonrep/internal/sharing"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
	"nonrep/internal/ttp"
	"nonrep/internal/vault"
)

const carol = id.Party("urn:org:carol")

// geoFixture is a source organisation (alice) and a replica-hosting
// peer (bob) wired for geo pushes and authenticated seg-ship, plus an
// enrolled third party (carol) for cross-org confusion tests.
type geoFixture struct {
	realm    *testpki.Realm
	dir      *protocol.Directory
	coA, coB *protocol.Coordinator
	coC      *protocol.Coordinator
	vA       *vault.Vault
	rsB      *vault.ReplicaSet
	geo      *protocol.GeoClient   // alice's
	audit    *protocol.AuditClient // alice's
}

func newGeoFixture(t *testing.T, network transport.Network) *geoFixture {
	t.Helper()
	realm := testpki.MustRealm(alice, bob, carol)
	dir := protocol.NewDirectory()
	newCo := func(p id.Party, log store.Log) *protocol.Coordinator {
		svc := &protocol.Services{
			Party:     p,
			Issuer:    realm.Party(p).Issuer,
			Verifier:  realm.Verifier(),
			Log:       log,
			States:    store.NewMemStateStore(),
			Clock:     realm.Clock,
			Directory: dir,
		}
		co, err := protocol.New(network, string(p), svc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = co.Close() })
		return co
	}
	vA, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = vA.Close() })
	rsB, err := vault.OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := &geoFixture{realm: realm, dir: dir, vA: vA, rsB: rsB}
	f.coA = newCo(alice, vA)
	f.coB = newCo(bob, testpki.Log(t, realm.Clock))
	f.coC = newCo(carol, testpki.Log(t, realm.Clock))
	protocol.NewGeoService(f.coB, rsB)
	protocol.NewAuditService(f.coB, nil, rsB, protocol.WithShipAuth())
	f.geo = protocol.NewGeoClient(f.coA)
	f.audit = protocol.NewAuditClient(f.coA)
	return f
}

// fill appends n records of one run to alice's vault.
func (f *geoFixture) fill(t *testing.T, n int) []*store.Record {
	t.Helper()
	run := id.NewRun()
	out := make([]*store.Record, 0, n)
	for i := 1; i <= n; i++ {
		tok, err := f.realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, i, sig.Sum([]byte{byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := f.vA.Append(store.Generated, tok, "sent")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// TestGeoAppendAndStatus pushes tail batches over the wire and reads
// back acknowledgement watermarks, including idempotent redelivery.
func TestGeoAppendAndStatus(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newGeoFixture(t, network)
	recs := f.fill(t, 3)

	if got, err := f.geo.AckedSeq(ctx, bob, string(alice)); err != nil || got != 0 {
		t.Fatalf("AckedSeq before push = %d, %v; want 0", got, err)
	}
	acked, err := f.geo.Append(ctx, bob, string(alice), recs[:2])
	if err != nil || acked != 2 {
		t.Fatalf("Append = %d, %v; want 2", acked, err)
	}
	// Redelivery overlapping held records is idempotent.
	acked, err = f.geo.Append(ctx, bob, string(alice), recs)
	if err != nil || acked != 3 {
		t.Fatalf("Append redelivery = %d, %v; want 3", acked, err)
	}
	if got, err := f.geo.AckedSeq(ctx, bob, string(alice)); err != nil || got != 3 {
		t.Fatalf("AckedSeq after push = %d, %v; want 3", got, err)
	}
	// The replica tail holds the records verbatim.
	if got, err := f.rsB.AckedSeq(string(alice)); err != nil || got != 3 {
		t.Fatalf("replica AckedSeq = %d, %v; want 3", got, err)
	}
}

// TestGeoAppendAuth exercises the authentication wall on geo pushes: a
// batch with no token, or a token signed by the wrong party, is refused
// while the replica's watermark stays put.
func TestGeoAppendAuth(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newGeoFixture(t, network)
	recs := f.fill(t, 2)

	// Carol pushing alice's genuine records as her own source claim: the
	// token issuer (carol) does not match the claimed source (alice).
	geoC := protocol.NewGeoClient(f.coC)
	if _, err := geoC.Append(ctx, bob, string(alice), recs); err == nil ||
		!strings.Contains(err.Error(), "token") {
		t.Fatalf("cross-org geo append: err = %v, want token refusal", err)
	}
	// A chain gap is refused even when properly signed.
	if _, err := f.geo.Append(ctx, bob, string(alice), recs[1:]); err == nil ||
		!strings.Contains(err.Error(), "gap") {
		t.Fatalf("gapped geo append: err = %v, want gap refusal", err)
	}
	if got, err := f.rsB.AckedSeq(string(alice)); err != nil || got != 0 {
		t.Fatalf("replica advanced on refused pushes: %d, %v", got, err)
	}
	// The legitimate push still lands.
	if acked, err := f.geo.Append(ctx, bob, string(alice), recs); err != nil || acked != 2 {
		t.Fatalf("Append after refusals = %d, %v; want 2", acked, err)
	}
}

// TestSegShipHardening is the seg-ship hardening sweep against a
// WithShipAuth receiver: unsigned shipments, foreign-key tokens,
// stale-manifest replays and cross-org confusion must all bounce, and
// none may corrupt the replica.
func TestSegShipHardening(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newGeoFixture(t, network)
	f.fill(t, 9) // seals segments 1..2
	pkg1, err := f.vA.Package(1)
	if err != nil {
		t.Fatal(err)
	}
	pkg2, err := f.vA.Package(2)
	if err != nil {
		t.Fatal(err)
	}

	// An unsigned shipment is refused outright: a coordinator with no
	// issuer cannot produce the required KindSegShip token.
	anonSvc := &protocol.Services{
		Party:     "urn:org:anon",
		Verifier:  f.realm.Verifier(),
		Log:       testpki.Log(t, f.realm.Clock),
		States:    store.NewMemStateStore(),
		Clock:     f.realm.Clock,
		Directory: f.dir,
	}
	coAnon, err := protocol.New(network, "urn:org:anon", anonSvc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coAnon.Close() })
	if err := protocol.NewAuditClient(coAnon).ShipSegment(ctx, bob, string(alice), pkg1); err == nil ||
		!strings.Contains(err.Error(), "authenticated") {
		t.Fatalf("unsigned shipment: err = %v, want authenticated-only refusal", err)
	}

	// A foreign-key shipment — carol signing a claim about alice's
	// segment — is refused: the token issuer must be the claimed source.
	if err := protocol.NewAuditClient(f.coC).ShipSegment(ctx, bob, string(alice), pkg1); err == nil ||
		!strings.Contains(err.Error(), "token") {
		t.Fatalf("foreign-key shipment: err = %v, want token refusal", err)
	}

	// Cross-org confusion: alice shipping her own segment under carol's
	// source name fails verification (issuer != claimed source).
	if err := f.audit.ShipSegment(ctx, bob, string(carol), pkg1); err == nil ||
		!strings.Contains(err.Error(), "token") {
		t.Fatalf("cross-org shipment: err = %v, want token refusal", err)
	}

	// Nothing above may have installed anything.
	if last, err := f.rsB.LastSealed(string(alice)); err != nil || last != 0 {
		t.Fatalf("replica holds segment %d after refused shipments (%v)", last, err)
	}

	// Genuine shipments land.
	if err := f.audit.ShipSegment(ctx, bob, string(alice), pkg1); err != nil {
		t.Fatal(err)
	}
	if err := f.audit.ShipSegment(ctx, bob, string(alice), pkg2); err != nil {
		t.Fatal(err)
	}

	// Stale-manifest replay: re-shipping segment 1 with its genuine old
	// token is idempotent, not a rollback.
	if err := f.audit.ShipSegment(ctx, bob, string(alice), pkg1); err != nil {
		t.Fatalf("stale replay of a held segment: %v", err)
	}
	if last, err := f.rsB.LastSealed(string(alice)); err != nil || last != 2 {
		t.Fatalf("LastSealed after replay = %d, %v; want 2", last, err)
	}

	// A replayed genuine entry carrying forged data is absorbed
	// idempotently — the held bytes are what count, and they stay
	// genuine (checked by the DeepVerify below).
	forged := *pkg1
	forged.Data = append([]byte{}, pkg2.Data...)
	if err := f.audit.ShipSegment(ctx, bob, string(alice), &forged); err != nil {
		t.Fatalf("replayed entry with forged data: %v (want idempotent absorb)", err)
	}

	// A genuinely conflicting history at a held position — a different
	// vault's segment 1, signed by alice herself — is refused: the seal
	// chain pins exactly one history per source.
	altV, err := vault.Open(t.TempDir(), f.realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	defer altV.Close()
	run := id.NewRun()
	for i := 1; i <= 5; i++ {
		tok, terr := f.realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, i, sig.Sum([]byte{0xaa, byte(i)}))
		if terr != nil {
			t.Fatal(terr)
		}
		if _, aerr := altV.Append(store.Generated, tok, "alt"); aerr != nil {
			t.Fatal(aerr)
		}
	}
	altPkg, err := altV.Package(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.audit.ShipSegment(ctx, bob, string(alice), altPkg); err == nil ||
		!strings.Contains(err.Error(), "conflict") {
		t.Fatalf("conflicting alternate history: err = %v, want conflict refusal", err)
	}

	// The replica remains a verifiable vault.
	replica, err := vault.Open(f.rsB.Dir(string(alice)), f.realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := replica.DeepVerify(); err != nil {
		t.Fatalf("replica DeepVerify after hardening sweep: %v", err)
	}
}

// TestGeoTargetEndToEnd drives the engine-facing GeoTarget adapter over
// the wire: status, ship and append through one interface.
func TestGeoTargetEndToEnd(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newGeoFixture(t, network)
	recs := f.fill(t, 9) // seals 1..2, tail 9

	target := f.geo.Target(bob, f.audit)
	if last, err := target.LastSealed(ctx, string(alice)); err != nil || last != 0 {
		t.Fatalf("LastSealed = %d, %v; want 0", last, err)
	}
	for _, e := range f.vA.Manifest() {
		pkg, err := f.vA.Package(e.Segment)
		if err != nil {
			t.Fatal(err)
		}
		if err := target.Ship(ctx, string(alice), pkg); err != nil {
			t.Fatalf("Ship(%d): %v", e.Segment, err)
		}
	}
	if last, err := target.LastSealed(ctx, string(alice)); err != nil || last != 2 {
		t.Fatalf("LastSealed after ship = %d, %v; want 2", last, err)
	}
	acked, err := target.AckedSeq(ctx, string(alice))
	if err != nil || acked != 8 {
		t.Fatalf("AckedSeq after ship = %d, %v; want 8", acked, err)
	}
	if acked, err = target.Append(ctx, string(alice), recs[8:]); err != nil || acked != 9 {
		t.Fatalf("Append tail = %d, %v; want 9", acked, err)
	}
}

// TestGeoServiceRejects pins the service's refusal surface: a host
// without replica storage accepts nothing, unknown kinds bounce, and a
// client never sends an empty push. The same refusals hold for every request-only handler, all of
// which dispatch through one RequestMux.
func TestGeoServiceRejects(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newGeoFixture(t, network)

	svc := protocol.NewGeoService(f.coC, f.rsB)
	if _, err := svc.ProcessRequest(ctx, &protocol.Message{Kind: "geo-bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown geo message kind") {
		t.Fatalf("unknown kind: err = %v", err)
	}
	// Re-registering with no replica store turns the host into a refusal
	// wall (the ttpd default for organisations that host no peers).
	noRep := protocol.NewGeoService(f.coC, nil)
	if _, err := noRep.ProcessRequest(ctx, &protocol.Message{Kind: protocol.KindGeoStatus}); err == nil ||
		!strings.Contains(err.Error(), "no replicas") {
		t.Fatalf("nil-replica ProcessRequest: err = %v", err)
	}
	if _, err := f.geo.Append(ctx, bob, string(alice), nil); err == nil ||
		!strings.Contains(err.Error(), "empty geo push") {
		t.Fatalf("empty push: err = %v", err)
	}
	// A peer outside the directory cannot be pushed to or polled.
	ghost := id.Party("urn:org:ghost")
	if _, err := f.geo.AckedSeq(ctx, ghost, string(alice)); err == nil {
		t.Fatal("AckedSeq to unenrolled peer succeeded")
	}
	if _, err := f.geo.Append(ctx, ghost, string(alice), f.fill(t, 1)); err == nil {
		t.Fatal("Append to unenrolled peer succeeded")
	}

	vC, err := vault.Open(t.TempDir(), f.realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = vC.Close() })
	for _, tc := range []struct {
		label string
		h     protocol.Handler
		// storeKind is a kind refused by a handler built without a
		// replica store ("" where none applies).
		storeKind string
	}{
		{"audit", protocol.NewAuditService(f.coC, nil, nil), protocol.KindSegStatus},
		{"geo", protocol.NewGeoService(f.coC, nil), protocol.KindGeoAppend},
		{"subscription", protocol.NewSubService(f.coC, vC), ""},
		{"feed", protocol.NewSubClient(f.coC), ""},
		{"resolve", invoke.NewResolveService(f.coC), ""},
		{"epm", ttp.NewEPM(f.coC), ""},
		{"sharing", sharing.NewController(f.coC), ""},
	} {
		msg := &protocol.Message{Protocol: tc.h.Protocol(), Run: id.NewRun(), Step: 1, Kind: tc.label + "-bogus", Payload: []byte("{}")}
		if _, err := tc.h.ProcessRequest(ctx, msg); err == nil || !strings.Contains(err.Error(), "unknown "+tc.label+" message kind") {
			t.Errorf("%s: unknown kind: err = %v", tc.label, err)
		}
		if tc.storeKind == "" {
			continue
		}
		msg.Kind = tc.storeKind
		if _, err := tc.h.ProcessRequest(ctx, msg); err == nil || !strings.Contains(err.Error(), "no replicas") {
			t.Errorf("%s: %s without a replica store: err = %v", tc.label, tc.storeKind, err)
		}
	}
}

// TestGeoAppendFramesOnAttachment: a tail push carries its record frames
// on the message's attachment, not as base64 inside the JSON body. A
// push with its frames in the body's `frames` field, as sources that
// predate attachments sent it and no build in the wire support window
// does, is refused under the same claim and token: the replica does not
// move, and the current form then starts the tail from the first record.
func TestGeoAppendFramesOnAttachment(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newGeoFixture(t, network)
	recs := f.fill(t, 3)

	// What this build sends, seen by a handler standing in for a replica.
	var sent *protocol.Message
	f.coC.Register(&captureHandler{name: protocol.GeoProtocol, capture: &sent})
	if _, err := f.geo.Append(ctx, carol, string(alice), recs[:1]); err == nil {
		t.Fatal("the capturing stand-in answered a geo push")
	}
	frames, err := store.AppendFrameRun(nil, recs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if sent == nil || !bytes.Equal(sent.Attachment, frames) {
		t.Fatal("geo push did not carry its frames on the attachment")
	}
	if strings.Contains(string(sent.Payload), "frames") {
		t.Fatalf("geo push still carries frames in its body: %s", sent.Payload)
	}

	// What an older source sends: frames in the body, nothing attached.
	// The claim below is the canonical form the token has always signed.
	frames, err = store.AppendFrameRun(nil, recs[:2])
	if err != nil {
		t.Fatal(err)
	}
	claim := struct {
		Source string     `json:"source"`
		First  uint64     `json:"first"`
		Count  int        `json:"count"`
		Frames sig.Digest `json:"frames"`
	}{string(alice), recs[0].Seq, 2, sig.Sum(frames)}
	legacy := &protocol.Message{Protocol: protocol.GeoProtocol, Run: id.NewRun(), Step: 1, Kind: protocol.KindGeoAppend}
	if err := legacy.SetBody(map[string]any{"source": claim.Source, "first": claim.First, "count": claim.Count, "frames": frames}); err != nil {
		t.Fatal(err)
	}
	tok, err := f.realm.Party(alice).Issuer.Issue(evidence.KindGeoAppend, legacy.Run, 1, sig.Sum(canon.MustMarshal(&claim)))
	if err != nil {
		t.Fatal(err)
	}
	legacy.Tokens = []*evidence.Token{tok}
	if reply, err := f.coA.DeliverRequest(ctx, bob, legacy); err == nil {
		t.Fatalf("legacy geo push accepted: %s", reply.Payload)
	}
	if acked, err := f.geo.AckedSeq(ctx, bob, string(alice)); err != nil || acked != 0 {
		t.Fatalf("replica after a legacy push holds up to %d, %v; want nothing", acked, err)
	}
	if acked, err := f.geo.Append(ctx, bob, string(alice), recs); err != nil || acked != 3 {
		t.Fatalf("Append after a legacy push = %d, %v; want 3", acked, err)
	}
}
