package main

import (
	"context"
	"strings"
	"testing"

	"nonrep/internal/evidence"
	"nonrep/internal/georep"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

// TestHostEvidenceTakesTailPushes names a replica-hosting TTP as the
// peer of a quorum-style target, exactly as an organisation enrolled
// with WithReplication or WithQuorum does: the TTP must answer the geo
// kinds (tail status and pushes), not only seg-ship, or every pass fails
// with ErrNoHandler.
func TestHostEvidenceTakesTailPushes(t *testing.T) {
	const (
		org = id.Party("urn:org:a")
		ttp = id.Party("urn:ttp:main")
	)
	realm := testpki.MustRealm(org, ttp)
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	dir := protocol.NewDirectory()
	newCo := func(p id.Party, log store.Log) *protocol.Coordinator {
		co, err := protocol.New(network, string(p), &protocol.Services{
			Party:     p,
			Issuer:    realm.Party(p).Issuer,
			Verifier:  realm.Verifier(),
			Log:       log,
			States:    store.NewMemStateStore(),
			Clock:     realm.Clock,
			Directory: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = co.Close() })
		return co
	}
	v, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = v.Close() })
	coOrg := newCo(org, v)
	coTTP := newCo(ttp, store.NewMemLog(realm.Clock))

	replicas, services := hostEvidence(coTTP, nil, t.TempDir())
	if replicas == nil || !strings.Contains(services, "geo tail pushes") {
		t.Fatalf("hostEvidence = %v, %q; want a replica store and geo pushes on the services line", replicas, services)
	}

	run := id.NewRun()
	for i := 1; i <= 6; i++ { // one sealed segment and a two-record tail
		tok, err := realm.Party(org).Issuer.Issue(evidence.KindNRO, run, i, sig.Sum([]byte{byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Append(store.Generated, tok, "sent"); err != nil {
			t.Fatal(err)
		}
	}
	eng := georep.NewEngine(v, string(org), georep.Policy{}, nil)
	t.Cleanup(func() { _ = eng.Close() })
	eng.AddTarget(string(ttp), protocol.NewGeoClient(coOrg).Target(ttp, protocol.NewAuditClient(coOrg)))
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatalf("Flush toward the TTP: %v", err)
	}
	if sealed, err := replicas.LastSealed(string(org)); err != nil || sealed != 1 {
		t.Fatalf("TTP replica LastSealed = %d, %v; want 1", sealed, err)
	}
	if acked, err := replicas.AckedSeq(string(org)); err != nil || acked != 6 {
		t.Fatalf("TTP replica AckedSeq = %d, %v; want 6 (tail included)", acked, err)
	}
}

// TestHostEvidenceRefusesUnsignedSegShip: a TTP's replica host accepts a
// sealed segment only from the source it names. A peer without an issuer
// shipping its own segment 1 as urn:org:a's is refused and installs
// nothing, so the genuine organisation's segment 1 still lands instead of
// bouncing as a conflicting history.
func TestHostEvidenceRefusesUnsignedSegShip(t *testing.T) {
	const (
		org     = id.Party("urn:org:a")
		mallory = id.Party("urn:org:mallory")
		ttp     = id.Party("urn:ttp:main")
	)
	realm := testpki.MustRealm(org, mallory, ttp)
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	dir := protocol.NewDirectory()
	newCo := func(p id.Party, issuer evidence.TokenIssuer, log store.Log) *protocol.Coordinator {
		co, err := protocol.New(network, string(p), &protocol.Services{
			Party:     p,
			Issuer:    issuer,
			Verifier:  realm.Verifier(),
			Log:       log,
			States:    store.NewMemStateStore(),
			Clock:     realm.Clock,
			Directory: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = co.Close() })
		return co
	}
	// fill seals one four-record segment in a fresh vault of p's evidence.
	fill := func(p id.Party) *vault.Vault {
		v, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(4))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = v.Close() })
		run := id.NewRun()
		for i := 1; i <= 5; i++ {
			tok, err := realm.Party(p).Issuer.Issue(evidence.KindNRO, run, i, sig.Sum([]byte{byte(i)}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.Append(store.Generated, tok, "sent"); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	vOrg, vMallory := fill(org), fill(mallory)
	coOrg := newCo(org, realm.Party(org).Issuer, vOrg)
	coMallory := newCo(mallory, nil, vMallory)
	coTTP := newCo(ttp, realm.Party(ttp).Issuer, store.NewMemLog(realm.Clock))
	replicas, _ := hostEvidence(coTTP, nil, t.TempDir())

	forged, err := vMallory.Package(1)
	if err != nil {
		t.Fatal(err)
	}
	err = protocol.NewAuditClient(coMallory).ShipSegment(context.Background(), ttp, string(org), forged)
	if err == nil || !strings.Contains(err.Error(), "authenticated") {
		t.Fatalf("unsigned seg-ship: err = %v, want an authenticated-only refusal", err)
	}
	if sealed, err := replicas.LastSealed(string(org)); err != nil || sealed != 0 {
		t.Fatalf("replica of %s at segment %d (%v) after a refused shipment; want 0", org, sealed, err)
	}

	eng := georep.NewEngine(vOrg, string(org), georep.Policy{}, nil)
	t.Cleanup(func() { _ = eng.Close() })
	eng.AddTarget(string(ttp), protocol.NewGeoClient(coOrg).Target(ttp, protocol.NewAuditClient(coOrg)))
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatalf("genuine Flush after the refused shipment: %v", err)
	}
	if sealed, err := replicas.LastSealed(string(org)); err != nil || sealed != 1 {
		t.Fatalf("replica of %s at segment %d, %v; want 1", org, sealed, err)
	}
}
