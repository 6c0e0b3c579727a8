package protocol_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nonrep/internal/core"
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

// auditFixture is two vault-backed coordinators with audit services: a
// source organisation (alice) producing evidence and a peer (bob)
// hosting its replicas.
type auditFixture struct {
	realm    *testpki.Realm
	dir      *protocol.Directory
	coA, coB *protocol.Coordinator
	vA       *vault.Vault
	vADir    string
	rsB      *vault.ReplicaSet
	client   *protocol.AuditClient // on alice's coordinator
}

func newAuditFixture(t *testing.T, network transport.Network) *auditFixture {
	t.Helper()
	realm := testpki.MustRealm(alice, bob)
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
	vADir := t.TempDir()
	vA, err := vault.Open(vADir, realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = vA.Close() })
	rsB, err := vault.OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := &auditFixture{
		realm: realm,
		dir:   dir,
		vA:    vA,
		vADir: vADir,
		rsB:   rsB,
	}
	f.coA = newCo(alice, vA)
	f.coB = newCo(bob, testpki.Log(t, realm.Clock))
	protocol.NewAuditService(f.coA, vA, nil)
	protocol.NewAuditService(f.coB, nil, rsB)
	f.client = protocol.NewAuditClient(f.coA)
	return f
}

// fill appends n records of one run to alice's vault: n origin tokens of
// the run's one request, as a client retransmitting it would log.
func (f *auditFixture) fill(t *testing.T, n int) []*store.Record {
	t.Helper()
	run := id.NewRun()
	req := sig.Sum([]byte("request"))
	out := make([]*store.Record, 0, n)
	for i := 1; i <= n; i++ {
		tok, err := f.realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, i, req)
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

// TestRemoteAuditStream streams a remote vault audit through the
// audit-query pages and adjudicates it, exercising the paging cursor with
// a page size smaller than the log.
func TestRemoteAuditStream(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newAuditFixture(t, network)
	want := f.fill(t, 13)

	auditor := protocol.NewAuditClient(f.coB)
	auditor.SetPage(3)
	it := auditor.Query(context.Background(), alice, vault.Query{}, "")
	adj := core.NewAdjudicator(f.realm.Store)
	report := adj.AuditStream(it)
	if err := it.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if !report.Clean() || report.Records != len(want) {
		t.Fatalf("remote audit: clean=%v records=%d chain=%q", report.Clean(), report.Records, report.ChainError)
	}

	// Stats and filtered queries travel too.
	st, err := auditor.Stats(context.Background(), alice, "")
	if err != nil || st.LastSeq != uint64(len(want)) {
		t.Fatalf("Stats = %+v, %v", st, err)
	}
	run := want[0].Token.Run
	it = auditor.Query(context.Background(), alice, vault.Query{Run: run}, "")
	runReport, err := adj.AuditRunStream(it, run)
	if err != nil {
		t.Fatalf("AuditRunStream: %v", err)
	}
	if !runReport.RequestProven || len(runReport.Faults) != 0 {
		t.Fatalf("run report: %+v", runReport)
	}

	// The caller's resume cursor and limit are honoured end to end: an
	// interrupted audit resumed at AfterSeq must yield exactly the
	// remainder, and Limit must bound the stream.
	it = auditor.Query(context.Background(), alice, vault.Query{AfterSeq: want[9].Seq}, "")
	var resumed []uint64
	for it.Next() {
		resumed = append(resumed, it.Record().Seq)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(want)-10 || resumed[0] != want[10].Seq {
		t.Fatalf("resumed stream = %v, want seqs %d..%d", resumed, want[10].Seq, want[len(want)-1].Seq)
	}
	it = auditor.Query(context.Background(), alice, vault.Query{Limit: 5}, "")
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil || n != 5 {
		t.Fatalf("limited stream yielded %d records (%v), want 5", n, err)
	}
}

// TestRemoteAuditFailureTaxonomy re-runs the adjudicator failure
// taxonomy over the wire: the verdicts of the remote audit stream must
// match what a local audit of the same (doctored) evidence produces.
func TestRemoteAuditFailureTaxonomy(t *testing.T) {
	t.Parallel()
	// One network per subtest: they run in parallel and both register
	// alice and bob.
	newNetwork := func(t *testing.T) transport.Network {
		network := transport.NewInprocNetwork()
		t.Cleanup(func() { _ = network.Close() })
		return network
	}

	t.Run("forged signature faults the exact record", func(t *testing.T) {
		t.Parallel()
		f := newAuditFixture(t, newNetwork(t))
		f.fill(t, 3)
		// A forged token: issued by an uncertified key claiming alice.
		rogue, err := sig.GenerateEd25519("rogue")
		if err != nil {
			t.Fatal(err)
		}
		forgedIssuer := &evidence.Issuer{Party: alice, Signer: rogue, Clock: f.realm.Clock}
		forged, err := forgedIssuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("x")))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.vA.Append(store.Generated, forged, ""); err != nil {
			t.Fatal(err)
		}

		auditor := protocol.NewAuditClient(f.coB)
		it := auditor.Query(context.Background(), alice, vault.Query{}, "")
		report := core.NewAdjudicator(f.realm.Store).AuditStream(it)
		if !report.ChainOK {
			t.Fatalf("chain verdict flipped: %q", report.ChainError)
		}
		if len(report.Faults) != 1 || report.Faults[0].Seq != 4 {
			t.Fatalf("Faults = %+v, want exactly seq 4", report.Faults)
		}
	})

	t.Run("tampered sealed segment surfaces as a stream integrity error", func(t *testing.T) {
		t.Parallel()
		f := newAuditFixture(t, newNetwork(t))
		f.fill(t, 9) // 2 sealed segments + tail
		// Doctor a sealed record on disk: the serving vault must refuse to
		// stream it rather than hand the auditor tampered evidence.
		p := filepath.Join(f.vADir, "seg-00000001.log")
		data, rerr := os.ReadFile(p)
		if rerr != nil {
			t.Fatal(rerr)
		}
		data[len(data)/2] ^= 0x01
		if werr := os.WriteFile(p, data, 0o600); werr != nil {
			t.Fatal(werr)
		}
		auditor := protocol.NewAuditClient(f.coB)
		it := auditor.Query(context.Background(), alice, vault.Query{}, "")
		report := core.NewAdjudicator(f.realm.Store).AuditStream(it)
		if report.ChainOK {
			t.Fatal("tampered sealed segment audited clean over the wire")
		}
		if it.Err() == nil {
			t.Fatal("stream reported no error for tampered segment")
		}
	})
}

// TestSegShipReplication replicates over the protocol layer: alice's
// engine ships through seg-status/seg-ship messages into bob's
// replica store, and an adjudication is then served entirely from bob's
// replica — including after alice's vault is gone.
func TestSegShipReplication(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newAuditFixture(t, network)
	want := f.fill(t, 11)
	if err := f.vA.SealNow(); err != nil {
		t.Fatal(err)
	}

	eng := georep.NewEngine(f.vA, string(alice), georep.Policy{}, f.realm.Clock)
	t.Cleanup(func() { _ = eng.Close() })
	eng.AddTarget(string(bob), f.client.ShipTarget(bob))
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	last, err := f.rsB.LastSealed(string(alice))
	if err != nil || last != 3 {
		t.Fatalf("replica at %d, %v; want 3", last, err)
	}

	// Audit bob's replica of alice remotely — alice is not involved.
	auditor := protocol.NewAuditClient(f.coA)
	it := auditor.Query(context.Background(), bob, vault.Query{}, string(alice))
	report := core.NewAdjudicator(f.realm.Store).AuditStream(it)
	if err := it.Err(); err != nil {
		t.Fatalf("replica stream: %v", err)
	}
	if !report.Clean() || report.Records != len(want) {
		t.Fatalf("replica audit: clean=%v records=%d want=%d", report.Clean(), report.Records, len(want))
	}
}

// TestSegShipFaultInjection replicates across a deterministic faulty
// network that drops and duplicates envelopes: retransmission plus the
// replica's idempotent acceptance must converge without duplicated or
// lost segments.
func TestSegShipFaultInjection(t *testing.T) {
	t.Parallel()
	inner := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = inner.Close() })
	faulty := transport.NewFaultyNetwork(inner, transport.FaultPlan{
		Seed:     7,
		DropRate: 0.3,
		DupRate:  0.3,
		MaxDrops: 40,
	})
	f := newAuditFixture(t, faulty)
	f.fill(t, 12)

	eng := georep.NewEngine(f.vA, string(alice), georep.Policy{}, f.realm.Clock)
	t.Cleanup(func() { _ = eng.Close() })
	eng.AddTarget(string(bob), f.client.ShipTarget(bob))
	// Retransmission masks the bounded drops; a few passes are allowed
	// (a failed pass re-negotiates from seg-status) but convergence must
	// be reached.
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		if lastErr = eng.Flush(context.Background()); lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("replication never converged: %v", lastErr)
	}
	last, err := f.rsB.LastSealed(string(alice))
	if err != nil || last != 3 {
		t.Fatalf("replica at %d, %v; want 3", last, err)
	}
	replica, err := vault.Open(f.rsB.Dir(string(alice)), f.realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := replica.DeepVerify(); err != nil {
		t.Fatalf("replica after faulty shipping: %v", err)
	}
}

// TestSegShipRejectsTamperedPackage: a tampering shipper is refused by
// the receiving organisation's seal-chain verification, and the refusal
// travels back as the request error.
func TestSegShipRejectsTamperedPackage(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newAuditFixture(t, network)
	f.fill(t, 8)
	pkg, err := f.vA.Package(1)
	if err != nil {
		t.Fatal(err)
	}
	pkg.Data[len(pkg.Data)/3] ^= 0x01
	err = f.client.ShipSegment(context.Background(), bob, string(alice), pkg)
	if err == nil || !strings.Contains(err.Error(), "seal broken") {
		t.Fatalf("tampered ship error = %v, want seal-broken refusal", err)
	}
	if last, _ := f.rsB.LastSealed(string(alice)); last != 0 {
		t.Fatalf("tampered segment accepted (replica at %d)", last)
	}
}

// TestHostedTenantAuditAndReplication registers audit services on hosted
// coordinators behind one shared multi-tenant endpoint: remote audit and
// seg-ship replication must work tenant-to-tenant exactly as between
// dedicated coordinators.
func TestHostedTenantAuditAndReplication(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice, bob)
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	dir := protocol.NewDirectory()
	host, err := protocol.NewHost(network, "shared-host")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = host.Close() })

	vA, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = vA.Close() })
	rsB, err := vault.OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	addTenant := func(p id.Party, log store.Log) *protocol.Coordinator {
		svc := &protocol.Services{
			Party:     p,
			Issuer:    realm.Party(p).Issuer,
			Verifier:  realm.Verifier(),
			Log:       log,
			States:    store.NewMemStateStore(),
			Clock:     realm.Clock,
			Directory: dir,
		}
		co, err := host.Add(svc)
		if err != nil {
			t.Fatal(err)
		}
		return co
	}
	coA := addTenant(alice, vA)
	coB := addTenant(bob, testpki.Log(t, realm.Clock))
	protocol.NewAuditService(coA, vA, nil)
	protocol.NewAuditService(coB, nil, rsB)

	run := id.NewRun()
	for i := 1; i <= 9; i++ {
		tok, err := realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, i, sig.Sum([]byte{byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vA.Append(store.Generated, tok, ""); err != nil {
			t.Fatal(err)
		}
	}

	// Tenant-to-tenant replication through the shared endpoint.
	client := protocol.NewAuditClient(coA)
	eng := georep.NewEngine(vA, string(alice), georep.Policy{}, realm.Clock)
	t.Cleanup(func() { _ = eng.Close() })
	eng.AddTarget(string(bob), client.ShipTarget(bob))
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatalf("hosted Flush: %v", err)
	}
	if last, _ := rsB.LastSealed(string(alice)); last != 2 {
		t.Fatalf("hosted replica at %d, want 2", last)
	}

	// Remote audit of a hosted tenant, and of its replica at the other
	// hosted tenant.
	auditor := protocol.NewAuditClient(coB)
	it := auditor.Query(context.Background(), alice, vault.Query{}, "")
	report := core.NewAdjudicator(realm.Store).AuditStream(it)
	if err := it.Err(); err != nil || !report.Clean() || report.Records != 9 {
		t.Fatalf("hosted remote audit: %v clean=%v records=%d", err, report.Clean(), report.Records)
	}
	it = protocol.NewAuditClient(coA).Query(context.Background(), bob, vault.Query{}, string(alice))
	replicaReport := core.NewAdjudicator(realm.Store).AuditStream(it)
	if err := it.Err(); err != nil || !replicaReport.Clean() || replicaReport.Records != 8 {
		t.Fatalf("hosted replica audit: %v clean=%v records=%d (8 sealed)", err, replicaReport.Clean(), replicaReport.Records)
	}
}

// TestAuditServiceRefusals covers the service's error paths: unknown
// kinds, one-way deliveries, missing vaults and unknown replica sources
// answer with errors instead of crashing or fabricating empty verdicts.
func TestAuditServiceRefusals(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newAuditFixture(t, network)

	// Unknown replica source: bob holds no replica of "urn:org:ghost".
	auditor := protocol.NewAuditClient(f.coA)
	it := auditor.Query(context.Background(), bob, vault.Query{}, "urn:org:ghost")
	if it.Next() {
		t.Fatal("query of unknown replica yielded records")
	}
	if it.Err() == nil {
		t.Fatal("query of unknown replica reported no error")
	}

	// Vault-less organisation refuses own-vault audits.
	it = f.client.Query(context.Background(), bob, vault.Query{}, "")
	if it.Next() || it.Err() == nil {
		t.Fatal("vault-less audit did not error")
	}

	// Unknown kind.
	msg := &protocol.Message{Protocol: protocol.AuditProtocol, Run: id.NewRun(), Step: 1, Kind: "audit-bogus"}
	if err := msg.SetBody(map[string]string{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.coA.DeliverRequest(context.Background(), bob, msg); err == nil {
		t.Fatal("unknown audit kind succeeded")
	}
}
