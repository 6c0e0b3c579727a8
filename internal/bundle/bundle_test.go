package bundle_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nonrep/internal/bundle"
	"nonrep/internal/clock"
	"nonrep/internal/core"
	"nonrep/internal/credential"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

const (
	orgA = id.Party("urn:org:a")
	orgB = id.Party("urn:org:b")
	orgC = id.Party("urn:org:c")
	orgD = id.Party("urn:org:d")
)

func buildBundle(t *testing.T) (*bundle.Bundle, *testpki.Realm) {
	t.Helper()
	realm := testpki.MustRealm(orgA, orgB)
	logA := testpki.Log(t, realm.Clock)
	logB := testpki.Log(t, realm.Clock)
	run := id.NewRun()
	tokA, err := realm.Party(orgA).Issuer.Issue(evidence.KindNRO, run, 1, sig.Sum([]byte("req")))
	if err != nil {
		t.Fatal(err)
	}
	tokB, err := realm.Party(orgB).Issuer.Issue(evidence.KindNRR, run, 1, sig.Sum([]byte("req")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := logA.Append(store.Generated, tokA, "sent"); err != nil {
		t.Fatal(err)
	}
	if _, err := logA.Append(store.Received, tokB, "recv"); err != nil {
		t.Fatal(err)
	}
	if _, err := logB.Append(store.Received, tokA, "recv"); err != nil {
		t.Fatal(err)
	}
	if _, err := logB.Append(store.Generated, tokB, "sent"); err != nil {
		t.Fatal(err)
	}
	return &bundle.Bundle{
		CA:    realm.CA.Certificate(),
		Certs: []*credential.Certificate{realm.Party(orgA).Cert, realm.Party(orgB).Cert},
		Logs: map[id.Party][]*store.Record{
			orgA: testpki.Query(t, logA, store.Query{}),
			orgB: testpki.Query(t, logB, store.Query{}),
		},
	}, realm
}

func TestWriteReadRoundTrip(t *testing.T) {
	t.Parallel()
	b, realm := buildBundle(t)
	// A received-only log names no owner in its content, an empty log
	// nothing at all: both keep their party across the round trip.
	tok, err := realm.Party(orgA).Issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("notice")), evidence.WithRecipients(orgC))
	if err != nil {
		t.Fatal(err)
	}
	logC := testpki.Log(t, realm.Clock)
	if _, err := logC.Append(store.Received, tok, "recv"); err != nil {
		t.Fatal(err)
	}
	b.Logs[orgC] = testpki.Query(t, logC, store.Query{})
	b.Logs[orgD] = nil
	dir := t.TempDir()
	if err := bundle.Write(dir, b); err != nil {
		t.Fatal(err)
	}
	got, err := bundle.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.CA.Serial != b.CA.Serial {
		t.Errorf("CA serial = %s", got.CA.Serial)
	}
	if len(got.Certs) != 2 {
		t.Errorf("certs = %d", len(got.Certs))
	}
	if len(got.Logs) != len(b.Logs) {
		t.Fatalf("logs = %d, want %d", len(got.Logs), len(b.Logs))
	}
	for p, records := range got.Logs {
		want, ok := b.Logs[p]
		if !ok {
			t.Fatalf("read back party %q, which Write was not given", p)
		}
		if len(records) != len(want) {
			t.Errorf("%s log = %d records, want %d", p, len(records), len(want))
		}
		if err := store.VerifyRecords(records); err != nil {
			t.Errorf("%s chain after round trip: %v", p, err)
		}
	}

	// The round-tripped bundle supports full adjudication.
	creds, err := got.CredentialStore(realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	adj := core.NewAdjudicator(creds)
	for p, records := range got.Logs {
		if report := adj.AuditStream(core.Records(records)); !report.Clean() {
			t.Errorf("%s audit after round trip: %+v", p, report)
		}
	}

	// A bundle from before the party index still reads: the received-only
	// log's party is its recipient, and no two logs collapse into one.
	if err := os.Remove(filepath.Join(dir, "parties.json")); err != nil {
		t.Fatal(err)
	}
	legacy, err := bundle.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy.Logs) != len(b.Logs) || len(legacy.Logs[orgA]) != 2 || len(legacy.Logs[orgC]) != 1 {
		t.Fatalf("legacy read: %d logs, %s = %d records, %s = %d records", len(legacy.Logs), orgA, len(legacy.Logs[orgA]), orgC, len(legacy.Logs[orgC]))
	}
}

// TestReadParentFileLog reads testdata/filelog: a bundle written by the
// build before FileLog was removed, whose one log is the JSON-lines file
// that build's FileLog wrote for urn:org:server over two invocations.
// Old evidence logs stay adjudicable by copying them into a bundle.
func TestReadParentFileLog(t *testing.T) {
	t.Parallel()
	b, err := bundle.Read(filepath.Join("testdata", "filelog"))
	if err != nil {
		t.Fatal(err)
	}
	records := b.Logs["urn:org:server"]
	if len(b.Logs) != 1 || len(records) != 8 {
		t.Fatalf("logs = %d, urn:org:server = %d records; want 1 log of 8", len(b.Logs), len(records))
	}
	// The certificates were valid when the evidence was made; audit then.
	creds, err := b.CredentialStore(clock.NewManual(records[len(records)-1].At))
	if err != nil {
		t.Fatal(err)
	}
	if report := core.NewAdjudicator(creds).AuditStream(core.Records(records)); !report.Clean() || !report.ChainOK {
		t.Fatalf("audit of the parent's FileLog: %+v", report)
	}
}

var freezeDeepPaths = flag.Bool("freeze-deep-paths", false, "rewrite testdata/deep-paths: four runs whose server signed their receipts and response origins under one Merkle root")

// TestDeepPathBundleStillJudgesClean reads testdata/deep-paths: a frozen
// bundle of the client's (orgA) and the server's (orgB) logs of four
// runs, whose server signed the receipts and response origins of all four
// under one Merkle root of eight leaves, so that every one of those
// tokens stores an inclusion path of three digests. Servers that
// aggregated concurrent runs' signing made such evidence; no issuer signs
// across runs any more, and what they signed stays verifiable and
// adjudicable: both logs audit clean and every run is judged complete.
func TestDeepPathBundleStillJudgesClean(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "deep-paths")
	if *freezeDeepPaths {
		if err := bundle.Write(dir, deepPathBundle(t)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := bundle.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Logs) != 2 || len(b.Logs[orgA]) != 16 || len(b.Logs[orgB]) != 16 {
		t.Fatalf("logs = %d, %s = %d records, %s = %d records; want two logs of 16", len(b.Logs), orgA, len(b.Logs[orgA]), orgB, len(b.Logs[orgB]))
	}
	// The certificates were valid when the evidence was made; judge then.
	creds, err := b.CredentialStore(clock.NewManual(b.Logs[orgB][0].At))
	if err != nil {
		t.Fatal(err)
	}
	adj := core.NewAdjudicator(creds)
	runs := make(map[id.Run][]*store.Record)
	deep := 0
	for _, p := range []id.Party{orgA, orgB} {
		if report := adj.AuditStream(core.Records(b.Logs[p])); !report.Clean() || !report.ChainOK {
			t.Fatalf("audit of %s's log: %+v", p, report)
		}
		for _, rec := range b.Logs[p] {
			runs[rec.Token.Run] = append(runs[rec.Token.Run], rec)
			if len(rec.Token.Signature.BatchPath) >= 2 {
				deep++
			}
		}
	}
	if deep != 16 {
		t.Fatalf("%d stored tokens carry an inclusion path of two or more, want each log's eight receipts and response origins", deep)
	}
	if len(runs) != 4 {
		t.Fatalf("%d runs, want 4", len(runs))
	}
	for run, recs := range runs {
		report, err := adj.AuditRunStream(core.Records(recs), run)
		if err != nil || !report.Complete() || len(report.Faults) != 0 {
			t.Fatalf("run %s judged %+v (%v)", run, report, err)
		}
	}
}

// deepPathBundle builds what testdata/deep-paths freezes: four runs
// between orgA and orgB whose eight server tokens — each run's receipt
// and response origin — share one signature over a Merkle root.
func deepPathBundle(t *testing.T) *bundle.Bundle {
	t.Helper()
	realm := testpki.MustRealm(orgA, orgB)
	logA, logB := testpki.Log(t, realm.Clock), testpki.Log(t, realm.Clock)
	issue := func(p id.Party, kind evidence.Kind, run id.Run, step int, d sig.Digest, to id.Party) *evidence.Token {
		t.Helper()
		tok, err := realm.Party(p).Issuer.Issue(kind, run, step, d, evidence.WithRecipients(to))
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	appendTo := func(log store.Log, dir store.Direction, tok *evidence.Token, note string) {
		t.Helper()
		if _, err := log.Append(dir, tok, note); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 4
	nros := make([]*evidence.Token, runs)
	var reqs []evidence.TokenRequest
	for i := range nros {
		run := id.NewRun()
		nros[i] = issue(orgA, evidence.KindNRO, run, 1, sig.Sum([]byte(fmt.Sprintf("request %d", i))), orgB)
		appendTo(logA, store.Generated, nros[i], "request origin")
		appendTo(logB, store.Received, nros[i], "request origin")
		opts := []evidence.IssueOption{evidence.WithRecipients(orgA)}
		reqs = append(reqs,
			evidence.TokenRequest{Kind: evidence.KindNRR, Run: run, Step: 1, Digest: nros[i].Digest, Opts: opts},
			evidence.TokenRequest{Kind: evidence.KindNROResp, Run: run, Step: 2, Digest: sig.Sum([]byte(fmt.Sprintf("response %d", i))), Opts: opts})
	}
	server, err := realm.Party(orgB).Issuer.IssueBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, nro := range nros {
		nrr, nroResp := server[2*i], server[2*i+1]
		appendTo(logB, store.Generated, nrr, "request receipt")
		appendTo(logB, store.Generated, nroResp, "response origin (ok)")
		appendTo(logA, store.Received, nrr, "request receipt")
		appendTo(logA, store.Received, nroResp, "response origin (ok)")
		a := evidence.Anchors{Run: nro.Run, NRO: nro, NROResp: nroResp}
		nrrResp := issue(orgA, evidence.KindNRRResp, nro.Run, 2, a.ReceiptDigest(evidence.Consumed), orgB)
		appendTo(logA, store.Generated, nrrResp, "response receipt (consumed)")
		appendTo(logB, store.Received, nrrResp, "response receipt (consumed)")
	}
	return &bundle.Bundle{
		CA:    realm.CA.Certificate(),
		Certs: []*credential.Certificate{realm.Party(orgA).Cert, realm.Party(orgB).Cert},
		Logs: map[id.Party][]*store.Record{
			orgA: testpki.Query(t, logA, store.Query{}),
			orgB: testpki.Query(t, logB, store.Query{}),
		},
	}
}

// TestWriteRefusesSharedLogFile: two parties whose names sanitize to one
// file name would silently overwrite each other's evidence.
func TestWriteRefusesSharedLogFile(t *testing.T) {
	t.Parallel()
	b, _ := buildBundle(t)
	b.Logs["urn_org_a"] = b.Logs[orgA]
	if err := bundle.Write(t.TempDir(), b); err == nil {
		t.Fatal("Write accepted two parties sharing one log file")
	}
}

func TestReadMissingDir(t *testing.T) {
	t.Parallel()
	if _, err := bundle.Read(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("Read(absent) succeeded")
	}
}

func TestReadCorruptLog(t *testing.T) {
	t.Parallel()
	b, _ := buildBundle(t)
	dir := t.TempDir()
	if err := bundle.Write(dir, b); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "logs"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "logs", entries[0].Name()), []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := bundle.Read(dir); err == nil {
		t.Fatal("Read accepted corrupt log")
	}
}

func TestTamperedBundleDetectedByAdjudicator(t *testing.T) {
	t.Parallel()
	b, realm := buildBundle(t)
	dir := t.TempDir()
	if err := bundle.Write(dir, b); err != nil {
		t.Fatal(err)
	}
	got, err := bundle.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Doctor a record post-export: the chain audit must flag it.
	got.Logs[orgA][0].Note = "doctored"
	creds, err := got.CredentialStore(realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	if report := core.NewAdjudicator(creds).AuditStream(core.Records(got.Logs[orgA])); report.Clean() {
		t.Fatal("adjudicator accepted doctored bundle")
	}
}
