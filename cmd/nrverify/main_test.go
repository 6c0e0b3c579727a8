package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nonrep/internal/bundle"
	"nonrep/internal/clock"
	"nonrep/internal/credential"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

const (
	client = id.Party("urn:org:client")
	server = id.Party("urn:org:server")
)

// writeBundle writes a bundle holding the client's and the server's log of
// one run whose NRR covers nrrDigest; the run's request is
// sig.Sum("request"). Certificates are valid now, as auditBundle checks
// them on the real clock.
func writeBundle(t *testing.T, nrrDigest sig.Digest) string {
	t.Helper()
	clk := clock.Real{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	caKey, err := sig.GenerateEd25519("ca-key")
	must(err)
	ca, err := credential.NewRootAuthority("urn:ttp:ca", caKey, clk)
	must(err)
	b := &bundle.Bundle{CA: ca.Certificate(), Logs: make(map[id.Party][]*store.Record)}
	issuers := make(map[id.Party]*evidence.Issuer)
	for _, p := range []id.Party{client, server} {
		key, err := sig.GenerateEd25519(string(p) + "#key")
		must(err)
		cert, err := ca.Issue(p, key.KeyID(), key.PublicKey())
		must(err)
		b.Certs = append(b.Certs, cert)
		issuers[p] = &evidence.Issuer{Party: p, Signer: key, Clock: clk}
	}

	run := id.NewRun()
	resp := sig.Sum([]byte("response"))
	note := evidence.ReceiptNote{Run: run, Client: client, ResponseDigest: resp, Consumption: evidence.Consumed}
	noteDigest, err := note.Digest()
	must(err)
	var toks []*evidence.Token
	for _, step := range []struct {
		by     id.Party
		kind   evidence.Kind
		digest sig.Digest
	}{
		{client, evidence.KindNRO, sig.Sum([]byte("request"))},
		{server, evidence.KindNRR, nrrDigest},
		{server, evidence.KindNROResp, resp},
		{client, evidence.KindNRRResp, noteDigest},
	} {
		tok, err := issuers[step.by].Issue(step.kind, run, 1, step.digest)
		must(err)
		toks = append(toks, tok)
	}
	for _, p := range []id.Party{client, server} {
		log := testpki.Log(t, clk)
		for _, tok := range toks {
			dir := store.Received
			if tok.Issuer == p {
				dir = store.Generated
			}
			_, err := log.Append(dir, tok, "")
			must(err)
		}
		b.Logs[p] = testpki.Query(t, log, store.Query{})
	}
	dir := t.TempDir()
	must(bundle.Write(dir, b))
	return dir
}

// audit runs the bundle mode on dir and returns its exit code and output.
func audit(t *testing.T, dir string) (int, string) {
	t.Helper()
	return captured(t, func() int { return auditBundle(dir, "") })
}

// captured runs a mode and returns its exit code and what it printed.
func captured(t *testing.T, mode func() int) (int, string) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	code := mode()
	os.Stdout = stdout
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

// TestSizesCountsBorrowersAndRefusesDamage: -sizes reports how many
// followers borrow their signature — here each server's response origin,
// signed in one batch with its receipt — and how many plain frames take
// their parties from a party source — here each request origin but each
// segment's first — and exits 2 on a segment a
// flipped byte has made unreadable past some frame, rather than counting
// the frames before the damage.
func TestSizesCountsBorrowersAndRefusesDamage(t *testing.T) {
	realm := testpki.MustRealm(client, server)
	dir := t.TempDir()
	v, err := vault.Open(dir, realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	issuer := realm.Party(server).Issuer
	for i := 0; i < 4; i++ {
		run := id.NewRun()
		nro, err := realm.Party(client).Issuer.Issue(evidence.KindNRO, run, 1, sig.Sum([]byte("request")), evidence.WithRecipients(server))
		if err != nil {
			t.Fatal(err)
		}
		pair, err := issuer.IssueBatch([]evidence.TokenRequest{
			{Kind: evidence.KindNRR, Run: run, Step: 2, Digest: nro.Digest, Opts: []evidence.IssueOption{evidence.WithRecipients(client)}},
			{Kind: evidence.KindNROResp, Run: run, Step: 3, Digest: sig.Sum([]byte("response")), Opts: []evidence.IssueOption{evidence.WithRecipients(client)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.AppendGroup([]store.Entry{
			{Dir: store.Received, Token: nro, Note: "request origin"},
			{Dir: store.Generated, Token: pair[0], Note: "request receipt"},
			{Dir: store.Generated, Token: pair[1], Note: "response origin (ok)"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	code, out := captured(t, func() int { return sizesVault(dir) })
	if code != 0 || !strings.Contains(out, "8 followers") || !strings.Contains(out, "4 of them borrowing a signature") ||
		!strings.Contains(out, "2 of them taking their parties from a party source") {
		t.Fatalf("sizes of an intact vault: exit %d\n%s", code, out)
	}

	seg := filepath.Join(dir, "seg-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if code, out := captured(t, func() int { return sizesVault(dir) }); code != 2 {
		t.Fatalf("sizes of a damaged vault: exit %d, want 2\n%s", code, out)
	}
}

// TestSizesReportsLending: -sizes says, per frame type, how many frames
// take their signer from the frame they lean on and how their parties
// travel. Four calls, one commit each: the first request spells its
// parties out, the three after it take theirs and their signer from it;
// every receipt and response follows its request, mirroring its parties
// and taking its signer.
func TestSizesReportsLending(t *testing.T) {
	realm := testpki.MustRealm(client, server)
	dir := t.TempDir()
	v, err := vault.Open(dir, realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	issue := func(p, to id.Party, kind evidence.Kind, run id.Run, step int, what string) *evidence.Token {
		tok, err := realm.Party(p).Issuer.Issue(kind, run, step, sig.Sum([]byte(what)), evidence.WithRecipients(to))
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	for i := 0; i < 4; i++ {
		run := id.NewRun()
		if _, err := v.AppendGroup([]store.Entry{
			{Dir: store.Received, Token: issue(client, server, evidence.KindNRO, run, 1, "request"), Note: "request origin"},
			{Dir: store.Generated, Token: issue(server, client, evidence.KindNRR, run, 2, "request"), Note: "request receipt"},
			{Dir: store.Generated, Token: issue(server, client, evidence.KindNROResp, run, 3, "response"), Note: "response origin (ok)"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	code, out := captured(t, func() int { return sizesVault(dir) })
	for _, want := range []string{
		"lending, plain frames: 3 of 4 taking their signer from their lender; parties 3 same, 0 mirrored, 0 referenced, 1 spelled out",
		"lending, followers: 8 of 8 taking their signer from their lender; parties 0 same, 8 mirrored, 0 referenced, 0 spelled out",
	} {
		if code != 0 || !strings.Contains(out, want) {
			t.Fatalf("sizes: exit %d, want %q\n%s", code, want, out)
		}
	}
}

// TestSizesReportsDerivedDigests: -sizes says how the frames store their
// tokens' digests. Two calls, each a commit of the server's {NRO, NRR,
// NROResp}, then the client's receipt in a commit of its own, then a
// journal record over its note: the server's receipts, and the second
// request, take the digest of the frame they lean on, the client's
// receipts rebuild theirs from the response origin, the journal records
// from their notes.
func TestSizesReportsDerivedDigests(t *testing.T) {
	realm := testpki.MustRealm(client, server)
	dir := t.TempDir()
	v, err := vault.Open(dir, realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	issue := func(p, to id.Party, kind evidence.Kind, run id.Run, step int, digest sig.Digest) *evidence.Token {
		tok, err := realm.Party(p).Issuer.Issue(kind, run, step, digest, evidence.WithRecipients(to))
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	for i := 0; i < 2; i++ {
		run := id.NewRun()
		resp := issue(server, client, evidence.KindNROResp, run, 3, sig.Sum([]byte("response")))
		receipt, _ := evidence.ReceiptOf(run, resp, evidence.Consumed)
		const note = `{"job":"j","attempts":1}`
		for _, group := range [][]store.Entry{
			{{Dir: store.Received, Token: issue(client, server, evidence.KindNRO, run, 1, sig.Sum([]byte("request"))), Note: "request origin"},
				{Dir: store.Generated, Token: issue(server, client, evidence.KindNRR, run, 2, sig.Sum([]byte("request"))), Note: "request receipt"},
				{Dir: store.Generated, Token: resp, Note: "response origin (ok)"}},
			{{Dir: store.Received, Token: issue(client, server, evidence.KindNRRResp, run, 4, receipt), Note: "response receipt (consumed)"}},
			{{Dir: store.Generated, Token: issue(server, server, evidence.KindJobDone, run, 0, sig.Sum([]byte(note))), Note: note}},
		} {
			if _, err := v.AppendGroup(group); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	code, out := captured(t, func() int { return sizesVault(dir) })
	if want := "digests: 3 written, 3 lent by their lender, 2 rebuilt as the receipt of a response origin, 2 rebuilt from their note"; code != 0 || !strings.Contains(out, want) {
		t.Fatalf("sizes: exit %d, want %q\n%s", code, want, out)
	}
}

// TestBundleReportsBindingFaults: every log of a bundle can audit clean —
// each record chained, each token validly signed — while a run's tokens
// are bound to different messages. The bundle's verdict is FAULTY then,
// naming the token that breaks the binding.
func TestBundleReportsBindingFaults(t *testing.T) {
	code, out := audit(t, writeBundle(t, sig.Sum([]byte("request"))))
	if code != 0 || !strings.Contains(out, "complete=true") || !strings.Contains(out, "verdict: all evidence verifies") {
		t.Fatalf("honest bundle: exit %d\n%s", code, out)
	}

	code, out = audit(t, writeBundle(t, sig.Sum([]byte("another request"))))
	if code != 1 || !strings.Contains(out, "verdict: evidence FAULTY") {
		t.Fatalf("bundle whose NRR covers another request: exit %d\n%s", code, out)
	}
	if strings.Count(out, "  CLEAN\n") != 2 || !strings.Contains(out, "nrr-req token does not cover the run's request") ||
		!strings.Contains(out, "complete=false") {
		t.Fatalf("want clean logs and a run naming the NRR's broken binding:\n%s", out)
	}
}

// TestSizesReportsIndexPins: -sizes names each sealed segment's index
// version and what its pinned hashes and its offsets take — a hash and
// an offset per window of four records counted from the vault's sequence
// numbers under the version-4 index this build seals, a hash per four
// records counted from the segment's first and an offset per record
// under version 3, a hash and an offset per record under version 2.
func TestSizesReportsIndexPins(t *testing.T) {
	for _, c := range []struct {
		fixture string
		seal    bool // seal the copy's tail first
		segment string
		index   string
		pins    string // B/rec
		offsets string // B/rec
		total   string
	}{
		// Segment 1 of v6-vault: 11 records under 3 pins and 11 offsets.
		{"v6-vault", false, "1", "binary-v3", "8.7", "4.0", "pins: 192 index bytes of pinned hashes = 8.0 B/record"},
		// Segment 1 of v5-vault: 8 records under 8 pins and 8 offsets.
		{"v5-vault", false, "1", "binary-v2", "32.0", "4.0", "pins: 512 index bytes of pinned hashes = 25.6 B/record"},
		// v7-vault's one-record tail, seq 24, sealed by this build: the
		// last record of window [21,24], under 1 pin and 1 offset.
		{"v7-vault", true, "3", "binary", "32.0", "4.0", "offsets: 96 index bytes of offsets = 4.0 B/record"},
	} {
		src := filepath.Join("..", "..", "internal", "vault", "testdata", c.fixture)
		dir := t.TempDir()
		files, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(src, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		if c.seal {
			v, err := vault.Open(dir, clock.Real{})
			if err != nil {
				t.Fatal(err)
			}
			if err := v.SealNow(); err != nil {
				t.Fatal(err)
			}
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
		}
		code, out := captured(t, func() int { return sizesVault(dir) })
		var row []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, c.segment+" ") {
				row = strings.Fields(line)
			}
		}
		if code != 0 || len(row) < 9 || row[5] != c.index || row[7] != c.pins || row[8] != c.offsets || !strings.Contains(out, c.total) {
			t.Fatalf("%s: exit %d, segment %s row %q, want index %s at %s pin B/rec, %s offset B/rec and %q\n%s",
				c.fixture, code, c.segment, row, c.index, c.pins, c.offsets, c.total, out)
		}
	}
}
