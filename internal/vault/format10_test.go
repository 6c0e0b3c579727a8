package vault_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// v10Vault is v9Vault's records as the build that introduced segment
// format 10 seals them: the same seqs, sealed after 11 and 23 under
// version-4 indexes. Their digests are not receipts of the runs' response
// origins nor digests of notes, so every digest is written or lent, as in
// format 9.
var v10Vault = fixtureVault{name: "v10-vault", enc: store.EncBinary, sealed: 2, tail: 1, sealedSeq: 23, lastSeq: 24}

// TestVaultV10VaultIsThisBuilds: v9-vault's records, appended one commit
// each, in order and at their time, to a fresh vault sealed where
// v9-vault was, come out as testdata/v10-vault byte for byte: manifest,
// segments, indexes and tail. The fixture is what this build writes, not
// only what it reads.
func TestVaultV10VaultIsThisBuilds(t *testing.T) {
	t.Parallel()
	dir := reappend(t, v9Vault.name)
	fixture := filepath.Join("testdata", v10Vault.name)
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "RUNS.json" {
			continue
		}
		want, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, e.Name())); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("this build writes %s as %d bytes, the fixture holds %d (err %v)", e.Name(), len(got), len(want), err)
		}
	}
}

// TestVaultV10VaultStillReads: a vault sealed in segment format 10 reads
// as checkStillReads says.
func TestVaultV10VaultStillReads(t *testing.T) {
	t.Parallel()
	checkStillReads(t, v10Vault)
}

// TestVaultV9VaultTakesV10Appends: v9-vault takes format-10 appends as
// checkTakesAppends says.
func TestVaultV9VaultTakesV10Appends(t *testing.T) {
	t.Parallel()
	checkTakesAppends(t, v9Vault)
}

// receiptRun is a direct call's evidence as the server's vault holds it:
// {NRO, NRR, NROResp} in one commit, the NRR and NROResp under one
// signature, then — after another run's request has come in — the
// client's NRRResp over its receipt of the NROResp.
func receiptRun(t *testing.T, realm *testpki.Realm, v *vault.Vault) (resp *evidence.Token) {
	t.Helper()
	run := id.NewRun()
	nro, err := realm.Party(peerOrg).Issuer.Issue(evidence.KindNRO, run, 1, sig.Sum([]byte("request")), evidence.WithRecipients(org))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := realm.Party(org).Issuer.IssueBatch([]evidence.TokenRequest{
		{Kind: evidence.KindNRR, Run: run, Step: 2, Digest: nro.Digest, Opts: []evidence.IssueOption{evidence.WithRecipients(peerOrg)}},
		{Kind: evidence.KindNROResp, Run: run, Step: 3, Digest: sig.Sum([]byte("response")), Opts: []evidence.IssueOption{evidence.WithRecipients(peerOrg)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	receipt, ok := evidence.ReceiptOf(run, pair[1], evidence.Consumed)
	if !ok {
		t.Fatal("the response origin names no client")
	}
	nrr, err := realm.Party(peerOrg).Issuer.Issue(evidence.KindNRRResp, run, 4, receipt, evidence.WithRecipients(org))
	if err != nil {
		t.Fatal(err)
	}
	other, err := realm.Party(peerOrg).Issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("other")), evidence.WithRecipients(org))
	if err != nil {
		t.Fatal(err)
	}
	for _, group := range [][]store.Entry{
		{{Dir: store.Received, Token: nro, Note: "request origin"}, {Dir: store.Generated, Token: pair[0], Note: "request receipt"},
			{Dir: store.Generated, Token: pair[1], Note: "response origin (ok)"}},
		{{Dir: store.Received, Token: other, Note: "request origin"}},
		{{Dir: store.Received, Token: nrr, Note: "response receipt (consumed)"}},
	} {
		if _, err := v.AppendGroup(group); err != nil {
			t.Fatal(err)
		}
	}
	return pair[1]
}

// TestVaultEditedResponseOriginBreaksReceiptRead: a client's receipt that
// rebuilds its digest from its run's response origin is authenticated
// through it. Seqs 1-3 are the run's {NRO, NRR, NROResp}, 4 another run's
// request, 5 the receipt, which names the response origin one index
// window before its own. An edit of the response origin's digest, the
// checksum fixed up, makes a keyed read of the receipt alone — a kind
// query that decodes only the receipt's window — fail with ErrSealBroken;
// a run wholly in a later window, seqs 9-12, still reads.
func TestVaultEditedResponseOriginBreaksReceiptRead(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org, peerOrg)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(12))
	resp := receiptRun(t, realm, v)
	for i := 0; i < 3; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, id.NewRun(), 1), ""); err != nil {
			t.Fatal(err)
		}
	}
	later := id.NewRun()
	for step := 1; step <= 4; step++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, later, step), ""); err != nil {
			t.Fatal(err)
		}
	}
	sizes, err := v.Sizes()
	if err != nil || len(sizes) != 1 || !sizes[0].Sealed || sizes[0].Digests[store.DigestReceipt] != 1 {
		t.Fatalf("Sizes = %+v, err %v, want one sealed segment with one receipt rebuilt", sizes, err)
	}
	if recs, err := v.QueryAll(vault.Query{Kind: evidence.KindNRRResp}); err != nil || len(recs) != 1 {
		t.Fatalf("the intact receipt reads as %d records, err %v", len(recs), err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	sealed := filepath.Join(dir, segFileName(1))
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, data)
	frame := data[offs[2]:offs[3]]
	at := bytes.Index(frame, resp.Digest[:])
	if at < 0 {
		t.Fatal("test setup: the response origin does not spell its digest")
	}
	frame[at] ^= 1
	_, n := binary.Uvarint(frame)
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.Checksum(frame[n:len(frame)-4], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(sealed, data, 0o600); err != nil {
		t.Fatal(err)
	}

	re := openVault(t, dir, vault.WithReadOnly())
	defer re.Close()
	if recs, err := re.QueryAll(vault.Query{Kind: evidence.KindNRRResp}); !errors.Is(err, vault.ErrSealBroken) {
		t.Fatalf("the receipt of an edited response origin reads as %d records, err %v, want ErrSealBroken", len(recs), err)
	}
	if recs, err := re.QueryAll(vault.Query{Run: later}); err != nil || len(recs) != 4 {
		t.Fatalf("a run in a later window reads as %d records, err %v", len(recs), err)
	}
}
