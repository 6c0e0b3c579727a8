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

// v5Vault was written by the build before segment format 6, as the server
// of a pipelined pair logs five calls: per run its {NRO received, NRR,
// NROResp generated} group, the receipt and the response origin signed
// with one batch signature, and the client's receipt in a commit of its
// own; two sealed segments of eight records, a four-record version-5
// tail in segment 3.
var v5Vault = fixtureVault{name: "v5-vault", enc: store.EncBinaryV5, sealed: 2, tail: 4, sealedSeq: 16, lastSeq: 20}

// TestVaultV5VaultStillReads: a vault the build before format 6 wrote —
// each batch signature stored twice — reads as checkStillReads says.
func TestVaultV5VaultStillReads(t *testing.T) {
	t.Parallel()
	checkStillReads(t, v5Vault)
}

// TestVaultV5TailSealedAsItStands: a version-5 tail is sealed as
// checkTailSealedAsItStands says.
func TestVaultV5TailSealedAsItStands(t *testing.T) {
	t.Parallel()
	checkTailSealedAsItStands(t, v5Vault)
}

// pairedGroup is the evidence of one step of a pipelined invocation, as
// the server or the client of the run logs it: the server signs its
// receipt and its response origin with one batch signature, so the two
// tokens sit side by side in both vaults.
func pairedGroup(t testing.TB, realm *testpki.Realm, run id.Run, server bool) []store.Entry {
	t.Helper()
	opts := []evidence.IssueOption{evidence.WithRecipients(peerOrg), evidence.WithService("urn:org:a/orders")}
	pair, err := realm.Party(org).Issuer.IssueBatch([]evidence.TokenRequest{
		{Kind: evidence.KindNRR, Run: run, Step: 2, Digest: sig.Sum([]byte("request")), Opts: opts},
		{Kind: evidence.KindNROResp, Run: run, Step: 3, Digest: sig.Sum([]byte("response")), Opts: opts},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pair[1].Signature.BatchPath) == 0 || !pair[1].MatesWith(pair[0]) {
		t.Fatal("the pair is not signed as sibling leaves of one batch")
	}
	peer := func(kind evidence.Kind, step int, what string) *evidence.Token {
		tok, err := realm.Party(peerOrg).Issuer.Issue(kind, run, step, sig.Sum([]byte(what)), evidence.WithRecipients(org))
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	if server {
		return []store.Entry{
			{Dir: store.Received, Token: peer(evidence.KindNRO, 1, "request"), Note: "request origin"},
			{Dir: store.Generated, Token: pair[0], Note: "request receipt"},
			{Dir: store.Generated, Token: pair[1], Note: "response origin (ok)"},
		}
	}
	return []store.Entry{
		{Dir: store.Received, Token: pair[0], Note: "request receipt"},
		{Dir: store.Received, Token: pair[1], Note: "response origin (ok)"},
		{Dir: store.Generated, Token: peer(evidence.KindNRRResp, 4, "receipt"), Note: "response receipt (consumed)"},
	}
}

// TestVaultSignatureMatesOnDisk: a vault whose commits are a server's and
// a client's paired groups stores each response origin borrowing its
// signature — from a follower on the server's side, from the leader on
// the client's — and every read surface returns the records appended,
// each token still verifying.
func TestVaultSignatureMatesOnDisk(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org, peerOrg)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(6))
	var all []*store.Record
	for i := 0; i < 4; i++ {
		recs, err := v.AppendGroup(pairedGroup(t, realm, id.NewRun(), i%2 == 0))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, recs...)
	}
	check := func(what string, v *vault.Vault) {
		t.Helper()
		if err := v.DeepVerify(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got, err := v.QueryAll(vault.Query{})
		if err != nil {
			t.Fatalf("%s: scan: %v", what, err)
		}
		sameRecords(t, what+": scan", all, got)
		keyed, err := v.QueryAll(vault.Query{Kind: evidence.KindNROResp})
		if err != nil || len(keyed) != 4 {
			t.Fatalf("%s: keyed read of the borrowers = %d records, err %v, want 4", what, len(keyed), err)
		}
		for _, rec := range keyed {
			if err := realm.Verifier().Verify(rec.Token); err != nil {
				t.Fatalf("%s: record %d does not verify: %v", what, rec.Seq, err)
			}
		}
	}
	check("live", v)
	sizes, err := v.Sizes()
	if err != nil || len(sizes) != 2 {
		t.Fatalf("Sizes = %+v, err %v", sizes, err)
	}
	for _, s := range sizes {
		if s.Format != "binary" || s.SigBorrowers != 2 || s.Followers != 4 || s.SigBorrowerBytes*2 >= s.FollowerBytes {
			t.Fatalf("segment %d reported as %+v, want two of four followers borrowing, each well under the others", s.Segment, s)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	check("reopened", openVault(t, dir, vault.WithReadOnly()))
}

// TestVaultEditedMateBreaksBorrowerRead: what a frame borrows from its
// mate is authenticated with it. An attacker who edits the signature
// bytes of a sealed mate and fixes its checksum up changes the signature
// the borrower decodes to, so the keyed read of the borrower alone still
// fails the hash the seal pins.
func TestVaultEditedMateBreaksBorrowerRead(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org, peerOrg)
	for _, server := range []bool{true, false} {
		dir := t.TempDir()
		v := openVault(t, dir, vault.WithSegmentRecords(3))
		run := id.NewRun()
		group := pairedGroup(t, realm, run, server)
		if _, err := v.AppendGroup(group); err != nil {
			t.Fatal(err)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		sealed := filepath.Join(dir, segFileName(1))
		good, err := os.ReadFile(sealed)
		if err != nil {
			t.Fatal(err)
		}
		offs := frameOffsets(t, good)
		mate := 1 // the receipt, a follower, on the server's side
		if !server {
			mate = 0 // the leader on the client's
		}
		forged := append([]byte(nil), good...)
		frame := forged[offs[mate]:offs[mate+1]]
		at := bytes.Index(frame, group[mate].Token.Signature.Bytes)
		if at < 0 || bytes.Contains(good[offs[2]:offs[3]], group[mate].Token.Signature.Bytes) {
			t.Fatalf("server=%v: the mate does not spell the shared signature, or the borrower does", server)
		}
		frame[at] ^= 1
		_, w := binary.Uvarint(frame)
		binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.Checksum(frame[w:len(frame)-4], crc32.MakeTable(crc32.Castagnoli)))
		for name, image := range map[string][]byte{"untouched": good, "edited mate": forged} {
			if err := os.WriteFile(sealed, image, 0o600); err != nil {
				t.Fatal(err)
			}
			re := openVault(t, dir, vault.WithReadOnly())
			recs, err := re.QueryAll(vault.Query{Run: run, Kind: evidence.KindNROResp})
			switch {
			case name == "untouched" && (err != nil || len(recs) != 1):
				t.Fatalf("server=%v: keyed read of the borrower = %d records, err %v", server, len(recs), err)
			case name == "edited mate" && !errors.Is(err, vault.ErrSealBroken):
				t.Fatalf("server=%v: keyed read of the borrower after its mate was edited = %d records, err %v, want ErrSealBroken", server, len(recs), err)
			}
			re.Close()
		}
	}
}

// TestSizesRefusesDamagedSegment: a sealed segment a flipped byte has
// made unreadable past some frame is reported as an error, not as a
// segment with fewer records of each kind.
func TestSizesRefusesDamagedSegment(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org, peerOrg)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(4))
	for i := 0; i < 4; i++ {
		if _, err := v.AppendGroup(pairedGroup(t, realm, id.NewRun(), true)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Sizes(); err != nil {
		t.Fatalf("Sizes of the intact vault: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	sealed := filepath.Join(dir, segFileName(1))
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(sealed, data, 0o600); err != nil {
		t.Fatal(err)
	}
	ro := openVault(t, dir, vault.WithReadOnly())
	defer ro.Close()
	if sizes, err := ro.Sizes(); err == nil {
		t.Fatalf("Sizes of a damaged segment = %+v, want an error", sizes)
	}
}
