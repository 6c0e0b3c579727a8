package vault_test

import (
	"path/filepath"
	"testing"

	"nonrep/internal/clock"
	"nonrep/internal/store"
	"nonrep/internal/vault"
)

// v9Vault is v8Vault's records as the build that introduced segment
// format 9 sealed them: the same seqs, sealed after 11 and 23 under
// version-4 indexes; every frame that leans on another takes its signer
// from it, and its parties the same or mirrored.
var v9Vault = fixtureVault{name: "v9-vault", enc: store.EncBinaryV9, sealed: 2, tail: 1, sealedSeq: 23, lastSeq: 24}

// reappend appends the records of the fixture vault src, one commit
// each, in order and at their time, to a fresh vault in a new directory,
// sealed where src was — after seqs 11 and 23 — and closed.
func reappend(t *testing.T, src string) string {
	t.Helper()
	from := openVault(t, filepath.Join("testdata", src), vault.WithReadOnly())
	recs, err := from.QueryAll(vault.Query{})
	from.Close()
	if err != nil || len(recs) != int(v9Vault.lastSeq) {
		t.Fatalf("%s: %d records, err %v", src, len(recs), err)
	}
	dir := t.TempDir()
	v, err := vault.Open(dir, clock.NewManual(recs[0].At))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := v.AppendGroup([]store.Entry{{Dir: rec.Direction, Token: rec.Token, Note: rec.Note}}); err != nil {
			t.Fatal(err)
		}
		if rec.Seq == 11 || rec.Seq == v9Vault.sealedSeq {
			if err := v.SealNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestVaultV9VaultStillReads: a vault sealed in segment format 9 reads as
// checkStillReads says; Sizes counts the frames that take their signer
// from their lender and how their parties travel, and the segments take
// fewer bytes than v8-vault's.
func TestVaultV9VaultStillReads(t *testing.T) {
	t.Parallel()
	checkStillReads(t, v9Vault)
	sizesOf := func(fx fixtureVault) []vault.SegmentSize {
		dir, _ := copyFixtureVault(t, fx.name)
		v := openVault(t, dir, vault.WithReadOnly())
		defer v.Close()
		sizes, err := v.Sizes()
		if err != nil {
			t.Fatal(err)
		}
		return sizes
	}
	v8, v9 := sizesOf(v8Vault), sizesOf(v9Vault)
	for i, s := range v9 {
		// Every follower and every plain frame with a party source takes
		// its parties whole, the same or mirrored, and its signer.
		lent := s.Followers + s.PartyBorrowers
		whole := s.Plain.Parties[store.PartiesSame] + s.Plain.Parties[store.PartiesMirrored] +
			s.Follow.Parties[store.PartiesSame] + s.Follow.Parties[store.PartiesMirrored]
		if whole != lent || s.Plain.Signers+s.Follow.Signers != lent-s.SigBorrowers || s.Plain.Parties[store.PartiesSpelled] != s.Records-lent {
			t.Fatalf("segment %d: %d frames lean on another, %d take their parties whole; plain %+v, followers %+v",
				s.Segment, lent, whole, s.Plain, s.Follow)
		}
		if s.Records > 1 && s.SegmentBytes >= v8[i].SegmentBytes-8*int64(s.Records) {
			t.Fatalf("segment %d takes %d bytes, %d in format 8: want at least 8 a record saved", s.Segment, s.SegmentBytes, v8[i].SegmentBytes)
		}
	}
}
