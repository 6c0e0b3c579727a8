package vault_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"nonrep/internal/clock"
	"nonrep/internal/id"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// v8Vault is v7Vault's records as the build that introduced segment
// format 8 seals them: the same seqs, sealed after 11 and 23 under
// version-4 indexes; every run's opening frame but each file's first
// takes its parties, service, key id and time from that first frame, and
// every frame that elides its Prev elides its seq too.
var v8Vault = fixtureVault{name: "v8-vault", enc: store.EncBinary, sealed: 2, tail: 1, sealedSeq: 23, lastSeq: 24}

// TestVaultV8VaultStillReads: a vault sealed in segment format 8 reads as
// checkStillReads says, and Sizes counts the opening frames that take
// their parties from a party source.
func TestVaultV8VaultStillReads(t *testing.T) {
	t.Parallel()
	checkStillReads(t, v8Vault)
	dir, _ := copyFixtureVault(t, v8Vault.name)
	v := openVault(t, dir, vault.WithReadOnly())
	defer v.Close()
	sizes, err := v.Sizes()
	if err != nil {
		t.Fatal(err)
	}
	// Segment 1 opens three runs, segment 2 four: the first frame of each
	// file spells its parties out, and the tail's one record is its file's
	// first.
	for i, want := range []int{2, 3, 0} {
		if s := sizes[i]; s.PartyBorrowers != want || (want > 0 && s.PartyBorrowerBytes >= 160*int64(want)) {
			t.Fatalf("segment %d: %d plain frames take their parties in %d bytes, want %d under 160 bytes each", s.Segment, s.PartyBorrowers, s.PartyBorrowerBytes, want)
		}
	}
}

// TestVaultV8VaultIsThisBuilds: v7-vault's records, appended one commit
// each, in order and at their time, to a fresh vault sealed where
// v7-vault was — after seqs 11 and 23 — come out as testdata/v8-vault
// byte for byte: manifest, segments, indexes and tail. The fixture is
// what this build writes, not only what it reads.
func TestVaultV8VaultIsThisBuilds(t *testing.T) {
	t.Parallel()
	src := openVault(t, filepath.Join("testdata", "v7-vault"), vault.WithReadOnly())
	recs, err := src.QueryAll(vault.Query{})
	src.Close()
	if err != nil || len(recs) != int(v8Vault.lastSeq) {
		t.Fatalf("v7-vault: %d records, err %v", len(recs), err)
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
		if rec.Seq == 11 || rec.Seq == v8Vault.sealedSeq {
			if err := v.SealNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join("testdata", v8Vault.name)
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

// TestVaultPartySourcesAcrossCommits: runs committed one write at a time
// open with frames that take their parties from the first run's, however
// many commits lie between, until the ring no longer holds it; every run
// reads back by key — its leader's source parsed beside its leader — and
// the sealed vault verifies.
func TestVaultPartySourcesAcrossCommits(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org, peerOrg)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(64))
	const runs = 20
	ids := make([]id.Run, runs)
	for i := range ids {
		ids[i] = id.NewRun()
		for _, e := range stepGroup(t, realm, ids[i]) {
			if _, err := v.AppendGroup([]store.Entry{e}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := v.SealNow(); err != nil {
		t.Fatal(err)
	}
	sizes, err := v.Sizes()
	if err != nil || len(sizes) != 1 {
		t.Fatalf("Sizes = %+v, err %v", sizes, err)
	}
	// Runs 1 to 16 take their parties from run 0's opening frame; run 17's
	// no longer finds it among the last 16 plain frames and spells them
	// out, and runs 18 and 19 take theirs from it.
	if s := sizes[0]; s.Format != "binary" || s.PartyBorrowers != runs-2 || s.Followers != 2*runs {
		t.Fatalf("segment reported as %+v, want %d plain frames taking their parties and %d followers", s, runs-2, 2*runs)
	}
	for i, run := range ids {
		recs, err := v.QueryAll(vault.Query{Run: run})
		if err != nil || len(recs) != 3 {
			t.Fatalf("run %d: %d records, err %v", i, len(recs), err)
		}
	}
	if err := v.DeepVerify(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
}
