package vault_test

import (
	"context"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"nonrep/internal/feed"
	"nonrep/internal/id"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// v8Vault is v7Vault's records as the build that introduced segment
// format 8 sealed them: the same seqs, sealed after 11 and 23 under
// version-4 indexes; every run's opening frame but each file's first
// takes its parties, service, key id and time from that first frame, and
// every frame that elides its Prev elides its seq too.
var v8Vault = fixtureVault{name: "v8-vault", enc: store.EncBinaryV8, sealed: 2, tail: 1, sealedSeq: 23, lastSeq: 24}

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

// TestVaultV8VaultTakesV9Appends: v8-vault opened for writing by this
// build seals its format-8 tail as it stands and appends after it in
// format 9, across commits and a seal. The vault verifies deep; every
// run, of either format, reads back by key; a feed cursor opened inside
// the format-8 records delivers through the boundary without a gap; and a
// replica that receives every sealed segment, of both formats, verifies
// and serves the same records.
func TestVaultV8VaultTakesV9Appends(t *testing.T) {
	t.Parallel()
	checkTakesAppends(t, v8Vault)
}

// checkTakesAppends: the fixture vault fx opened for writing by this build
// seals its tail as it stands and appends after it in the current format,
// across commits and a seal. The vault verifies deep; every run, of
// either format, reads back by key; a feed cursor opened inside the
// fixture's records delivers through the boundary without a gap; and a
// replica that receives every sealed segment, of both formats, verifies
// and serves the same records.
func checkTakesAppends(t *testing.T, fx fixtureVault) {
	dir, runs := copyFixtureVault(t, fx.name)
	realm := testpki.MustRealm(org, peerOrg)
	v := openVault(t, dir)
	defer v.Close()
	fresh := []id.Run{id.NewRun(), id.NewRun(), id.NewRun()}
	for i, run := range fresh {
		for _, e := range stepGroup(t, realm, run) {
			if _, err := v.AppendGroup([]store.Entry{e}); err != nil {
				t.Fatal(err)
			}
		}
		if i == 1 {
			if err := v.SealNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sizes, err := v.Sizes()
	if err != nil {
		t.Fatal(err)
	}
	var formats []string
	for _, s := range sizes {
		formats = append(formats, s.Format)
	}
	old := fx.enc.String()
	if want := []string{old, old, old, "binary", "binary"}; !slices.Equal(formats, want) {
		t.Fatalf("segments in formats %v, want %v", formats, want)
	}
	checkFixtureVault(t, "after appends in the current format", v, runs)
	for _, run := range fresh {
		if recs, err := v.QueryAll(vault.Query{Run: run}); err != nil || len(recs) != 3 {
			t.Fatalf("run %s: %d records, err %v", run, len(recs), err)
		}
	}
	all, err := v.QueryAll(vault.Query{})
	if err != nil || len(all) != int(fx.lastSeq)+3*len(fresh) {
		t.Fatalf("%d records, err %v", len(all), err)
	}

	// A cursor resumed two records before the fixture's head.
	from := all[fx.lastSeq-3]
	got := make(chan []*store.Record, 16)
	cur, err := feed.Open(v, feed.Config{AfterSeq: from.Seq, AfterHash: from.Hash, Sink: func(e feed.Event) error {
		got <- e.Records
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- cur.Run(ctx) }()
	var delivered []*store.Record
	for len(delivered) < len(all)-int(from.Seq) {
		select {
		case recs := <-got:
			delivered = append(delivered, recs...)
		case err := <-done:
			t.Fatalf("cursor ended after %d records: %v", len(delivered), err)
		}
	}
	cancel()
	<-done
	sameRecords(t, "cursor across the formats", all[from.Seq:], delivered)

	rs, err := vault.OpenReplicaSet(filepath.Join(t.TempDir(), "replicas"))
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, v, rs)
	replica := openVault(t, rs.Dir(sourceOrg), vault.WithReadOnly())
	defer replica.Close()
	if err := replica.DeepVerify(); err != nil {
		t.Fatal(err)
	}
	sealed := replica.Stats().LastSeq
	back, err := replica.QueryAll(vault.Query{})
	if err != nil || sealed != fx.lastSeq+6 {
		t.Fatalf("replica holds %d records to seq %d, err %v", len(back), sealed, err)
	}
	sameRecords(t, "replica across the formats", all[:sealed], back)
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
