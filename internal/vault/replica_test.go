package vault_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

const sourceOrg = "urn:org:a"

// seedVault fills a vault with records across several sealed segments
// plus a few tail records, returning the records in order.
func seedVault(t testing.TB, realm *testpki.Realm, v *vault.Vault, n int) []*store.Record {
	t.Helper()
	run := id.NewRun()
	records := make([]*store.Record, 0, n)
	for i := 1; i <= n; i++ {
		rec, err := v.Append(store.Generated, newToken(t, realm, run, i), "sent")
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	return records
}

// shipAll packages every sealed segment of v into rs.
func shipAll(t testing.TB, v *vault.Vault, rs *vault.ReplicaSet) {
	t.Helper()
	for _, e := range v.Manifest() {
		pkg, err := v.Package(e.Segment)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Receive(sourceOrg, pkg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicaReceiveAndServe ships a vault's sealed segments to a replica
// store and serves them back as a read-only vault: records, indexes and
// deep verification must all match the source.
func TestReplicaReceiveAndServe(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v, err := vault.Open(dir, realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	records := seedVault(t, realm, v, 18)
	if err := v.SealNow(); err != nil {
		t.Fatalf("SealNow: %v", err)
	}
	if got := len(v.Manifest()); got != 5 {
		t.Fatalf("Manifest = %d entries, want 5 (4 full + 1 forced)", got)
	}

	rs, err := vault.OpenReplicaSet(filepath.Join(t.TempDir(), "replicas"))
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, v, rs)
	last, err := rs.LastSealed(sourceOrg)
	if err != nil || last != 5 {
		t.Fatalf("LastSealed = %d, %v", last, err)
	}
	sources, err := rs.Sources()
	if err != nil || len(sources) != 1 || sources[0] != sourceOrg {
		t.Fatalf("Sources = %v, %v", sources, err)
	}

	replica, err := vault.Open(rs.Dir(sourceOrg), realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := replica.DeepVerify(); err != nil {
		t.Fatalf("replica DeepVerify: %v", err)
	}
	got, err := replica.QueryAll(vault.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("replica holds %d records, want %d", len(got), len(records))
	}
	for i, rec := range got {
		if rec.Hash != records[i].Hash {
			t.Fatalf("record %d differs from source", i+1)
		}
	}
	// Keyed queries work off the replicated indexes.
	if byRun := replica.ByRun(records[0].Token.Run); len(byRun) != len(records) {
		t.Fatalf("replica ByRun = %d records, want %d", len(byRun), len(records))
	}

	// The resume cursor (the remote-audit paging primitive) yields only
	// the remainder, pruning sealed segments wholly behind it.
	tail, err := replica.QueryAll(vault.Query{AfterSeq: records[9].Seq})
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(records)-10 {
		t.Fatalf("AfterSeq query = %d records, want %d", len(tail), len(records)-10)
	}
	if len(tail) > 0 && tail[0].Seq != records[10].Seq {
		t.Fatalf("AfterSeq resumed at %d, want %d", tail[0].Seq, records[10].Seq)
	}
}

// TestReplicaFaultTaxonomy drives the replica acceptance rule through
// adversarial deliveries: duplicated, conflicting, out-of-order and
// tampered seg-* packages. Duplicates are idempotent; everything else is
// refused with the specific sentinel.
func TestReplicaFaultTaxonomy(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	seedVault(t, realm, v, 12)
	manifest := v.Manifest()
	if len(manifest) != 3 {
		t.Fatalf("Manifest = %d entries, want 3", len(manifest))
	}
	pkgOf := func(seg uint64) *vault.SegmentPackage {
		pkg, err := v.Package(seg)
		if err != nil {
			t.Fatal(err)
		}
		return pkg
	}

	cases := []struct {
		name string
		// deliver returns the error from the adversarial delivery into a
		// replica already holding segment 1.
		deliver func(rs *vault.ReplicaSet) error
		wantErr error
		wantOK  bool
	}{
		{
			name:    "duplicated envelope is idempotent",
			deliver: func(rs *vault.ReplicaSet) error { return rs.Receive(sourceOrg, pkgOf(1)) },
			wantOK:  true,
		},
		{
			name: "dropped envelope leaves a gap that is refused",
			deliver: func(rs *vault.ReplicaSet) error {
				return rs.Receive(sourceOrg, pkgOf(3)) // segment 2 was "dropped"
			},
			wantErr: vault.ErrReplicaGap,
		},
		{
			name: "tampered record bytes break the seal",
			deliver: func(rs *vault.ReplicaSet) error {
				pkg := pkgOf(2)
				pkg.Data[len(pkg.Data)/2] ^= 0x01
				return rs.Receive(sourceOrg, pkg)
			},
			wantErr: vault.ErrSealBroken,
		},
		{
			name: "tampered entry is refused",
			deliver: func(rs *vault.ReplicaSet) error {
				pkg := pkgOf(2)
				pkg.Entry.LastSeq++
				return rs.Receive(sourceOrg, pkg)
			},
			wantErr: vault.ErrSealBroken,
		},
		{
			name: "conflicting duplicate is refused",
			deliver: func(rs *vault.ReplicaSet) error {
				pkg := pkgOf(2)
				if err := rs.Receive(sourceOrg, pkg); err != nil {
					return err
				}
				// A different history for an already-accepted segment.
				forged := pkgOf(2)
				forged.Entry.Content = sig.Sum([]byte("forged"))
				return rs.Receive(sourceOrg, forged)
			},
			wantErr: vault.ErrSealBroken,
		},
		{
			name: "truncated segment bytes break the seal",
			deliver: func(rs *vault.ReplicaSet) error {
				pkg := pkgOf(2)
				pkg.Data = pkg.Data[:len(pkg.Data)*2/3]
				return rs.Receive(sourceOrg, pkg)
			},
			wantErr: vault.ErrSealBroken,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rs, err := vault.OpenReplicaSet(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.Receive(sourceOrg, pkgOf(1)); err != nil {
				t.Fatal(err)
			}
			err = tc.deliver(rs)
			if tc.wantOK {
				if err != nil {
					t.Fatalf("delivery failed: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("delivery error = %v, want %v", err, tc.wantErr)
			}
			// Whatever the adversary tried, the accepted prefix still
			// verifies.
			replica, oerr := vault.Open(rs.Dir(sourceOrg), realm.Clock, vault.WithReadOnly())
			if oerr != nil {
				t.Fatalf("reopen replica: %v", oerr)
			}
			defer replica.Close()
			if derr := replica.DeepVerify(); derr != nil {
				t.Fatalf("accepted prefix no longer verifies: %v", derr)
			}
		})
	}
}

// TestRestoreFromReplica is the disaster-recovery path: the primary's
// directory is destroyed and rebuilt from a peer's replica alone, byte
// and verdict identical for all sealed evidence.
func TestRestoreFromReplica(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v, err := vault.Open(dir, realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	seedVault(t, realm, v, 11)
	if err := v.SealNow(); err != nil {
		t.Fatal(err)
	}
	want, err := v.QueryAll(vault.Query{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := vault.OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, v, rs)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil { // the disaster
		t.Fatal(err)
	}

	restored, err := vault.Open(dir, realm.Clock, vault.WithRestoreFrom(rs.Dir(sourceOrg)))
	if err != nil {
		t.Fatalf("restore open: %v", err)
	}
	defer restored.Close()
	if err := restored.DeepVerify(); err != nil {
		t.Fatalf("restored vault DeepVerify: %v", err)
	}
	got, err := restored.QueryAll(vault.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("restored %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Hash != want[i].Hash {
			t.Fatalf("restored record %d differs", i+1)
		}
	}
	// The restored vault is a live primary again: appends chain onto the
	// restored history.
	if _, err := restored.Append(store.Generated, newToken(t, realm, id.NewRun(), 1), ""); err != nil {
		t.Fatalf("append after restore: %v", err)
	}
	if err := restored.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify after post-restore append: %v", err)
	}
}

// TestRestoreRetryAfterCrash: a restore that crashed after installing
// segment files but before the manifest-last write must be retryable —
// the stranded files are recognised as restore leftovers (byte copies of
// the replica), not refused as live tail records.
func TestRestoreRetryAfterCrash(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v, err := vault.Open(dir, realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	seedVault(t, realm, v, 8)
	rs, err := vault.OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, v, rs)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// First restore "crashes" after the segments landed: simulate by
	// restoring fully and deleting the manifest (it is written last).
	crashed, err := vault.Open(dir, realm.Clock, vault.WithRestoreFrom(rs.Dir(sourceOrg)))
	if err != nil {
		t.Fatal(err)
	}
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatal(err)
	}
	retried, err := vault.Open(dir, realm.Clock, vault.WithRestoreFrom(rs.Dir(sourceOrg)))
	if err != nil {
		t.Fatalf("restore retry after crash: %v", err)
	}
	defer retried.Close()
	if err := retried.DeepVerify(); err != nil {
		t.Fatalf("retried restore DeepVerify: %v", err)
	}
	if got := retried.Len(); got != 8 {
		t.Fatalf("retried restore Len = %d, want 8", got)
	}
}

// TestRestoreRejectsTamperedReplica: a peer presenting a doctored replica
// must not be able to smuggle it into a rebuilt primary.
func TestRestoreRejectsTamperedReplica(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v, err := vault.Open(dir, realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	seedVault(t, realm, v, 8)
	rs, err := vault.OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, v, rs)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	// The "peer" doctors its replica of segment 2 after the fact.
	seg2 := filepath.Join(rs.Dir(sourceOrg), "seg-00000002.log")
	data, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg2, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	_, err = vault.Open(dir, realm.Clock, vault.WithRestoreFrom(rs.Dir(sourceOrg)))
	if !errors.Is(err, vault.ErrSealBroken) {
		t.Fatalf("restore from tampered replica: err = %v, want ErrSealBroken", err)
	}
}

// TestRestoreRefusesExistingHistory: restore is recovery, not merging —
// a vault that still has records must be left alone.
func TestRestoreRefusesExistingHistory(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	srcDir := t.TempDir()
	v, err := vault.Open(srcDir, realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	seedVault(t, realm, v, 4)
	rs, err := vault.OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, v, rs)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// A vault with unsealed tail records refuses the restore...
	liveDir := t.TempDir()
	live, err := vault.Open(liveDir, realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	seedVault(t, realm, live, 2)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := vault.Open(liveDir, realm.Clock, vault.WithRestoreFrom(rs.Dir(sourceOrg))); err == nil {
		t.Fatal("restore over existing tail records succeeded")
	}

	// ...and a vault with sealed history ignores it (no-op, still opens).
	v2, err := vault.Open(srcDir, realm.Clock, vault.WithRestoreFrom(rs.Dir(sourceOrg)))
	if err != nil {
		t.Fatalf("reopen with restore option over sealed history: %v", err)
	}
	defer v2.Close()
	if got := v2.Len(); got != 4 {
		t.Fatalf("Len = %d after no-op restore, want 4", got)
	}
}

// TestReplicaManifestCrashRecovery simulates a receiver crash between
// segment install and manifest append: the re-shipped segment must be
// accepted idempotently and the replica converge.
func TestReplicaManifestCrashRecovery(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	seedVault(t, realm, v, 8)
	root := t.TempDir()
	rs, err := vault.OpenReplicaSet(root)
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, v, rs)

	// "Crash": the manifest loses its last line, as if the process died
	// after installing segment 2's files but before the manifest append
	// was acknowledged.
	manifest := filepath.Join(rs.Dir(sourceOrg), "MANIFEST")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	cut := 0
	for i, b := range data {
		if b == '\n' {
			lines++
			if lines == 1 {
				cut = i + 1
			}
		}
	}
	if lines != 2 {
		t.Fatalf("manifest has %d entries, want 2", lines)
	}
	if err := os.WriteFile(manifest, data[:cut], 0o600); err != nil {
		t.Fatal(err)
	}

	// A fresh ReplicaSet (post-crash process) sees segment 1 only and
	// accepts the re-shipped segment 2 over the orphaned files.
	rs2, err := vault.OpenReplicaSet(root)
	if err != nil {
		t.Fatal(err)
	}
	last, err := rs2.LastSealed(sourceOrg)
	if err != nil || last != 1 {
		t.Fatalf("post-crash LastSealed = %d, %v; want 1", last, err)
	}
	pkg, err := v.Package(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs2.Receive(sourceOrg, pkg); err != nil {
		t.Fatalf("re-ship after crash: %v", err)
	}
	replica, err := vault.Open(rs2.Dir(sourceOrg), realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := replica.DeepVerify(); err != nil {
		t.Fatalf("replica after crash recovery: %v", err)
	}
}
