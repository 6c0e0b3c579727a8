package vault_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"nonrep/internal/canon"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// runWindows reads run by key and reports the records and how many index
// windows the read decoded.
func runWindows(t *testing.T, v *vault.Vault, run id.Run) ([]*store.Record, int) {
	t.Helper()
	it := v.Query(vault.Query{Run: run})
	var recs []*store.Record
	for it.Next() {
		recs = append(recs, it.Record())
	}
	if err := it.Err(); err != nil {
		t.Fatalf("ByRun(%s): %v", run, err)
	}
	return recs, it.Windows()
}

// TestVaultAlignedRunsReadOneWindow: under the version-4 index a run of
// four records from seq 4k+1 is read by decoding one window wherever the
// seals fall. The vault is sealed after seqs 15, 31 and 40, so the
// segments after the first start on a run's last record; only the two
// runs a seal cuts decode two windows, one in each segment. Under the
// version-3 index of v7-vault, sealed after seqs 11 and 23, both runs
// wholly inside segment 2 decode two.
func TestVaultAlignedRunsReadOneWindow(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir)
	var runs []id.Run
	for i := 0; i < 10; i++ {
		run := id.NewRun()
		var entries []store.Entry
		for step := 1; step <= 4; step++ {
			entries = append(entries, store.Entry{Dir: store.Generated, Token: newToken(t, realm, run, step), Note: "sent"})
		}
		cut := 4
		if (i+1)*4%16 == 0 {
			cut = 3
		}
		for _, group := range [][]store.Entry{entries[:cut], entries[cut:]} {
			if len(group) == 0 {
				continue
			}
			if _, err := v.AppendGroup(group); err != nil {
				t.Fatal(err)
			}
			if last, _ := v.LastPosition(); last%16 == 15 || last == 40 {
				if err := v.SealNow(); err != nil {
					t.Fatal(err)
				}
			}
		}
		runs = append(runs, run)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	ro := openVault(t, dir, vault.WithReadOnly())
	defer ro.Close()
	if st := ro.Stats(); st.Segments != 3 || st.TailRecords != 0 {
		t.Fatalf("vault shape = %+v, want three sealed segments", st)
	}
	for i, run := range runs {
		want := 1
		if i == 3 || i == 7 {
			want = 2
		}
		recs, windows := runWindows(t, ro, run)
		if len(recs) != 4 || recs[0].Seq != uint64(4*i+1) || windows != want {
			t.Errorf("run %d: %d records, %d windows decoded, want 4 from seq %d in %d", i, len(recs), windows, 4*i+1, want)
		}
	}

	fixture, fruns := copyFixtureVault(t, v7Vault.name)
	old := openVault(t, fixture, vault.WithReadOnly())
	defer old.Close()
	for i, r := range fruns[3:5] {
		if recs, windows := runWindows(t, old, r.Run); len(recs) != 4 || windows != 2 {
			t.Errorf("v7-vault run %d: %d records, %d windows decoded, want 4 in 2", i+3, len(recs), windows)
		}
	}
}

// TestVaultUnknownIndexFormatRefused: a seal naming an index format this
// build does not know — one a later build wrote — is refused by name
// with ErrIndexVersion on writable and read-only opens alike, before
// anything of the segment is read: the segment's files are gone, and the
// verdict still names the format, never a broken seal.
func TestVaultUnknownIndexFormatRefused(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir)
	seedVault(t, realm, v, 6)
	if err := v.SealNow(); err != nil {
		t.Fatal(err)
	}
	seedVault(t, realm, v, 2)
	entries := v.Manifest()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	var manifest []byte
	var prev sig.Digest
	for i := range entries {
		e := entries[i]
		if i == 0 {
			e.IndexFormat = 5
		}
		e.Prev, e.Digest = prev, sig.Digest{}
		d, err := sig.SumCanonical(&e)
		if err != nil {
			t.Fatal(err)
		}
		e.Digest, prev = d, d
		line, err := canon.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		manifest = append(append(manifest, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), manifest, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{segFileName(1), idxFileName(1)} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, opts := range [][]vault.Option{nil, {vault.WithReadOnly()}} {
		v, err := vault.Open(dir, nil, opts...)
		if err == nil {
			v.Close()
		}
		if !errors.Is(err, vault.ErrIndexVersion) || errors.Is(err, vault.ErrSealBroken) {
			t.Fatalf("open (%d options) over a seal of index format 5: %v, want ErrIndexVersion", len(opts), err)
		}
	}
}
