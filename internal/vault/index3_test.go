package vault_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// v6Vault was written by the build that introduced index format 3, as
// the server of a pipelined pair logs six calls: per run its {NRO
// received, NRR, NROResp generated} group — the response origin
// borrowing the receipt's batch signature — and the client's receipt in
// a commit of its own, every second run under a transaction; segments of
// 11 and 12 records sealed under version-3 indexes (one pinned hash per
// four records, the last window of segment 1 three records long, runs
// straddling windows in segment 2), a one-record tail in segment 3.
var v6Vault = fixtureVault{name: "v6-vault", enc: store.EncBinaryV6, sealed: 2, tail: 1, sealedSeq: 23, lastSeq: 24}

// v7Vault was written by the build before index format 4, as v6Vault —
// the same six pipelined calls, sealed after seqs 11 and 23 — but in
// segment format 7, the client's receipt a follower of its run's leader
// from an earlier commit; its version-3 windows count from each
// segment's first record, so segment 2 (seqs 12 to 23) splits every run
// between two windows.
var v7Vault = fixtureVault{name: "v7-vault", enc: store.EncBinaryV7, sealed: 2, tail: 1, sealedSeq: 23, lastSeq: 24}

// TestVaultV6VaultStillReads: a vault sealed under version-3 indexes
// reads as checkStillReads says — its replica derives the same index
// bytes.
func TestVaultV6VaultStillReads(t *testing.T) {
	t.Parallel()
	checkStillReads(t, v6Vault)
}

// TestVaultV7VaultStillReads: a vault sealed in segment format 7 under
// version-3 indexes, its runs straddling windows, reads as
// checkStillReads says — its replica derives the same index bytes.
func TestVaultV7VaultStillReads(t *testing.T) {
	t.Parallel()
	checkStillReads(t, v7Vault)
}

// TestVaultOldIndexesKeptAndRebuiltExactly: opening a vault an earlier
// build sealed, for writing, leaves every index file it holds byte for
// byte as it was — version-2, version-3 and JSON alike — though this
// build seals under version 4; and a lost version-2 or version-3 index
// is rebuilt under its old seal to exactly the bytes the earlier build
// wrote.
func TestVaultOldIndexesKeptAndRebuiltExactly(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"parent-vault", "v2-vault", "v3-vault", "v4-vault", "v5-vault", "v6-vault", "v7-vault"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir, runs := copyFixtureVault(t, name)
			old := make(map[string][]byte)
			var binary []string
			for n := uint64(1); ; n++ {
				data, err := os.ReadFile(filepath.Join(dir, idxFileName(n)))
				if os.IsNotExist(err) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				old[idxFileName(n)] = data
				if bytes.HasPrefix(data, []byte("NRX\x02")) || bytes.HasPrefix(data, []byte("NRX\x03")) {
					binary = append(binary, idxFileName(n))
				}
			}
			if len(binary) == 0 {
				t.Fatal("fixture holds no version-2 or version-3 index")
			}
			unchanged := func(what string) {
				t.Helper()
				for file, want := range old {
					if got, err := os.ReadFile(filepath.Join(dir, file)); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: %s is not the earlier build's bytes (err %v)", what, file, err)
					}
				}
			}
			reopen := func(what string) {
				t.Helper()
				v := openVault(t, dir)
				checkFixtureVault(t, what, v, runs)
				if err := v.Close(); err != nil {
					t.Fatal(err)
				}
				unchanged(what)
			}
			reopen("reopened")
			for _, file := range binary {
				if err := os.Remove(filepath.Join(dir, file)); err != nil {
					t.Fatal(err)
				}
			}
			reopen("rebuilt")
		})
	}
}

// TestVaultEditInWindowBreaksItsRuns: a keyed read authenticates a whole
// window of four records against the one hash pinned for it. An edit
// inside record 4w+1 — its signature, the checksum fixed up — makes the
// keyed read of every run with a record in window w fail with
// ErrSealBroken, however few of its records lie there; runs wholly in
// other windows still read in full.
func TestVaultEditInWindowBreaksItsRuns(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(16))
	// Positions: a 0-2, b 3-4, c 5-8, d 9, e 10-12, f 13-15; windows
	// [0,4) [4,8) [8,12) [12,16).
	sizes := []int{3, 2, 4, 1, 3, 3}
	var runs []id.Run
	var toks []*evidence.Token
	for _, n := range sizes {
		run := id.NewRun()
		for step := 1; step <= n; step++ {
			tok := newToken(t, realm, run, step)
			if _, err := v.Append(store.Generated, tok, "note"); err != nil {
				t.Fatal(err)
			}
			toks = append(toks, tok)
		}
		runs = append(runs, run)
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
	if len(offs) != 17 {
		t.Fatalf("segment 1 holds %d frames, want 16", len(offs)-1)
	}
	const w, edited = 1, 5 // record 4w+1
	frame := data[offs[edited]:offs[edited+1]]
	at := bytes.Index(frame, toks[edited].Signature.Bytes)
	if at < 0 {
		t.Fatal("test setup: the frame does not spell its signature")
	}
	frame[at] ^= 1
	_, n := binary.Uvarint(frame)
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.Checksum(frame[n:len(frame)-4], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(sealed, data, 0o600); err != nil {
		t.Fatal(err)
	}

	re := openVault(t, dir, vault.WithReadOnly())
	defer re.Close()
	first := 0
	for i, run := range runs {
		last := first + sizes[i] - 1
		inWindow := first/4 <= w && w <= last/4
		recs, err := re.QueryAll(vault.Query{Run: run})
		switch {
		case inWindow && !errors.Is(err, vault.ErrSealBroken):
			t.Errorf("run at %d-%d, window %d edited: %d records, err %v, want ErrSealBroken", first, last, w, len(recs), err)
		case !inWindow && (err != nil || len(recs) != sizes[i]):
			t.Errorf("run at %d-%d, window %d edited: %d records, err %v, want %d", first, last, w, len(recs), err, sizes[i])
		}
		first = last + 1
	}
}

// TestSizesRefusesUnreadableIndex: an index file that exists but cannot
// be read is an error, not a segment without an index. Before that, the
// index this build seals over four records is measured from the file:
// 666 B under one pinned hash and one offset, where an offset per record
// took 678 and a pin and an offset per record 774.
func TestSizesRefusesUnreadableIndex(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(4))
	defer v.Close()
	seedVault(t, realm, v, 6)
	idx := filepath.Join(dir, idxFileName(1))
	fi, err := os.Stat(idx)
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := v.Sizes()
	if err != nil || len(sizes) != 2 || sizes[0].IndexFormat != "binary" || sizes[0].IndexBytes != fi.Size() || fi.Size() != 666 {
		t.Fatalf("Sizes = %+v, err %v, index file %d B, want a sealed segment under a 666 B index", sizes, err, fi.Size())
	}
	if err := os.Remove(idx); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(idx, 0o700); err != nil {
		t.Fatal(err)
	}
	if sizes, err := v.Sizes(); err == nil || !strings.Contains(err.Error(), idxFileName(1)) {
		t.Fatalf("Sizes over an unreadable index = %+v, err %v, want an error naming it", sizes, err)
	}
}

// TestSizesNamesIndexVersions: Sizes names each sealed segment's index
// version, takes its size from the file, and says what its pins and its
// offsets take — a hash and an offset per record under the version-2
// indexes every build before index format 3 sealed; a hash per four
// records counted from the segment's first and an offset per record
// under version 3; and under the version-4 index this build seals a
// hash and an offset per window counted from the vault's sequence
// numbers, a segment sealed after seq 4k+3 starting with a one-record
// window.
func TestSizesNamesIndexVersions(t *testing.T) {
	t.Parallel()
	type want struct {
		index         string
		pins, offsets int64
	}
	check := func(what, dir string, sealed, segments int, wantOf func(s vault.SegmentSize) want) {
		t.Helper()
		ro := openVault(t, dir, vault.WithReadOnly())
		sizes, err := ro.Sizes()
		ro.Close()
		if err != nil || len(sizes) != segments {
			t.Fatalf("%s: Sizes = %+v, err %v", what, sizes, err)
		}
		for _, s := range sizes[:sealed] {
			fi, err := os.Stat(filepath.Join(dir, idxFileName(s.Segment)))
			if err != nil || s.IndexBytes != fi.Size() {
				t.Fatalf("%s: segment %d index reported as %d B, file %v (err %v)", what, s.Segment, s.IndexBytes, fi, err)
			}
			if w := wantOf(s); s.IndexFormat != w.index || s.PinBytes != w.pins || s.OffsetBytes != w.offsets {
				t.Fatalf("%s: segment %d index reported as %s pinning %d bytes, offsets %d, want %s pinning %d, offsets %d",
					what, s.Segment, s.IndexFormat, s.PinBytes, s.OffsetBytes, w.index, w.pins, w.offsets)
			}
		}
	}
	for _, fx := range []fixtureVault{v3Vault, v4Vault, v5Vault, v6Vault, v7Vault} {
		dir, _ := copyFixtureVault(t, fx.name)
		check(fx.name, dir, fx.sealed, fx.sealed+1, func(s vault.SegmentSize) want {
			n := int64(s.Records)
			if fx == v6Vault || fx == v7Vault {
				return want{"binary-v3", 32 * ((n + 3) / 4), 4 * n}
			}
			return want{"binary-v2", 32 * n, 4 * n}
		})
	}
	// This build's: sealed after seqs 7 and 15, with no tail after (Sizes
	// leaves out an empty one); segment 2 spans the windows [5,8] [9,12]
	// [13,16] — three, where counting from its first record would make two.
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir)
	for _, n := range []int{7, 8} {
		seedVault(t, realm, v, n)
		if err := v.SealNow(); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	check("this build", dir, 2, 2, func(s vault.SegmentSize) want {
		windows := map[uint64]int64{1: 2, 2: 3}[s.Segment]
		return want{"binary", 32 * windows, 4 * windows}
	})

	// The hex pins and offsets of a legacy JSON index are not counted.
	dir, _ = copyFixtureVault(t, "parent-vault")
	ro := openVault(t, dir, vault.WithReadOnly())
	sizes, err := ro.Sizes()
	ro.Close()
	if err != nil {
		t.Fatal(err)
	}
	jsonIndexes := 0
	for _, s := range sizes {
		if s.IndexFormat == "json" {
			jsonIndexes++
			if s.PinBytes != 0 || s.OffsetBytes != 0 || s.IndexBytes == 0 {
				t.Fatalf("parent-vault: segment %d JSON index of %d B reported pinning %d bytes, offsets %d", s.Segment, s.IndexBytes, s.PinBytes, s.OffsetBytes)
			}
		}
	}
	if jsonIndexes == 0 {
		t.Fatalf("parent-vault: no JSON index among %+v", sizes)
	}
}
