package vault_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nonrep/internal/blob"
	"nonrep/internal/evidence"
	"nonrep/internal/feed"
	"nonrep/internal/georep"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// appendRun appends n records for a fresh run and returns it.
func appendRun(t *testing.T, realm *testpki.Realm, v *vault.Vault, n int) id.Run {
	t.Helper()
	run := id.NewRun()
	for i := 1; i <= n; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), "note"); err != nil {
			t.Fatal(err)
		}
	}
	return run
}

// parentVaultRun is one run of the checked-in parent vault (RUNS.json).
type parentVaultRun struct {
	Run     id.Run `json:"run"`
	Txn     id.Txn `json:"txn"`
	Records int    `json:"records"`
}

// copyParentVault copies testdata/parent-vault — a vault written by the
// two builds before this one. The build before segment format 2 left
// JSON segments 1-2 and version-1 binary segments 3-4, all with JSON
// indexes and legacy seals, plus a two-record version-1 tail in segment
// 5 (12 records); the build before format 3 then opened it — sealing
// that tail as it stood — and appended five records: version-2 segment
// 6 and a two-record version-2 tail in segment 7 (17 records in all, its
// files from the earlier build untouched). The copy lands in a fresh
// directory and is returned with the runs it holds.
func copyParentVault(t testing.TB) (string, []parentVaultRun) {
	t.Helper()
	return copyFixtureVault(t, "parent-vault")
}

// copyFixtureVault copies a checked-in vault of testdata into a fresh
// directory and returns it with the runs its RUNS.json names.
func copyFixtureVault(t testing.TB, name string) (string, []parentVaultRun) {
	t.Helper()
	src := filepath.Join("testdata", name)
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var runs []parentVaultRun
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == "RUNS.json" {
			if err := json.Unmarshal(data, &runs); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dir, runs
}

// dirDigests maps each regular file under dir (LOCK aside) to the digest
// of its contents.
func dirDigests(t testing.TB, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || !fi.Mode().IsRegular() || fi.Name() == "LOCK" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		sum := sha256.Sum256(data)
		out[rel] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameFiles fails unless every file of before is present and unchanged
// in after (after may hold more).
func sameFiles(t testing.TB, what string, before, after map[string]string) {
	t.Helper()
	for name, d := range before {
		if after[name] != d {
			t.Fatalf("%s: %s was rewritten or removed", what, name)
		}
	}
}

func firstByte(t testing.TB, path string) byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		t.Fatalf("read %s: %v", path, err)
	}
	return data[0]
}

// TestVaultMixedEncodings grows a vault the previous builds wrote into
// one holding every format a vault can hold — JSON, version-1, version-2
// and current binary segments; JSON indexes under legacy seals, a rebuilt
// binary index under a legacy seal, and binary indexes under current
// seals — without rewriting a byte the previous builds wrote, and holds
// the result to every integrity and read surface: DeepVerify, keyed and
// paged queries, provenance, a live subscription with resume, seg-ship
// to a replica, restore from the replica, and the archive tier round
// trip.
func TestVaultMixedEncodings(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir, parentRuns := copyParentVault(t)
	written := dirDigests(t, dir)

	// Read-only first: everything the old build wrote is readable, and
	// nothing on disk moves.
	ro, err := vault.Open(dir, realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatalf("read-only open of the parent build's vault: %v", err)
	}
	if err := ro.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify of the parent build's vault: %v", err)
	}
	if st := ro.Stats(); st.Segments != 6 || st.TailRecords != 2 || st.LastSeq != 17 {
		t.Fatalf("parent vault shape = %+v", st)
	}
	for _, pr := range parentRuns {
		if got := len(ro.ByRun(pr.Run)); got != pr.Records {
			t.Fatalf("parent vault ByRun(%s) = %d records, want %d", pr.Run, got, pr.Records)
		}
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if after := dirDigests(t, dir); len(after) != len(written) {
		t.Fatalf("read-only open changed the directory: %d -> %d files", len(written), len(after))
	} else {
		sameFiles(t, "read-only open", written, after)
	}

	// Lose one legacy index: the open below rebuilds it in the binary
	// format, still held to the legacy seal's canonical-JSON digest.
	if err := os.Remove(filepath.Join(dir, "seg-00000003.idx")); err != nil {
		t.Fatal(err)
	}
	delete(written, "seg-00000003.idx")
	// The manifest is append-only: what was there stays as a prefix.
	oldManifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	delete(written, "MANIFEST")

	// This build, default options: the version-2 tail is sealed as it
	// stands (segment 7), new records go to a current-format segment.
	v := openVault(t, dir, vault.WithSegmentRecords(3))
	runV3 := appendRun(t, realm, v, 4) // seals segment 8, leaves one record in 9
	txn := id.NewTxn()
	runTxn := id.NewRun()
	for i := 1; i <= 2; i++ {
		tok, err := realm.Party(org).Issuer.Issue(evidence.KindNRR, runTxn, i, sig.Sum([]byte("linked")),
			evidence.WithTxn(txn), evidence.WithRecipients("urn:org:b"), evidence.WithService("urn:org:a/orders"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Append(store.Received, tok, ""); err != nil {
			t.Fatal(err)
		}
	}
	defer v.Close() // segment 9 sealed by its third record; tail empty
	sameFiles(t, "growing the vault", written, dirDigests(t, dir))
	if grown, _ := os.ReadFile(filepath.Join(dir, "MANIFEST")); !bytes.HasPrefix(grown, oldManifest) {
		t.Fatal("growing the vault rewrote existing manifest entries")
	}

	manifest := v.Manifest()
	if len(manifest) != 9 {
		t.Fatalf("sealed segments = %d, want 9", len(manifest))
	}
	wantSeg := []store.Encoding{store.EncJSON, store.EncJSON, store.EncBinaryV1, store.EncBinaryV1,
		store.EncBinaryV1, store.EncBinaryV2, store.EncBinaryV2, store.EncBinary, store.EncBinary}
	for i, e := range manifest {
		data, err := os.ReadFile(filepath.Join(dir, segFileName(e.Segment)))
		if err != nil {
			t.Fatal(err)
		}
		if got := store.DetectEncoding(data); got != wantSeg[i] {
			t.Fatalf("segment %d is %v, want %v", e.Segment, got, wantSeg[i])
		}
		idx := firstByte(t, filepath.Join(dir, idxFileName(e.Segment)))
		legacySeal := e.Segment <= 4
		if wantJSON := legacySeal && e.Segment != 3; (idx == '{') != wantJSON {
			t.Fatalf("segment %d index starts with %q (legacy seal: %v)", e.Segment, idx, legacySeal)
		}
		if (e.IndexFormat == 0) != legacySeal {
			t.Fatalf("segment %d sealed with index format %d", e.Segment, e.IndexFormat)
		}
	}

	// Integrity and read surfaces across every boundary.
	checkMixed := func(what string, v *vault.Vault) {
		t.Helper()
		if err := v.DeepVerify(); err != nil {
			t.Fatalf("%s: DeepVerify: %v", what, err)
		}
		all := testpki.Query(t, v, store.Query{})
		if len(all) != 23 {
			t.Fatalf("%s: Records = %d, want 23", what, len(all))
		}
		if err := store.VerifyRecords(all); err != nil {
			t.Fatalf("%s: VerifyRecords: %v", what, err)
		}
		want := map[id.Run]int{runV3: 4, runTxn: 2}
		for _, pr := range parentRuns {
			want[pr.Run] = pr.Records
		}
		for run, n := range want {
			if got := len(v.ByRun(run)); got != n {
				t.Fatalf("%s: ByRun(%s) = %d records, want %d", what, run, got, n)
			}
		}
		if got := len(testpki.Query(t, v, store.Query{Txn: txn})); got != 2 {
			t.Fatalf("%s: ByTxn(current era) = %d, want 2", what, got)
		}
		if got := len(testpki.Query(t, v, store.Query{Txn: parentRuns[2].Txn})); got != 4 {
			t.Fatalf("%s: ByTxn(version-1 era) = %d, want 4", what, got)
		}
		if got := len(testpki.Query(t, v, store.Query{Txn: parentRuns[4].Txn})); got != 1 {
			t.Fatalf("%s: ByTxn(version-2 era) = %d, want 1", what, got)
		}
		// Paging by party walks every segment format behind a cursor.
		var paged, cursor uint64
		for {
			page, err := v.QueryAll(vault.Query{Party: org, AfterSeq: cursor, Limit: 5})
			if err != nil {
				t.Fatalf("%s: paged query: %v", what, err)
			}
			if len(page) == 0 {
				break
			}
			for _, rec := range page {
				if rec.Seq != cursor+1 {
					t.Fatalf("%s: paged query skipped from %d to %d", what, cursor, rec.Seq)
				}
				cursor = rec.Seq
			}
			paged += uint64(len(page))
		}
		if paged != 23 {
			t.Fatalf("%s: paged query returned %d records, want 23", what, paged)
		}
		if got, err := v.QueryAll(vault.Query{Kind: evidence.KindNRR, Party: org}); err != nil || len(got) != 7 {
			t.Fatalf("%s: kind+party query = %d records, err %v, want 7", what, len(got), err)
		}
		g, err := v.Provenance(parentRuns[2].Run)
		if err != nil || len(g.Tokens) != 4 || len(g.Txns) != 1 || len(g.Parties) != 2 {
			t.Fatalf("%s: provenance of a parent-era run = %+v, err %v", what, g, err)
		}
	}
	checkMixed("grown vault", v)

	// A live subscription backfills through every format, is killed, and
	// resumes at exactly the next record.
	hub := feed.NewHub(v, nil)
	defer hub.Close()
	var mu sync.Mutex
	var seen []uint64
	collect := func(ev feed.Event) error {
		mu.Lock()
		defer mu.Unlock()
		for _, rec := range ev.Records {
			seen = append(seen, rec.Seq)
		}
		return nil
	}
	waitSeen := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			got := len(seen)
			mu.Unlock()
			if got >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("subscription delivered %d of %d records", got, n)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	sub, err := hub.Subscribe(feed.Config{Sink: collect})
	if err != nil {
		t.Fatal(err)
	}
	waitSeen(23)
	pos, posHash := sub.Position()
	sub.Close()
	<-sub.Done()
	runLive := appendRun(t, realm, v, 2)
	sub, err = hub.Subscribe(feed.Config{AfterSeq: pos, AfterHash: posHash, Sink: collect})
	if err != nil {
		t.Fatalf("resume at %d: %v", pos, err)
	}
	waitSeen(25)
	sub.Close()
	<-sub.Done()
	for i, seq := range seen {
		if seq != uint64(i+1) {
			t.Fatalf("feed delivered record %d at position %d (gap or duplicate)", seq, i+1)
		}
	}
	if got := len(v.ByRun(runLive)); got != 2 {
		t.Fatalf("ByRun(live) = %d, want 2", got)
	}
	// The two live records stay in the unsealed tail, which does not
	// travel: the shipping checks below see the 23 sealed records.

	// Replication ships every kind of segment; the replica re-verifies
	// each against the shared seal chain and derives the same indexes.
	rs, err := vault.OpenReplicaSet(filepath.Join(t.TempDir(), "replicas"))
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, v, rs)
	for _, e := range manifest {
		if e.IndexFormat == 0 {
			continue // legacy seals: the replica's index is a fresh binary one
		}
		src, err := os.ReadFile(filepath.Join(dir, idxFileName(e.Segment)))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := os.ReadFile(filepath.Join(rs.Dir(sourceOrg), idxFileName(e.Segment)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(src, dst) {
			t.Fatalf("segment %d: replica derived a different index file", e.Segment)
		}
	}
	replica, err := vault.Open(rs.Dir(sourceOrg), realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatalf("open mixed replica: %v", err)
	}
	checkMixed("replica", replica)
	replica.Close()

	// A wiped primary restores the mixed history from the replica.
	restored, err := vault.Open(t.TempDir(), realm.Clock, vault.WithRestoreFrom(rs.Dir(sourceOrg)))
	if err != nil {
		t.Fatalf("restore from mixed replica: %v", err)
	}
	checkMixed("restored from replica", restored)
	restored.Close()

	// The archive tier takes every kind of segment and gives back a vault.
	ctx := context.Background()
	arch := georep.NewArchive(blob.NewMem())
	for _, e := range manifest {
		pkg, err := v.Package(e.Segment)
		if err != nil {
			t.Fatal(err)
		}
		if err := arch.Put(ctx, sourceOrg, pkg); err != nil {
			t.Fatalf("archive segment %d: %v", e.Segment, err)
		}
	}
	fromArchive := t.TempDir()
	if n, err := arch.RestoreInto(ctx, fromArchive, sourceOrg); err != nil || n != len(manifest) {
		t.Fatalf("restore from archive installed %d segments, err %v", n, err)
	}
	archived, err := vault.Open(fromArchive, realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	checkMixed("restored from archive", archived)
	archived.Close()
}

// TestVaultReopenLeavesDirectoryUnchanged: opening a cleanly closed vault
// — for writing or read-only — and closing it again writes nothing. The
// benchmark harness's vault cache and every backup tool that compares
// directory digests depend on it.
func TestVaultReopenLeavesDirectoryUnchanged(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(4))
	seedVault(t, realm, v, 10)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirDigests(t, dir)
	for _, opts := range [][]vault.Option{
		{vault.WithSegmentRecords(4)},
		{vault.WithSegmentRecords(4), vault.WithReadOnly()},
	} {
		re := openVault(t, dir, opts...)
		if got := len(testpki.Query(t, re, store.Query{})); got != 10 {
			t.Fatalf("reopened vault holds %d records, want 10", got)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		after := dirDigests(t, dir)
		if len(after) != len(before) {
			t.Fatalf("reopen changed the directory: %d -> %d files", len(before), len(after))
		}
		sameFiles(t, "reopen", before, after)
	}
}

// TestVaultCrashRecoveryCurrentFormat kills a vault (close is a faithful
// crash: it writes nothing) and damages what a crash or bit rot can
// damage: a torn final frame in the tail, a torn index file, a
// bit-flipped index and a bit-flipped sealed frame.
func TestVaultCrashRecoveryCurrentFormat(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(4))
	run := id.NewRun()
	for i := 1; i <= 10; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), "note"); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	idx1 := filepath.Join(dir, idxFileName(1))
	idx2 := filepath.Join(dir, idxFileName(2))
	goodIdx1, err := os.ReadFile(idx1)
	if err != nil {
		t.Fatal(err)
	}
	goodIdx2, err := os.ReadFile(idx2)
	if err != nil {
		t.Fatal(err)
	}

	// Torn tail frame: the last (Prev-eliding) frame loses its final bytes.
	tail := filepath.Join(dir, segFileName(3))
	tailData, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tail, tailData[:len(tailData)-7], 0o600); err != nil {
		t.Fatal(err)
	}
	// Torn index: cut inside the hash array. Bit-flipped index: one bit
	// of the last posting list.
	if err := os.WriteFile(idx1, goodIdx1[:len(goodIdx1)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), goodIdx2...)
	flipped[len(flipped)-1] ^= 0x01
	if err := os.WriteFile(idx2, flipped, 0o600); err != nil {
		t.Fatal(err)
	}

	// Read-only: recovered in memory, the damage left as found.
	ro := openVault(t, dir, vault.WithReadOnly())
	if got := len(ro.ByRun(run)); got != 9 {
		t.Fatalf("read-only ByRun after damage = %d records, want 9", got)
	}
	if err := ro.DeepVerify(); err != nil {
		t.Fatalf("read-only DeepVerify after damage: %v", err)
	}
	ro.Close()
	if got, _ := os.ReadFile(idx2); !bytes.Equal(got, flipped) {
		t.Fatal("read-only open repaired an index file")
	}

	// Read-write: the torn frame is truncated away and both indexes are
	// rebuilt from their sealed segments, byte for byte what the seal
	// wrote.
	re := openVault(t, dir, vault.WithSegmentRecords(4))
	if st := re.Stats(); st.Segments != 2 || st.TailRecords != 1 || st.LastSeq != 9 {
		t.Fatalf("after torn tail: %+v, want 2 segments + 1 tail record", st)
	}
	if got := len(re.ByRun(run)); got != 9 {
		t.Fatalf("ByRun after recovery = %d records, want 9", got)
	}
	if err := re.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify after recovery: %v", err)
	}
	for path, want := range map[string][]byte{idx1: goodIdx1, idx2: goodIdx2} {
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("%s was not rebuilt to the sealed bytes", filepath.Base(path))
		}
	}
	// The log continues from the verified prefix, chaining across the cut.
	if _, err := re.Append(store.Generated, newToken(t, realm, run, 10), "again"); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Bit rot inside a sealed frame: flip one bit of each byte of the
	// second frame of segment 1 in turn (a frame that elides its Prev).
	// Whatever the bit was — a flag, a length, the signature, the hash —
	// the keyed read must report a broken seal and serve nothing.
	sealed := filepath.Join(dir, segFileName(1))
	good, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	off := int64(store.SegmentHeaderLen)
	if _, _, _, err := store.DecodeSegmentData(good, func(_ *store.Record, n int64) error {
		offs = append(offs, off)
		off += n
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for at := offs[1]; at < offs[2]; at += 3 {
		rotted := append([]byte(nil), good...)
		rotted[at] ^= 0x10
		if err := os.WriteFile(sealed, rotted, 0o600); err != nil {
			t.Fatal(err)
		}
		re := openVault(t, dir, vault.WithReadOnly())
		recs, err := re.QueryAll(vault.Query{Run: run})
		re.Close()
		if !errors.Is(err, vault.ErrSealBroken) {
			t.Fatalf("keyed read with byte %d of a sealed frame flipped = %d records, err %v, want ErrSealBroken", at-offs[1], len(recs), err)
		}
	}
}

// segFileName and idxFileName mirror the vault's file naming for test
// inspection.
func segFileName(n uint64) string { return fmt.Sprintf("seg-%08d.log", n) }
func idxFileName(n uint64) string { return fmt.Sprintf("seg-%08d.idx", n) }
