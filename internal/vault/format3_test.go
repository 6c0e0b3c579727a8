package vault_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"nonrep/internal/canon"
	"nonrep/internal/id"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// frameOffsets returns where each frame of a binary segment starts, plus
// the end of the last.
func frameOffsets(t testing.TB, data []byte) []int64 {
	t.Helper()
	offs := []int64{store.SegmentHeaderLen}
	if _, _, _, err := store.DecodeSegmentData(data, func(_ *store.Record, n int64) error {
		offs = append(offs, offs[len(offs)-1]+n)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return offs
}

// TestVaultV1TailSealedAsItStands rolls the parent-vault fixture back to
// what the build before segment format 2 left — four legacy seals and a
// version-1 tail — and opens it with this build: the tail is sealed as
// it stands, never extended or rewritten, and the next record starts a
// current-format segment.
func TestVaultV1TailSealedAsItStands(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir, _ := copyParentVault(t)
	for _, name := range []string{idxFileName(5), segFileName(6), idxFileName(6), segFileName(7)} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(manifest, []byte("\n"))
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), bytes.Join(lines[:4], nil), 0o600); err != nil {
		t.Fatal(err)
	}
	before := dirDigests(t, dir)
	delete(before, "MANIFEST") // append-only: grows

	v := openVault(t, dir, vault.WithSegmentRecords(3))
	defer v.Close()
	if st := v.Stats(); st.Segments != 5 || st.TailRecords != 0 || st.LastSeq != 12 {
		t.Fatalf("after sealing the version-1 tail: %+v", st)
	}
	run := appendRun(t, realm, v, 1)
	sameFiles(t, "sealing a version-1 tail", before, dirDigests(t, dir))
	for seg, want := range map[uint64]store.Encoding{5: store.EncBinaryV1, 6: store.EncBinary} {
		data, err := os.ReadFile(filepath.Join(dir, segFileName(seg)))
		if err != nil {
			t.Fatal(err)
		}
		if got := store.DetectEncoding(data); got != want {
			t.Fatalf("segment %d is %v, want %v", seg, got, want)
		}
	}
	if err := v.DeepVerify(); err != nil {
		t.Fatal(err)
	}
	if got := len(v.ByRun(run)); got != 1 {
		t.Fatalf("ByRun = %d records, want 1", got)
	}
}

// TestVaultTailBitFlipFailsOpen: nothing pins the derived hashes of the
// unsealed tail, so a frame's checksum is what stands between bit rot
// and a silently different record — a flipped bit anywhere in a tail
// frame's body makes Open refuse the vault, writable or read-only.
func TestVaultTailBitFlipFailsOpen(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir)
	appendRun(t, realm, v, 3)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	tail := filepath.Join(dir, segFileName(1))
	good, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, good)
	_, prefixLen := binary.Uvarint(good[offs[1]:])
	for at := offs[1] + int64(prefixLen); at < offs[2]; at += 5 {
		rotted := append([]byte(nil), good...)
		rotted[at] ^= 0x04
		if err := os.WriteFile(tail, rotted, 0o600); err != nil {
			t.Fatal(err)
		}
		for _, opts := range [][]vault.Option{nil, {vault.WithReadOnly()}} {
			re, err := vault.Open(dir, realm.Clock, opts...)
			if err == nil {
				re.Close()
				t.Fatalf("vault opened with byte %d of a tail frame flipped", at-offs[1])
			}
			if !errors.Is(err, canon.ErrBinary) {
				t.Fatalf("open with byte %d of a tail frame flipped = %v, want ErrBinary", at-offs[1], err)
			}
		}
	}
	if err := os.WriteFile(tail, good, 0o600); err != nil {
		t.Fatal(err)
	}
	re := openVault(t, dir)
	defer re.Close()
	if st := re.Stats(); st.TailRecords != 3 {
		t.Fatalf("restored tail holds %d records, want 3", st.TailRecords)
	}
}

// TestVaultEditedSealedFrameBreaksSeal: an attacker who edits a sealed
// frame's body and fixes up its checksum gets past the frame decoder —
// and nowhere else. The record's derived hash no longer matches the hash
// the seal pins, so a keyed read, a scan and a deep verify all report a
// broken seal and serve nothing.
func TestVaultEditedSealedFrameBreaksSeal(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(4))
	run := id.NewRun()
	for i := 1; i <= 4; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), "free-text note"); err != nil {
			t.Fatal(err)
		}
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
	// Rewrite the note of the third frame (one that elides its Prev) and
	// recompute the frame's checksum.
	forged := append([]byte(nil), good...)
	frame := forged[offs[2]:offs[3]]
	at := bytes.Index(frame, []byte("free-text"))
	if at < 0 {
		t.Fatal("frame does not spell its note")
	}
	copy(frame[at:], "fake")
	_, w := binary.Uvarint(frame)
	body := frame[w : len(frame)-4]
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if _, _, _, err := store.DecodeSegmentData(forged, func(*store.Record, int64) error { return nil }); err != nil {
		t.Fatalf("the forgery does not get past the frame decoder (%v): the test proves nothing", err)
	}
	if err := os.WriteFile(sealed, forged, 0o600); err != nil {
		t.Fatal(err)
	}
	re := openVault(t, dir, vault.WithReadOnly())
	defer re.Close()
	if recs, err := re.QueryAll(vault.Query{Run: run}); !errors.Is(err, vault.ErrSealBroken) {
		t.Fatalf("keyed read over the forged frame = %d records, err %v, want ErrSealBroken", len(recs), err)
	}
	if recs, err := re.QueryAll(vault.Query{}); !errors.Is(err, vault.ErrSealBroken) || len(recs) != 0 {
		t.Fatalf("scan over the forged frame = %d records, err %v, want none and ErrSealBroken", len(recs), err)
	}
	if err := re.DeepVerify(); !errors.Is(err, vault.ErrSealBroken) {
		t.Fatalf("DeepVerify over the forged frame = %v, want ErrSealBroken", err)
	}
}

// TestReceiveTailReplacesVersion2TailFile: a replica that holds a tail
// file the parent build's pushes started (version-2 frames) does not
// extend it with frames of this format — the next push replaces the file
// atomically with a current-format one holding every acknowledged
// record — and the seal that later covers part of it rebases the rest.
func TestReceiveTailReplacesVersion2TailFile(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir, _ := copyParentVault(t)
	root := filepath.Join(t.TempDir(), "replicas")
	rs, err := vault.OpenReplicaSet(root)
	if err != nil {
		t.Fatal(err)
	}
	ro := openVault(t, dir, vault.WithReadOnly())
	shipAll(t, ro, rs) // six sealed segments
	ro.Close()
	v2Tail, err := os.ReadFile(filepath.Join(dir, segFileName(7)))
	if err != nil {
		t.Fatal(err)
	}
	replicaTail := filepath.Join(rs.Dir(sourceOrg), segFileName(7))
	if err := os.WriteFile(replicaTail, v2Tail, 0o600); err != nil {
		t.Fatal(err)
	}
	// A restarted replica host finds the file; the source, now running
	// this build, seals its own tail and pushes what it appends next.
	if rs, err = vault.OpenReplicaSet(root); err != nil {
		t.Fatal(err)
	}
	if seq, err := rs.AckedSeq(sourceOrg); err != nil || seq != 17 {
		t.Fatalf("replica with a version-2 tail acknowledges %d, err %v, want 17", seq, err)
	}
	v := openVault(t, dir, vault.WithSegmentRecords(8))
	defer v.Close()
	var fresh []*store.Record
	run := id.NewRun()
	for i := 1; i <= 2; i++ {
		rec, err := v.Append(store.Generated, newToken(t, realm, run, i), "request origin")
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, rec)
	}
	if seq, err := rs.ReceiveTail(sourceOrg, fresh); err != nil || seq != 19 {
		t.Fatalf("ReceiveTail onto a version-2 tail = %d, err %v, want 19", seq, err)
	}
	replaced, err := os.ReadFile(replicaTail)
	if err != nil {
		t.Fatal(err)
	}
	if enc := store.DetectEncoding(replaced); enc != store.EncBinary {
		t.Fatalf("tail file after the push is %v, want the current format", enc)
	}
	if _, err := os.Stat(replicaTail + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary tail file left behind: %v", err)
	}
	replica := openVault(t, rs.Dir(sourceOrg), vault.WithReadOnly())
	if st := replica.Stats(); st.Segments != 6 || st.TailRecords != 4 || st.LastSeq != 19 {
		t.Fatalf("replica after the push: %+v", st)
	}
	if err := replica.DeepVerify(); err != nil {
		t.Fatal(err)
	}
	replica.Close()

	// The source's seal of segment 7 — the version-2 bytes, as they stood
	// — covers records 16-17; 18-19 move on to the next tail file.
	pkg, err := v.Package(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pkg.Data, v2Tail) {
		t.Fatal("the source sealed something other than the version-2 tail as it stood")
	}
	if err := rs.Receive(sourceOrg, pkg); err != nil {
		t.Fatal(err)
	}
	replica = openVault(t, rs.Dir(sourceOrg), vault.WithReadOnly())
	defer replica.Close()
	if st := replica.Stats(); st.Segments != 7 || st.TailRecords != 2 || st.LastSeq != 19 {
		t.Fatalf("replica after the seal shipped: %+v", st)
	}
	if err := replica.DeepVerify(); err != nil {
		t.Fatal(err)
	}
}
