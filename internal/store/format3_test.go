package store_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/v10 (golden.jsonl and golden-v10.seg): the testdata/v9 records and freshly issued ones")

// goldenV2 reads the frozen version-2 segment — written by the build
// before format 3, every record kind, two encoder runs (so explicit and
// elided Prev), vocabulary, free-text and empty notes — and the
// canonical JSON of each of its records.
func goldenV2(t *testing.T) (data []byte, lines [][]byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "v2", "golden-v2.seg"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "v2", "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return data, bytes.Split(bytes.TrimSpace(golden), []byte("\n"))
}

// scanGolden decodes a segment and holds every record to the canonical
// JSON it was written from (hash included: the derived hash must be the
// one the writer chained), returning the records and frame offsets (one
// more than records: the end).
func scanGolden(t *testing.T, what string, data []byte, want [][]byte, wantEnc store.Encoding) ([]*store.Record, []int64) {
	t.Helper()
	var recs []*store.Record
	offs := []int64{store.SegmentHeaderLen}
	cv := &store.ChainVerifier{}
	enc, prefix, torn, err := store.DecodeSegmentData(data, func(rec *store.Record, n int64) error {
		got, err := canon.Marshal(rec)
		if err != nil {
			return err
		}
		if i := len(recs); i >= len(want) || !bytes.Equal(got, want[i]) {
			t.Fatalf("%s record %d: canonical projection drifted:\n got %s", what, i, got)
		}
		recs = append(recs, rec)
		offs = append(offs, offs[len(offs)-1]+n)
		return cv.Advance(rec)
	})
	if err != nil || torn || enc != wantEnc || prefix != int64(len(data)) || len(recs) != len(want) {
		t.Fatalf("%s scan: %d of %d records enc=%v prefix=%d torn=%v err=%v", what, len(recs), len(want), enc, prefix, torn, err)
	}
	return recs, offs
}

// encodeTwoRuns lays records out as the version-2 and version-3 golden
// segments are — two encoder runs, as a segment reopened half way — in
// the current format.
func encodeTwoRuns(t *testing.T, recs []*store.Record) []byte {
	t.Helper()
	hdr := store.SegmentHeader()
	seg := append([]byte(nil), hdr[:]...)
	half := len(recs) / 2
	for _, part := range [][]*store.Record{recs[:half], recs[half:]} {
		var enc store.RecordEncoder
		for _, rec := range part {
			var err error
			if seg, err = enc.AppendRecord(seg, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return seg
}

// TestBinaryV2SegmentStillDecodes reads a version-2 segment written by
// the parent build (testdata/v2): nothing encodes that layout any more,
// and everything written in it must stay readable — scanned, by keyed
// slot, and re-encoded forward — with its stored hashes held to the
// derived ones.
func TestBinaryV2SegmentStillDecodes(t *testing.T) {
	t.Parallel()
	data, want := goldenV2(t)
	if enc := store.DetectEncoding(data); enc != store.EncBinaryV2 || enc.String() != "binary-v2" {
		t.Fatalf("fixture detected as %v", enc)
	}
	recs, offs := scanGolden(t, "v2", data, want, store.EncBinaryV2)

	// Keyed access, as a sealed version-2 segment is read.
	for i, rec := range recs {
		var prev *sig.Digest
		if i > 0 {
			prev = &recs[i-1].Hash
		}
		dec, err := store.DecodeRecordData(data, offs[i], offs[i+1], store.EncBinaryV2, recs[i].Seq, prev, prevAt(offs, i))
		if err != nil {
			t.Fatalf("keyed decode of v2 record %d: %v", i, err)
		}
		checkSameRecord(t, fmt.Sprintf("keyed v2 record %d", i), rec, dec)
	}

	// A stored hash that is not the digest of the frame's content is a
	// broken chain at decode, whoever reads; so is an edited body under
	// an intact stored hash.
	for _, at := range []int64{offs[3] - 1, offs[2] + 12} {
		bad := append([]byte(nil), data...)
		bad[at] ^= 0x01
		if _, _, _, err := store.DecodeSegmentData(bad, func(*store.Record, int64) error { return nil }); !errors.Is(err, store.ErrChainBroken) && !errors.Is(err, canon.ErrBinary) {
			t.Fatalf("v2 frame with byte %d flipped = %v, want a decode failure", at, err)
		}
	}

	// Re-encoded in the current format the same records come back with
	// the same hashes, each frame at least 28 bytes smaller (32 of hash
	// for 4 of checksum) and vocabulary notes one byte.
	cur := encodeTwoRuns(t, recs)
	if saved, floor := len(data)-len(cur), (sig.DigestSize-4)*len(recs); saved <= floor {
		t.Fatalf("the current format saves %d bytes over format 2 on %d records, want more than %d", saved, len(recs), floor)
	}
	again, _ := scanGolden(t, "re-encoded", cur, want, store.EncBinary)
	for i := range recs {
		checkSameRecord(t, fmt.Sprintf("re-encoded record %d", i), recs[i], again[i])
	}

	// Version 2 is the subset of versions 3 to 7 with their flag bits
	// clear: the old frames read under those headers, the new ones are
	// refused under the old.
	for _, ver := range []struct {
		version byte
		enc     store.Encoding
	}{{3, store.EncBinaryV3}, {7, store.EncBinaryV7}} {
		relabelled := append([]byte(nil), data...)
		relabelled[3] = ver.version
		scanGolden(t, fmt.Sprintf("v2 frames under a version-%d header", ver.version), relabelled, want, ver.enc)
	}
	asV2 := append([]byte(nil), cur...)
	asV2[3] = 2
	if _, _, _, err := store.DecodeSegmentData(asV2, func(*store.Record, int64) error { return nil }); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("current frames under a v2 header = %v, want ErrBinary", err)
	}
}

// TestBinaryV3SegmentStillDecodes reads the frozen version-3 segment —
// the records of the version-2 fixture as the build before format 4
// encoded them (testdata/v3, every frame self-contained): nothing
// encodes that layout any more, and everything written in it must stay
// readable — scanned, by keyed slot, and re-encoded forward.
func TestBinaryV3SegmentStillDecodes(t *testing.T) {
	t.Parallel()
	_, want := goldenV2(t)
	frozen, err := os.ReadFile(filepath.Join("testdata", "v3", "golden-v3.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if enc := store.DetectEncoding(frozen); enc != store.EncBinaryV3 || enc.String() != "binary-v3" {
		t.Fatalf("fixture detected as %v", enc)
	}
	recs, offs := scanGolden(t, "v3", frozen, want, store.EncBinaryV3)
	for i, rec := range recs {
		var prev *sig.Digest
		if i > 0 {
			prev = &recs[i-1].Hash
		}
		dec, err := store.DecodeRecordData(frozen, offs[i], offs[i+1], store.EncBinaryV3, recs[i].Seq, prev, prevAt(offs, i))
		if err != nil {
			t.Fatalf("keyed decode of v3 record %d: %v", i, err)
		}
		checkSameRecord(t, fmt.Sprintf("keyed v3 record %d", i), rec, dec)
	}

	// Version 3 is version 4 without followers: its frames read under the
	// headers up to version 7 (version 8 reads a frame's seq only beside
	// its Prev). The fixture's records are of one run, so this build
	// writes all but the first of each encoder run as followers — fewer
	// bytes, the same records — and a version-3 header refuses those.
	asV7 := append([]byte(nil), frozen...)
	asV7[3] = 7
	scanGolden(t, "v3 frames under a version-7 header", asV7, want, store.EncBinaryV7)
	cur := encodeTwoRuns(t, recs)
	if len(cur) >= len(frozen) {
		t.Fatalf("the current format takes %d bytes, version 3 took %d", len(cur), len(frozen))
	}
	again, _ := scanGolden(t, "re-encoded", cur, want, store.EncBinary)
	for i := range recs {
		checkSameRecord(t, fmt.Sprintf("re-encoded record %d", i), recs[i], again[i])
	}
	asV3 := append([]byte(nil), cur...)
	asV3[3] = 3
	if _, _, _, err := store.DecodeSegmentData(asV3, func(*store.Record, int64) error { return nil }); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("follower frames under a v3 header = %v, want ErrBinary", err)
	}
}

// v3Frame wraps a frame body (everything between the length prefix and
// the checksum) as a version-3 frame.
func v3Frame(body []byte) []byte {
	body = binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// frameBody is the inverse of v3Frame, on a copy.
func frameBody(frame []byte) []byte {
	_, w := binary.Uvarint(frame)
	return append([]byte(nil), frame[w:len(frame)-4]...)
}

// Flag bits of a frame body's first byte, as binary.go defines them.
const (
	fNote, fNoteCode, fDerived = 0x04, 0x20, 0x40
)

// frameSet is one well-formed stand-alone frame and what is derived
// from it.
type frameSet struct {
	rec     *store.Record // note "request origin"
	control []byte        // rec's frame
	code    int           // index of the note code in control's body
	// elided is the well-formed frame of the record after rec: it elides
	// its Prev, so it decodes only given rec's hash.
	elided []byte
	// hostile are the frames the version-3 decoder must refuse. Each
	// keeps a valid length prefix and — but for "bad checksum" — a valid
	// checksum, so the refusal is the decoder's, not the checksum's.
	hostile map[string][]byte
}

func hostileFrames(tb testing.TB) frameSet {
	tb.Helper()
	realm := testpki.MustRealm(org)
	tok, err := realm.Party(org).Issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("format 3")))
	if err != nil {
		tb.Fatal(err)
	}
	at := time.Unix(1754600000, 0).UTC()
	rec, err := store.NextRecord(0, sig.Digest{}, at, store.Generated, tok, "request origin")
	if err != nil {
		tb.Fatal(err)
	}
	// The next record is of another run, so its frame is plain; the
	// encoder is cut before it, so it spells out its parties.
	other, err := realm.Party(org).Issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("format 3")))
	if err != nil {
		tb.Fatal(err)
	}
	next, err := store.NextRecord(rec.Seq, rec.Hash, at, store.Received, other, "request receipt")
	if err != nil {
		tb.Fatal(err)
	}
	control, err := store.AppendRecordBinary(nil, rec)
	if err != nil {
		tb.Fatal(err)
	}
	var enc store.RecordEncoder
	if _, err := enc.AppendRecord(nil, rec); err != nil {
		tb.Fatal(err)
	}
	enc.Cut()
	elided, err := enc.AppendRecord(nil, next)
	if err != nil {
		tb.Fatal(err)
	}
	// The note code is the one body byte that moves when only the note
	// does.
	renoted := *rec
	renoted.Note = "request receipt"
	renotedFrame, err := store.AppendRecordBinary(nil, &renoted)
	if err != nil {
		tb.Fatal(err)
	}
	body, code := frameBody(control), -1
	for i, b := range frameBody(renotedFrame) {
		if b != body[i] {
			code = i
			break
		}
	}
	if code < 0 || body[code] != 1 {
		tb.Fatalf("note code not found in the control frame (at %d)", code)
	}
	mutate := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), body...)
		fn(b)
		return v3Frame(b)
	}
	badCRC := append([]byte(nil), control...)
	badCRC[len(badCRC)-1] ^= 0x01
	return frameSet{rec: rec, control: control, code: code, elided: elided, hostile: map[string][]byte{
		"bad checksum":                           badCRC,
		"note code 0":                            mutate(func(b []byte) { b[code] = 0 }),
		"note code past the vocabulary":          mutate(func(b []byte) { b[code] = 200 }),
		"note-code bit without a note":           mutate(func(b []byte) { b[0] &^= fNote }),
		"follower bit, stand-alone":              mutate(func(b []byte) { b[0] |= 0x80 }),
		"checksum only":                          {4, 0, 0, 0, 0},
		"empty body":                             {0},
		"hash-less, elided Prev, no predecessor": elided,
	}}
}

// TestBinaryFrameRefusals pins what the frame decoder refuses and what
// it reads: bad checksums, reserved and misplaced flag bits, note
// codes outside the vocabulary, orphaned hash-less frames, and stored
// hashes that are not the derived one.
func TestBinaryFrameRefusals(t *testing.T) {
	t.Parallel()
	fs := hostileFrames(t)
	rec, elided := fs.rec, fs.elided
	dec, n, err := store.DecodeRecordFrame(fs.control)
	if err != nil || n != int64(len(fs.control)) {
		t.Fatalf("control frame: n=%d err=%v", n, err)
	}
	checkSameRecord(t, "control frame", rec, dec)
	for name, frame := range fs.hostile {
		if dec, _, err := store.DecodeRecordFrame(frame); !errors.Is(err, canon.ErrBinary) {
			t.Errorf("%s: rec=%v err=%v, want ErrBinary", name, dec, err)
		}
	}
	// The orphan decodes once it has a predecessor, and its hash depends
	// on which.
	a, err := store.DecodeRecordData(elided, 0, int64(len(elided)), store.EncBinary, rec.Seq+1, &rec.Hash, -1)
	if err != nil || a.Prev != rec.Hash {
		t.Fatalf("elided frame after its predecessor: %v", err)
	}
	other := sig.Sum([]byte("another predecessor"))
	b, err := store.DecodeRecordData(elided, 0, int64(len(elided)), store.EncBinary, rec.Seq+1, &other, -1)
	if err != nil || b.Hash == a.Hash {
		t.Fatalf("derived hash does not depend on the predecessor (err %v)", err)
	}
	// A record without a token is not a record: no writer produces one,
	// and readers index records by their token.
	tokenless := append([]byte{0x41, 1}, make([]byte, sig.DigestSize)...) // Prev | hash-less, seq 1, Prev
	if dec, _, err := store.DecodeRecordFrame(v3Frame(append(tokenless, 0, 1))); err == nil {
		t.Fatalf("token-less frame decoded to %+v", dec)
	}
	// The format-2 shape under the current header — the note spelled out,
	// the hash stored — is read, and the stored hash held to the derived
	// one.
	body := frameBody(fs.control)
	v2 := append([]byte{body[0] &^ (fNoteCode | fDerived)}, body[1:fs.code]...)
	v2 = append(append(v2, byte(len(rec.Note))), rec.Note...)
	v2 = append(append(v2, body[fs.code+1:]...), rec.Hash[:]...)
	frame := append(binary.AppendUvarint(nil, uint64(len(v2))), v2...)
	if dec, _, err = store.DecodeRecordFrame(frame); err != nil {
		t.Fatalf("format-2 shaped frame with the right stored hash: %v", err)
	}
	checkSameRecord(t, "format-2 shaped frame", rec, dec)
	frame[len(frame)-1] ^= 0x01
	if _, _, err := store.DecodeRecordFrame(frame); !errors.Is(err, store.ErrChainBroken) {
		t.Fatalf("format-2 shaped frame with a wrong stored hash = %v, want ErrChainBroken", err)
	}
}

// TestBinaryFrameChecksum: any single flipped bit in a frame is caught
// at decode — no record comes back — which is what protects the unsealed
// tail, where nothing pins the derived hash yet. The checksum is not the
// tamper check: a body edited with the checksum fixed up decodes, to a
// record with a different hash, which is what the seal catches.
func TestBinaryFrameChecksum(t *testing.T) {
	t.Parallel()
	rec := goldenRecords(t)[0]
	frame, err := store.AppendRecordBinary(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		for _, bit := range []byte{0x01, 0x10, 0x80} {
			rot := append([]byte(nil), frame...)
			rot[i] ^= bit
			if dec, n, err := store.DecodeRecordFrame(rot); err == nil && dec != nil && n == int64(len(rot)) {
				t.Fatalf("bit %#x of byte %d flipped: frame still decodes", bit, i)
			}
		}
	}
	at := bytes.Index(frame, []byte(rec.Token.Issuer))
	if at < 0 {
		t.Fatal("frame does not spell the issuer")
	}
	_, w := binary.Uvarint(frame)
	edited := append([]byte(nil), frame[w:len(frame)-4]...)
	edited[at-w] ^= 0x01
	dec, _, err := store.DecodeRecordFrame(v3Frame(edited))
	if err != nil {
		t.Fatalf("edited frame with a fixed-up checksum: %v", err)
	}
	if dec.Hash == rec.Hash {
		t.Fatal("an edited record derived the original hash")
	}
}
