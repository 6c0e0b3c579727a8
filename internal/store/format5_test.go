package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// goldenV5Writes cuts the golden records into the writes they model: the
// job-enqueued commit, the reply group, the receipt with the job's
// outcome, the subscription, and the attempts.
func goldenV5Writes(recs []*store.Record) [][]*store.Record {
	return [][]*store.Record{recs[0:1], recs[1:3], recs[3:5], recs[5:6], recs[6:12]}
}

// encodeWrites lays writes out as one segment file in the current format
// — one encoder, cut between writes — returning it with the offset of
// every frame and of the end.
func encodeWrites(t *testing.T, writes [][]*store.Record) (seg []byte, offs []int64) {
	t.Helper()
	hdr := store.SegmentHeader()
	seg = append(seg, hdr[:]...)
	var enc store.RecordEncoder
	for _, w := range writes {
		enc.Cut()
		for _, rec := range w {
			offs = append(offs, int64(len(seg)))
			var err error
			if seg, err = enc.AppendRecord(seg, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return seg, append(offs, int64(len(seg)))
}

// TestBinaryV5GoldenSegment holds format 5 frozen: the records of
// testdata/v5/golden.jsonl, written by the build before format 6 as
// testdata/v5/golden-v5.seg, decode from it — scanned and by keyed slot —
// to the same canonical JSON, hashes and signatures as from
// testdata/v5/golden-v4.seg, the same records as the build before format
// 5 wrote them. Notes that are canonical JSON travel as trees — the
// response snapshot naming its leader's digest in one byte — and each
// note or string the tree cannot rebuild exactly travels as text. This
// build, laying the records out as the same writes, keeps that layout
// (checkReencoded) and stores the same notes as trees.
func TestBinaryV5GoldenSegment(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "v5")
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	jsonl, frozen, v4 := read("golden.jsonl"), read("golden-v5.seg"), read("golden-v4.seg")
	want := bytes.Split(bytes.TrimSpace(jsonl), []byte("\n"))
	var golden []*store.Record
	if _, _, _, err := store.DecodeSegmentData(jsonl, func(rec *store.Record, _ int64) error {
		golden = append(golden, rec)
		return nil
	}); err != nil || len(golden) != len(want) {
		t.Fatalf("golden.jsonl: %d of %d records, err %v", len(golden), len(want), err)
	}
	if frozen[3] != 5 {
		t.Fatalf("the frozen format-5 file says version %d", frozen[3])
	}
	recs, offs := scanGolden(t, "v5", frozen, want, store.EncBinaryV5)
	old, _ := scanGolden(t, "v4", v4, want, store.EncBinaryV4)
	for i, rec := range recs {
		checkSameRecord(t, fmt.Sprintf("v5 record %d against v4", i), old[i], rec)
		var prev *sig.Digest
		if i > 0 {
			prev = &recs[i-1].Hash
		}
		dec, err := store.DecodeRecordData(frozen, offs[i], offs[i+1], store.EncBinaryV5, recs[i].Seq, prev, prevAt(offs, i))
		if err != nil {
			t.Fatalf("keyed decode of v5 record %d: %v", i, err)
		}
		checkSameRecord(t, fmt.Sprintf("keyed v5 record %d", i), rec, dec)
	}

	encoded, encOffs := encodeWrites(t, goldenV5Writes(golden))
	checkReencoded(t, "v5 re-encoded", frozen, offs, encoded, want)

	// What each frame must carry as text: the whole note where it stays
	// literal, the parts the tree cannot rebuild where it does not.
	structured := map[int][]string{
		0: nil, 2: nil, 4: nil,
		5:  {"sub-" + string(recs[5].Token.Run)},
		9:  {"2026-10-15T10:43:29.627198276+02:00"},
		10: {"colour", "sky blue", "QR=="},
		11: {"urn:org:server2", "/echo", "#key"}, // suffixes of an earlier string and of a party
	}
	for _, img := range []struct {
		name string
		data []byte
		offs []int64
	}{{"v5", frozen, offs}, {"re-encoded", encoded, encOffs}} {
		for i, rec := range recs {
			frame := img.data[img.offs[i]:img.offs[i+1]]
			parts, isTree := structured[i]
			if strings.HasPrefix(rec.Note, "{") && bytes.Contains(frame, []byte(rec.Note)) == isTree {
				t.Fatalf("%s record %d: structured=%v, but the frame disagrees: %s", img.name, i, isTree, rec.Note)
			}
			for _, part := range parts {
				if !bytes.Contains(frame, []byte(part)) {
					t.Fatalf("%s record %d: frame does not carry %q as text", img.name, i, part)
				}
			}
		}
		// The snapshot's request digest is its leader's: one byte, neither
		// the digest's hex nor its bytes.
		if reply := img.data[img.offs[2]:img.offs[3]]; bytes.Contains(reply, recs[1].Token.Digest[:]) || !bytes.Contains(img.data[img.offs[1]:img.offs[2]], recs[1].Token.Digest[:]) {
			t.Fatalf("%s: the response snapshot does not name its request digest by reference to the leader", img.name)
		}
	}
	count, err := store.CountFrames(frozen)
	if err != nil || count.Frames != len(recs) || count.SigBorrowers != 0 {
		t.Fatalf("CountFrames = %+v, err %v, want %d frames and no signature borrowed", count, err, len(recs))
	}
	for kind, limit := range map[evidence.Kind]int64{evidence.KindJobEnqueued: 150, evidence.KindNROResp: 120, evidence.KindJobDone: 10} {
		if c := count.Kinds[kind]; c == nil || c.NoteBytes[store.NoteStructured] == 0 || c.NoteBytes[store.NoteStructured] > limit*int64(c.Records) {
			t.Fatalf("%s notes stored as %+v, want structured in at most %d bytes each", kind, c, limit)
		}
	}
	if saved := len(v4) - len(frozen); saved < 600 {
		t.Fatalf("format 5 saves %d bytes over format 4 on the golden records, want at least 600", saved)
	}
	// Format 4 has no structured notes: the frames are refused under its
	// header.
	asV4 := append([]byte(nil), frozen...)
	asV4[3] = 4
	if _, _, _, err := store.DecodeSegmentData(asV4, func(*store.Record, int64) error { return nil }); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("structured notes under a v4 header = %v, want ErrBinary", err)
	}
}
