package store_test

import (
	"bytes"
	"errors"
	"fmt"
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

// v6Item is one record of a golden write, or — dropped — a record encoded
// into the write and then dropped, as a vault commit drops a request
// whose staging failed.
type v6Item struct {
	rec     *store.Record
	dropped bool
}

// goldenV6Writes cuts the golden records into the writes they model: the
// client's step, the server's, the three tokens of one batch, and the
// call whose receipt is dropped.
func goldenV6Writes(recs []*store.Record, dropped *store.Record) [][]v6Item {
	items := func(rs ...*store.Record) []v6Item {
		out := make([]v6Item, len(rs))
		for i, r := range rs {
			out[i] = v6Item{rec: r}
		}
		return out
	}
	return [][]v6Item{
		items(recs[0:3]...),
		items(recs[3:6]...),
		items(recs[6:9]...),
		{{rec: recs[9]}, {rec: dropped, dropped: true}, {rec: recs[10]}, {rec: recs[11]}},
	}
}

// encodeV6Writes lays writes out as one segment file in the current
// format — one encoder, cut between writes and after a dropped record, as
// a vault commit does — returning it with the offset of every frame kept
// and of the end.
func encodeV6Writes(t *testing.T, writes [][]v6Item) (seg []byte, offs []int64) {
	t.Helper()
	hdr := store.SegmentHeader()
	seg = append(seg, hdr[:]...)
	var enc store.RecordEncoder
	for _, w := range writes {
		enc.Cut()
		for _, item := range w {
			at := len(seg)
			var err error
			if seg, err = enc.AppendRecord(seg, item.rec); err != nil {
				t.Fatal(err)
			}
			if item.dropped {
				seg = seg[:at]
				enc.Cut()
				continue
			}
			offs = append(offs, int64(at))
		}
	}
	return seg, append(offs, int64(len(seg)))
}

// TestBinaryV6GoldenSegment holds format 6 frozen: the records of
// testdata/v6/golden.jsonl, written by the build before format 7 as
// testdata/v6/golden-v6.seg — as the writes they model, the record of
// testdata/v6/dropped.json dropped from the last — decode from it,
// scanned and by keyed slot, to the same canonical JSON, hashes and
// signatures. A token whose signature is its predecessor's sibling in one
// batch borrows it, whether that predecessor leads the write or follows;
// a token of the same batch at a leaf that is not the sibling, and one
// whose sibling was dropped, write theirs in full. Every write leads with
// a plain frame. This build, laying the records out as the same writes —
// cut between them and after the dropped record — keeps that layout
// (checkReencoded).
func TestBinaryV6GoldenSegment(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "v6")
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	jsonl, drop, frozen := read("golden.jsonl"), read("dropped.json"), read("golden-v6.seg")
	want := bytes.Split(bytes.TrimSpace(jsonl), []byte("\n"))
	decodeJSON := func(data []byte) []*store.Record {
		var out []*store.Record
		if _, _, _, err := store.DecodeSegmentData(data, func(rec *store.Record, _ int64) error {
			out = append(out, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	golden, dropped := decodeJSON(jsonl), decodeJSON(drop)
	if len(golden) != len(want) || len(dropped) != 1 {
		t.Fatalf("golden files hold %d of %d records and %d dropped", len(golden), len(want), len(dropped))
	}
	if frozen[3] != 6 {
		t.Fatalf("the frozen format-6 file says version %d", frozen[3])
	}
	recs, offs := scanGolden(t, "v6", frozen, want, store.EncBinaryV6)
	for i, rec := range recs {
		var prev *sig.Digest
		if i > 0 {
			prev = &recs[i-1].Hash
		}
		dec, err := store.DecodeRecordData(frozen, offs[i], offs[i+1], store.EncBinaryV6, recs[i].Seq, prev, prevAt(offs, i))
		if err != nil {
			t.Fatalf("keyed decode of v6 record %d: %v", i, err)
		}
		checkSameRecord(t, fmt.Sprintf("keyed v6 record %d", i), rec, dec)
	}
	encoded, _ := encodeV6Writes(t, goldenV6Writes(golden, dropped[0]))
	checkReencoded(t, "v6 re-encoded", frozen, offs, encoded, want)

	// Which frames lead, follow and borrow a signature. A borrower spells
	// neither the shared signature nor its path, and its rebuilt
	// signature reaches the root its mate's does.
	const lead, follow, borrow = 0, 1, 2
	shape := []int{lead, borrow, follow, lead, follow, borrow, lead, follow, borrow, lead, lead, follow}
	for i, want := range shape {
		frame := frozen[offs[i]:offs[i+1]]
		h := headOfV7(t, frame)
		if h.follower() != (want != lead) || (h.mask&v8Sig != 0) != (want == borrow) {
			t.Fatalf("frame %d: follower=%v mask=%#x, want shape %d", i, h.follower(), h.mask, want)
		}
		s := recs[i].Token.Signature
		if spelled := bytes.Contains(frame, s.Bytes); spelled == (want == borrow) {
			t.Fatalf("frame %d: spells its signature = %v", i, spelled)
		}
		if want != borrow {
			continue
		}
		if len(s.BatchPath) > 1 && bytes.Contains(frame, s.BatchPath[1]) {
			t.Fatalf("frame %d spells its batch path", i)
		}
		root := func(rec *store.Record) sig.Digest {
			tbs, err := rec.Token.TBSDigest()
			if err != nil {
				t.Fatal(err)
			}
			d, err := sig.SignedDigest(tbs, rec.Token.Signature)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		if root(recs[i]) != root(recs[i-1]) {
			t.Fatalf("frame %d: its signature reaches another root than its mate's", i)
		}
	}
	count, err := store.CountFrames(frozen)
	if err != nil || count.Frames != len(recs) || count.Followers != 7 || count.SigBorrowers != 3 {
		t.Fatalf("CountFrames = %+v, err %v, want %d frames, 7 followers, 3 borrowing a signature", count, err, len(recs))
	}
	// Format 5 has no signature mates: the frames are refused under its
	// header.
	asV5 := append([]byte(nil), frozen...)
	asV5[3] = 5
	if _, _, _, err := store.DecodeSegmentData(asV5, func(*store.Record, int64) error { return nil }); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("borrowed signatures under a v5 header = %v, want ErrBinary", err)
	}
	if _, err := store.DecodeRecordData(asV5, offs[1], offs[2], store.EncBinaryV5, recs[1].Seq, &recs[0].Hash, offs[0]); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("keyed read of a borrower under a v5 header = %v, want ErrBinary", err)
	}
}

// mateRun is a server's step as one write — the request's origin, then
// the receipt and the response origin under one batch signature, the
// latter borrowing it, then a plainly signed token of the run — followed
// by a plain frame of another run, with the offset of every frame and of
// the end.
func mateRun(tb testing.TB) (data []byte, offs []int64, recs []*store.Record) {
	tb.Helper()
	realm := testpki.MustRealm(org)
	run := id.NewRun()
	pair, err := realm.Party(org).Issuer.IssueBatch([]evidence.TokenRequest{
		{Kind: evidence.KindNRR, Run: run, Step: 2, Digest: sig.Sum([]byte("request"))},
		{Kind: evidence.KindNROResp, Run: run, Step: 3, Digest: sig.Sum([]byte("response"))},
	})
	if err != nil {
		tb.Fatal(err)
	}
	var c chain
	at := time.Unix(1760668200, 0).UTC()
	for i, tok := range []*evidence.Token{newToken(tb, realm, run, 1), pair[0], pair[1], newToken(tb, realm, run, 4), newToken(tb, realm, id.NewRun(), 1)} {
		c.add(tb, at.Add(time.Duration(i)*time.Millisecond), store.Generated, tok, "")
	}
	data, err = store.AppendFrameRun(nil, c)
	if err != nil {
		tb.Fatal(err)
	}
	offs = []int64{store.SegmentHeaderLen}
	if _, _, _, err := store.DecodeSegmentData(data, func(_ *store.Record, n int64) error {
		offs = append(offs, offs[len(offs)-1]+n)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	if len(offs) != 6 || headOf(tb, data[offs[2]:offs[3]]).mask&bSig == 0 || headOf(tb, data[offs[3]:offs[4]]).mask&bSig != 0 {
		tb.Fatal("control: the response origin does not borrow its receipt's signature")
	}
	return data, offs, c
}

// TestBinaryMateRefusals: a frame that borrows a signature from no frame,
// from a frame without a batch path, from a frame that borrowed its own,
// from a frame of another run, from a plain frame other than its leader
// or from outside the segment is corruption,
// to a scan and to a keyed read alike: an error, never a panic or a read
// outside the segment.
func TestBinaryMateRefusals(t *testing.T) {
	t.Parallel()
	data, offs, recs := mateRun(t)
	for i := 1; i <= 4; i++ {
		dec, err := store.DecodeRecordData(data, offs[i], offs[i+1], store.EncBinary, recs[i].Seq, &recs[i-1].Hash, offs[i-1])
		if err != nil {
			t.Fatalf("control: keyed decode of frame %d: %v", i, err)
		}
		checkSameRecord(t, "control", recs[i], dec)
	}
	// follow cuts image at end and appends rec as a follower of the frame
	// at leadAt, borrowing its signature from mate.
	follow := func(image []byte, end int64, rec, lead *store.Record, leadAt int64, mate *store.Record) hostileRun {
		out, err := store.AppendFollower(append([]byte(nil), image[:end]...), rec, lead, uint64(end-leadAt), mate)
		if err != nil {
			t.Fatal(err)
		}
		return hostileRun{out, end, int64(len(out))}
	}
	// The plainly signed receipt of followerRun borrowing from its leader,
	// which has no batch path to lend.
	plain, pOffs, pRecs := followerRun(t)
	noPath := follow(plain, pOffs[1], pRecs[1], pRecs[0], pOffs[0], pRecs[0])
	// The receipt's token again after the response origin, borrowing from
	// it: the signature rebuilt would be the receipt's own, but the mate
	// borrowed its signature too.
	again, err := store.NextRecord(recs[2].Seq, recs[2].Hash, recs[2].At, store.Generated, recs[1].Token, "")
	if err != nil {
		t.Fatal(err)
	}
	borrowed := follow(data, offs[3], again, recs[0], offs[0], recs[2])
	// The borrower moved behind the plain frame of another run, still
	// pointing at its leader: a keyed read finds a mate of another run
	// (and a scan a follower not pointing at the plain frame before it).
	cut := data[:offs[2]]
	moved := append(append(append([]byte(nil), cut...), data[offs[4]:offs[5]]...), data[offs[2]:offs[3]]...)
	movedAt := offs[2] + offs[5] - offs[4]
	other := repoint(moved, movedAt, int64(len(moved)), uint64(movedAt-offs[0]))
	// The receipt written as a plain frame of its own write, the response
	// origin borrowing from it but re-pointed at the request's origin: a
	// keyed read finds a mate that is a plain frame after the leader (and a
	// scan a follower not pointing at the plain frame before it).
	hdr := store.SegmentHeader()
	split := append([]byte(nil), hdr[:]...)
	var sOffs []int64
	var enc store.RecordEncoder
	for i, rec := range recs[:3] {
		if i == 1 {
			enc.Cut()
		}
		sOffs = append(sOffs, int64(len(split)))
		var err error
		if split, err = enc.AppendRecord(split, rec); err != nil {
			t.Fatal(err)
		}
	}
	if headOf(t, split[sOffs[1]:sOffs[2]]).follower() || headOf(t, split[sOffs[2]:]).mask&bSig == 0 {
		t.Fatal("control: the receipt of its own write is not a plain frame lending its signature")
	}
	plainMate := repoint(split, sOffs[2], int64(len(split)), uint64(sOffs[2]-sOffs[0]))
	type hostile struct {
		hostileRun
		prevStart int64
	}
	prevOf := func(h hostileRun, prevStart int64) hostile { return hostile{h, prevStart} }
	for name, bad := range map[string]hostile{
		"mate without a batch path":            prevOf(noPath, pOffs[0]),
		"mate that borrowed its own signature": prevOf(borrowed, offs[2]),
		"mate of another run":                  prevOf(other, offs[2]),
		"mate a plain frame after the leader":  prevOf(plainMate, sOffs[1]),
	} {
		n := 0
		if _, _, _, err := store.DecodeSegmentData(bad.data, func(*store.Record, int64) error { n++; return nil }); !errors.Is(err, canon.ErrBinary) {
			t.Errorf("%s: scan read %d records, err %v, want ErrBinary", name, n, err)
		}
		prev := sig.Sum([]byte("any predecessor"))
		if rec, err := store.DecodeRecordData(bad.data, bad.start, bad.end, store.EncBinary, 0, &prev, bad.prevStart); !errors.Is(err, canon.ErrBinary) {
			t.Errorf("%s: keyed read = %v, err %v, want ErrBinary", name, rec, err)
		}
	}
	// The borrower read by key told of a mate anywhere but the frame
	// directly before it in its write.
	for name, prevStart := range map[string]int64{
		"no mate":             -1,
		"mate in the header":  1,
		"mate is the frame":   offs[2],
		"mate mid-frame":      offs[1] + 3,
		"mate past the frame": offs[3],
	} {
		if rec, err := store.DecodeRecordData(data, offs[2], offs[3], store.EncBinary, recs[2].Seq, &recs[1].Hash, prevStart); !errors.Is(err, canon.ErrBinary) {
			t.Errorf("%s: keyed read of the borrower = %v, err %v, want ErrBinary", name, rec, err)
		}
	}
}
