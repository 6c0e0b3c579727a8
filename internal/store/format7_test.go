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

// ringSize is how many of a file's latest plain frames a follower may
// lean on (since version 7) and a plain frame may take its parties from
// (since version 8): part of the format.
const ringSize = 16

// TestBinaryV7GoldenSegment holds format 7 frozen: the records of
// testdata/v7/golden.jsonl, written by the build before format 8 as
// testdata/v7/golden-v7.seg, decode from it — scanned and by keyed slot —
// to the same canonical JSON, hashes and signatures. Every frame leads,
// follows the leader the layout says — from its own write or an earlier
// one, across other runs' frames — or borrows its mate's signature. This
// build, appending the records as one file, keeps that layout
// (checkReencoded); cut at every write, it would write a plain frame
// where a later write continues a run.
func TestBinaryV7GoldenSegment(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "v7")
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	jsonl, frozen := read("golden.jsonl"), read("golden-v7.seg")
	want := bytes.Split(bytes.TrimSpace(jsonl), []byte("\n"))
	if frozen[3] != 7 {
		t.Fatalf("the frozen format-7 file says version %d", frozen[3])
	}
	recs, offs := scanGolden(t, "v7", frozen, want, store.EncBinaryV7)
	for i, rec := range recs {
		var prev *sig.Digest
		if i > 0 {
			prev = &recs[i-1].Hash
		}
		dec, err := store.DecodeRecordData(frozen, offs[i], offs[i+1], store.EncBinaryV7, recs[i].Seq, prev, prevAt(offs, i))
		if err != nil {
			t.Fatalf("keyed decode of v7 record %d: %v", i, err)
		}
		checkSameRecord(t, fmt.Sprintf("keyed v7 record %d", i), rec, dec)
	}

	// Which frame each follows (-1: plain), and which borrow a signature.
	leader := []int{-1, -1, 1, 1, 0, 0, 0, 1, -1, 8, 8, 8, -1, -1, 13, 13, 13, 13}
	borrows := map[int]bool{10: true}
	for i, lead := range leader {
		h := headOfV7(t, frozen[offs[i]:offs[i+1]])
		if h.follower() != (lead >= 0) || (lead >= 0 && h.back != uint64(offs[i]-offs[lead])) || (h.mask&v8Sig != 0) != borrows[i] {
			t.Fatalf("frame %d: follower=%v back=%d mask=%#x, want leader %d, borrowing a signature %v", i, h.follower(), h.back, h.mask, lead, borrows[i])
		}
	}
	// The response snapshot names its request digest — its leader's — in
	// one byte.
	if bytes.Contains(frozen[offs[15]:offs[16]], recs[13].Token.Digest[:]) || !bytes.Contains(frozen[offs[13]:offs[14]], recs[13].Token.Digest[:]) {
		t.Fatal("the response snapshot does not name its request digest by reference to the leader")
	}
	count, err := store.CountFrames(frozen)
	if err != nil || count.Frames != len(recs) || count.Followers != 13 || count.SigBorrowers != 1 || count.PartyBorrowers != 0 {
		t.Fatalf("CountFrames = %+v, err %v, want %d frames, 13 followers, 1 borrowing a signature", count, err, len(recs))
	}
	encoded, _ := encodeFile(t, recs, false)
	checkReencoded(t, "v7 re-encoded", frozen, offs, encoded, want)
	if cut, _ := encodeFile(t, recs, true); len(cut)-len(encoded) < 4*64 {
		t.Fatalf("cross-write followers save %d bytes over frames cut at every write, want at least %d", len(cut)-len(encoded), 4*64)
	}
	// Version 6 lets a follower lean only on the last plain frame: the
	// client's reply, behind the other run's leader, is refused under its
	// header.
	asV6 := append([]byte(nil), frozen...)
	asV6[3] = 6
	if _, _, _, err := store.DecodeSegmentData(asV6, func(*store.Record, int64) error { return nil }); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("cross-write followers under a v6 header = %v, want ErrBinary", err)
	}
}

// ringRun is a run's first record, then the first records of others
// other runs, then the run's second record, as one encoder appends them,
// with the offset of every frame and of the end.
func ringRun(tb testing.TB, others int) (data []byte, offs []int64, recs []*store.Record) {
	tb.Helper()
	realm := testpki.MustRealm(org)
	run := id.NewRun()
	var c chain
	at := time.Unix(1760695200, 0).UTC()
	c.add(tb, at, store.Generated, newToken(tb, realm, run, 1), "request origin")
	for i := 0; i < others; i++ {
		c.add(tb, at.Add(time.Duration(i+1)*time.Millisecond), store.Generated, newToken(tb, realm, id.NewRun(), 1), "request origin")
	}
	c.add(tb, at.Add(time.Second), store.Generated, newToken(tb, realm, run, 2), "request receipt")
	data, err := store.AppendFrameRun(nil, c)
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
	return data, offs, c
}

// TestBinaryV7LeaderRefusals: a version-7 follower leans on a plain frame
// among the last ringSize of its file and on nothing else. The encoder
// leans on a run's leader across the plain frames of ringSize-1 other
// runs and not across ringSize. A scan refuses a follower whose back
// lands outside its ring, on a follower, in the middle of a frame or on
// the header; a keyed read, which sees only the slot and the frames it
// names, refuses the last three and reads the first — what the follower
// took from the frame it names is pinned by its hash all the same.
func TestBinaryV7LeaderRefusals(t *testing.T) {
	t.Parallel()
	data, offs, recs := ringRun(t, ringSize-1)
	last := len(recs) - 1
	if h := headOf(t, data[offs[last]:offs[last+1]]); !h.follower() || h.back != uint64(offs[last]-offs[0]) {
		t.Fatalf("a leader %d plain frames back: follower=%v back=%d, want a follower of the first frame", ringSize-1, h.follower(), h.back)
	}
	far, fOffs, fRecs := ringRun(t, ringSize)
	fLast := len(fRecs) - 1
	if headOf(t, far[fOffs[fLast]:fOffs[fLast+1]]).follower() {
		t.Fatalf("a leader %d plain frames back is leaned on", ringSize)
	}
	outside, err := store.AppendFollower(append([]byte(nil), far[:fOffs[fLast]]...), fRecs[fLast], fRecs[0], uint64(fOffs[fLast]-fOffs[0]), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A two-run file — A, B, then A's and B's second records following
	// their leaders — whose last follower is re-pointed.
	realm := testpki.MustRealm(org)
	a, b := id.NewRun(), id.NewRun()
	var c chain
	at := time.Unix(1760695200, 0).UTC()
	for i, tok := range []*evidence.Token{newToken(t, realm, a, 1), newToken(t, realm, b, 1), newToken(t, realm, a, 2), newToken(t, realm, b, 2)} {
		c.add(t, at.Add(time.Duration(i)*time.Millisecond), store.Generated, tok, "")
	}
	two, err := store.AppendFrameRun(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	tOffs := []int64{store.SegmentHeaderLen}
	if _, _, _, err := store.DecodeSegmentData(two, func(_ *store.Record, n int64) error {
		tOffs = append(tOffs, tOffs[len(tOffs)-1]+n)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if h := headOf(t, two[tOffs[3]:tOffs[4]]); h.back != uint64(tOffs[3]-tOffs[1]) {
		t.Fatalf("control: B's second record follows back %d, want %d", h.back, tOffs[3]-tOffs[1])
	}
	type hostile struct {
		hostileRun
		seq        uint64
		prev       *sig.Digest
		prevStart  int64
		keyedReads bool
	}
	onTwo := func(back uint64) hostile {
		return hostile{repoint(two, tOffs[3], tOffs[4], back), c[3].Seq, &c[2].Hash, tOffs[2], false}
	}
	for name, bad := range map[string]hostile{
		"back outside the ring":     {hostileRun{outside, fOffs[fLast], int64(len(outside))}, fRecs[fLast].Seq, &fRecs[fLast-1].Hash, fOffs[fLast-1], true},
		"back on a follower":        onTwo(uint64(tOffs[3] - tOffs[2])),
		"back in the middle of one": onTwo(uint64(tOffs[3]-tOffs[1]) - 5),
		"back on the header":        onTwo(uint64(tOffs[3] - 1)),
	} {
		n := 0
		if _, _, _, err := store.DecodeSegmentData(bad.data, func(*store.Record, int64) error { n++; return nil }); !errors.Is(err, canon.ErrBinary) {
			t.Errorf("%s: scan read %d records, err %v, want ErrBinary", name, n, err)
		}
		rec, err := store.DecodeRecordData(bad.data, bad.start, bad.end, store.EncBinary, bad.seq, bad.prev, bad.prevStart)
		switch {
		case bad.keyedReads && err != nil:
			t.Errorf("%s: keyed read: %v", name, err)
		case bad.keyedReads:
			checkSameRecord(t, name, fRecs[fLast], rec)
		case !errors.Is(err, canon.ErrBinary):
			t.Errorf("%s: keyed read = %v, err %v, want ErrBinary", name, rec, err)
		}
	}
}
