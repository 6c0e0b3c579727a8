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

// goldenV8Extra issues the records the format-8 golden segment holds
// after the format-7 golden's, chained on from after:
//
//	an audit between two new parties   {NRO}   frame 18
//	another client call                {NRO}   frame 19
//	the audit's answer                 {NRO}   frame 20
//	the call's receipt                 {NRR}   frame 21
//
// The audit shares no party with the frames before it, so it spells its
// parties out and becomes a second party source; the call takes its
// parties from the file's first frame past it, and its key id — a
// rotated one — is written out; the answer takes its parties from the audit,
// reversed, and writes its own service; the receipt follows the call.
func goldenV8Extra(t *testing.T, after *store.Record) []*store.Record {
	t.Helper()
	const client, server = id.Party("urn:org:client"), id.Party("urn:org:server")
	const auditor, witness = id.Party("urn:org:auditor"), id.Party("urn:org:witness")
	realm := testpki.MustRealm(client, server, auditor, witness)
	issue := func(p, to id.Party, svc id.Service, kind evidence.Kind, run id.Run, step int, what string) *evidence.Token {
		tok, err := realm.Party(p).Issuer.Issue(kind, run, step, sig.Sum([]byte(what)), evidence.WithRecipients(to), evidence.WithService(svc))
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	audit, call := id.NewRun(), id.NewRun()
	rotated := issue(client, server, "urn:org:server/echo", evidence.KindNRO, call, 1, "call")
	rotated.Signature.KeyID += "-2" // the encoding, not the signature, is under test
	type entry struct {
		dir  store.Direction
		tok  *evidence.Token
		note string
	}
	entries := []entry{
		{store.Generated, issue(auditor, witness, "urn:org:witness/attest", evidence.KindNRO, audit, 1, "attest"), "request origin"},
		{store.Generated, rotated, "request origin"},
		{store.Received, issue(witness, auditor, "urn:org:auditor/answer", evidence.KindNRO, id.NewRun(), 1, "answer"), "request origin"},
		{store.Received, issue(server, client, "urn:org:server/echo", evidence.KindNRR, call, 2, "call"), "request receipt"},
	}
	c := chain{after}
	for i, e := range entries {
		c.add(t, after.At.Add(time.Duration(i+1)*time.Millisecond), e.dir, e.tok, e.note)
	}
	return c[1:]
}

// goldenV8Writes is where each write of the golden segment starts.
var goldenV8Writes = []int{0, 1, 4, 7, 8, 9, 12, 13, 14, 18, 19, 20, 21}

// encodeFile lays records out in the current format as one segment
// file, one encoder, as a vault appends them whatever the commits; with
// cut set, the encoder is cut where each write of the format-8 golden
// starts.
func encodeFile(t *testing.T, recs []*store.Record, cut bool) (seg []byte, offs []int64) {
	t.Helper()
	hdr := store.SegmentHeader()
	seg = append(seg, hdr[:]...)
	var enc store.RecordEncoder
	w := 0
	for i, rec := range recs {
		if cut && w < len(goldenV8Writes) && goldenV8Writes[w] == i {
			enc.Cut()
			w++
		}
		offs = append(offs, int64(len(seg)))
		var err error
		if seg, err = enc.AppendRecord(seg, rec); err != nil {
			t.Fatal(err)
		}
	}
	return seg, append(offs, int64(len(seg)))
}

// readRecords decodes a golden file's records.
func readRecords(t *testing.T, path string) (data []byte, recs []*store.Record) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := store.DecodeSegmentData(data, func(rec *store.Record, _ int64) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return data, recs
}

// TestBinaryV8GoldenSegment holds format 8 frozen: the records of
// testdata/v8/golden.jsonl — the format-7 golden's, then goldenV8Extra's
// — written by the build before format 9 as testdata/v8/golden-v8.seg,
// decode from it, scanned and by keyed slot, to the same canonical JSON,
// hashes and signatures. Followers and signature borrowers are where
// format 7 put them; every plain frame but the file's first and the one
// whose parties are new takes its parties from the party source the
// layout says. The records format 7 froze take fewer bytes: the opening
// frames of runs spell no party, and no frame that elides its Prev spells
// its seq. This build, appending the records as one file, keeps that
// layout (checkReencoded).
func TestBinaryV8GoldenSegment(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "v8")
	_, v7 := readRecords(t, filepath.Join("testdata", "v7", "golden.jsonl"))
	jsonl, golden := readRecords(t, filepath.Join(dir, "golden.jsonl"))
	frozen, err := os.ReadFile(filepath.Join(dir, "golden-v8.seg"))
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSpace(jsonl), []byte("\n"))
	if len(golden) != len(v7)+4 || frozen[3] != 8 {
		t.Fatalf("golden.jsonl holds %d records, want format 7's %d and 4 more; the frozen file says version %d", len(golden), len(v7), frozen[3])
	}
	for i := range v7 {
		checkSameRecord(t, fmt.Sprintf("v8 golden record %d against v7", i), v7[i], golden[i])
	}
	recs, offs := scanGolden(t, "v8", frozen, want, store.EncBinaryV8)
	for i, rec := range recs {
		var prev *sig.Digest
		if i > 0 {
			prev = &recs[i-1].Hash
		}
		dec, err := store.DecodeRecordData(frozen, offs[i], offs[i+1], store.EncBinaryV8, rec.Seq, prev, prevAt(offs, i))
		if err != nil {
			t.Fatalf("keyed decode of v8 record %d: %v", i, err)
		}
		checkSameRecord(t, fmt.Sprintf("keyed v8 record %d", i), rec, dec)
	}
	encoded, _ := encodeFile(t, recs, false)
	checkReencoded(t, "v8 re-encoded", frozen, offs, encoded, want)

	// Which frame each follows (-1: plain), which borrow a signature, and
	// which frame each plain frame takes its parties from.
	leader := []int{-1, -1, 1, 1, 0, 0, 0, 1, -1, 8, 8, 8, -1, -1, 13, 13, 13, 13, -1, -1, -1, 19}
	borrows := map[int]bool{10: true}
	source := map[int]int{1: 0, 8: 0, 12: 0, 13: 0, 19: 0, 20: 18}
	for i, lead := range leader {
		h := headOf(t, frozen[offs[i]:offs[i+1]])
		src, sourced := source[i]
		if h.follower() != (lead >= 0) || (lead >= 0 && h.back != uint64(offs[i]-offs[lead])) || (lead >= 0 && (h.mask&v8Sig != 0) != borrows[i]) ||
			h.sourced() != sourced || (sourced && h.back != uint64(offs[i]-offs[src])) {
			t.Fatalf("frame %d: follower=%v sourced=%v back=%d mask=%#x, want leader %d, party source %d (%v)", i, h.follower(), h.sourced(), h.back, h.mask, lead, src, sourced)
		}
	}
	// What the opening frames take and write: the call under a rotated key
	// writes its key id, the audit's answer its service; everything else
	// the sources hold is one byte or nothing.
	spells := func(i int, s string) bool { return bytes.Contains(frozen[offs[i]:offs[i+1]], []byte(s)) }
	for _, i := range []int{1, 8, 13, 19} {
		if spells(i, "urn:org:client") || spells(i, "urn:org:server") || spells(i, "/echo") {
			t.Fatalf("frame %d spells a party or service its source lends", i)
		}
	}
	if h := headOf(t, frozen[offs[20]:offs[21]]); spells(20, "urn:org:") || !spells(20, "/answer") || h.mask&evidence.BorrowService != 0 {
		t.Fatal("the audit's answer does not take its parties from the audit and write its own service")
	}
	if h := headOf(t, frozen[offs[19]:offs[20]]); h.mask&evidence.BorrowKeyIDV8 != 0 || !spells(19, recs[19].Token.Signature.KeyID[len(recs[19].Token.Issuer):]) {
		t.Fatal("the call signed under a rotated key borrows its key id")
	}
	if h := headOf(t, frozen[offs[1]:offs[2]]); h.mask&evidence.BorrowKeyIDV8 == 0 || h.mask&v8PartyAt == 0 {
		t.Fatalf("frame 1 takes %#x from its source, want its key id and its time too", h.mask)
	}
	count, err := store.CountFrames(frozen)
	if err != nil || count.Frames != len(recs) || count.Followers != 14 || count.SigBorrowers != 1 || count.PartyBorrowers != len(source) {
		t.Fatalf("CountFrames = %+v, err %v, want %d frames, 14 followers, 1 borrowing a signature, %d its parties", count, err, len(recs), len(source))
	}

	// The records format 7 froze, frame by frame: every frame that elides
	// its Prev saves its seq, every opening frame that names a source its
	// parties, service, key id and time — all but the journal record's,
	// which names no recipient and no service; the file's first frame
	// spends a byte saying it names no source.
	v7seg, err := os.ReadFile(filepath.Join("testdata", "v7", "golden-v7.seg"))
	if err != nil {
		t.Fatal(err)
	}
	v7offs := frameOffsets(t, v7seg)
	floors := map[int]int64{0: -2, 1: 40, 8: 40, 12: 20, 13: 40}
	for i := range v7 {
		if was, is := v7offs[i+1]-v7offs[i], offs[i+1]-offs[i]; was-is <= floors[i] {
			t.Fatalf("frame %d takes %d bytes, %d in format 7: want more than %d saved", i, is, was, floors[i])
		}
	}
	// Cut at every write, the same records cost this build a plain frame
	// more per write that continues a run, and their parties in every
	// write that opens one.
	if cut, _ := encodeFile(t, recs, true); len(cut)-len(encoded) < 4*64+4*40 {
		t.Fatalf("cross-write leaders and sources save %d bytes over frames cut at every write, want at least %d", len(cut)-len(encoded), 4*64+4*40)
	}
	// Version 7 spells a seq in every frame and no party source: the
	// frames are refused under its header.
	asV7 := append([]byte(nil), frozen...)
	asV7[3] = 7
	if _, _, _, err := store.DecodeSegmentData(asV7, func(*store.Record, int64) error { return nil }); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("format-8 frames under a v7 header = %v, want ErrBinary", err)
	}
}

// sourcedRuns is the first records of runs, one per run, all between the
// same parties, as one encoder appends them, with the offset of every
// frame and of the end.
func sourcedRuns(tb testing.TB, runs int) (data []byte, offs []int64, recs []*store.Record) {
	tb.Helper()
	realm := testpki.MustRealm(org)
	var c chain
	at := time.Unix(1760695200, 0).UTC()
	for i := 0; i < runs; i++ {
		c.add(tb, at.Add(time.Duration(i)*time.Millisecond), store.Generated, newToken(tb, realm, id.NewRun(), 1), "request origin")
	}
	data, err := store.AppendFrameRun(nil, c)
	if err != nil {
		tb.Fatal(err)
	}
	return data, frameOffsets(tb, data), c
}

// TestBinaryV8PartySourceRing: a plain frame takes its parties from a
// source among the last ringSize plain frames of its file, and from a
// frame that spells them out itself: of a long row of runs between the
// same parties, one opening frame in ringSize+1 spells its parties out
// again, and the rest take them from it.
func TestBinaryV8PartySourceRing(t *testing.T) {
	t.Parallel()
	data, offs, recs := sourcedRuns(t, 3*(ringSize+1)+1)
	src := 0
	for i := range recs {
		h := headOf(t, data[offs[i]:offs[i+1]])
		if i%(ringSize+1) == 0 {
			if h.sourced() {
				t.Fatalf("frame %d takes its parties from back %d, want them spelled out", i, h.back)
			}
			src = i
			continue
		}
		if !h.sourced() || h.back != uint64(offs[i]-offs[src]) {
			t.Fatalf("frame %d: sourced=%v back=%d, want its parties from frame %d", i, h.sourced(), h.back, src)
		}
	}
	count, err := store.CountFrames(data)
	if err != nil || count.PartyBorrowers != len(recs)-4 || count.Followers != 0 {
		t.Fatalf("CountFrames = %+v, err %v, want %d frames taking their parties", count, err, len(recs)-4)
	}
}

// TestBinaryV8SeqElision: a frame that elides its Prev elides its seq,
// the one before it plus one, and a keyed read completes it with the seq
// the index places the record at — the record's hash, which the seal
// pins, depends on it. A record whose seq is not its predecessor's plus
// one writes both.
func TestBinaryV8SeqElision(t *testing.T) {
	t.Parallel()
	data, offs, recs := sourcedRuns(t, 3)
	for i := 1; i < len(recs); i++ {
		if headOf(t, data[offs[i]:offs[i+1]]).flags&fPrev != 0 {
			t.Fatalf("frame %d spells its Prev", i)
		}
	}
	dec, err := store.DecodeRecordData(data, offs[2], offs[3], store.EncBinary, recs[2].Seq, &recs[1].Hash, offs[1])
	if err != nil {
		t.Fatal(err)
	}
	checkSameRecord(t, "keyed read of an elided seq", recs[2], dec)
	if wrong, err := store.DecodeRecordData(data, offs[2], offs[3], store.EncBinary, recs[2].Seq+1, &recs[1].Hash, offs[1]); err != nil || wrong.Hash == recs[2].Hash {
		t.Fatalf("a keyed read at another seq derived the same hash (err %v)", err)
	}
	// A gap in the seqs: the frame after it spells its seq and Prev.
	gap := *recs[2]
	gap.Seq += 5
	h, err := store.ChainHash(&gap)
	if err != nil {
		t.Fatal(err)
	}
	gap.Hash = h
	var enc store.RecordEncoder
	seg := store.SegmentHeader()
	out := seg[:]
	for _, rec := range []*store.Record{recs[0], recs[1], &gap} {
		if out, err = enc.AppendRecord(out, rec); err != nil {
			t.Fatal(err)
		}
	}
	gOffs := frameOffsets(t, out)
	if headOf(t, out[gOffs[2]:gOffs[3]]).flags&fPrev == 0 {
		t.Fatal("a frame whose seq is not its predecessor's plus one elides it")
	}
	var got []*store.Record
	if _, _, _, err := store.DecodeSegmentData(out, func(rec *store.Record, _ int64) error {
		got = append(got, rec)
		return nil
	}); err != nil || len(got) != 3 || got[2].Seq != gap.Seq || got[2].Hash != gap.Hash {
		t.Fatalf("scan of a seq gap: %d records, err %v", len(got), err)
	}
}

// hostileSources are runs that end in a plain frame naming as its party
// source a frame it may not take its parties from: a follower, a frame
// that takes its own parties from a source, a position before the file or
// on its header or inside a frame, a frame a Cut dropped, or a frame past
// the ring — and one asking for a bit no party mask has. Each keeps valid
// checksums, so the refusal is the decoder's own. keyedReads marks the one
// a keyed read reads: which of the file's plain frames a source may be, a
// scan checks.
func hostileSources(tb testing.TB) map[string]struct {
	hostileRun
	seq        uint64
	prev       *sig.Digest
	prevStart  int64
	keyedReads bool
} {
	tb.Helper()
	realm := testpki.MustRealm(org)
	a := id.NewRun()
	var c chain
	at := time.Unix(1760695200, 0).UTC()
	// A1, A2 following it, B1 and C1 taking their parties from A1, and X,
	// the first record of another run, which a commit drops.
	for i, tok := range []*evidence.Token{newToken(tb, realm, a, 1), newToken(tb, realm, a, 2), newToken(tb, realm, id.NewRun(), 1), newToken(tb, realm, id.NewRun(), 1)} {
		c.add(tb, at.Add(time.Duration(i)*time.Millisecond), store.Generated, tok, "")
	}
	data, err := store.AppendFrameRun(nil, c)
	if err != nil {
		tb.Fatal(err)
	}
	offs := frameOffsets(tb, data)
	if h := headOf(tb, data[offs[3]:offs[4]]); !h.sourced() || h.back != uint64(offs[3]-offs[0]) {
		tb.Fatalf("control: C1 takes its parties from back %d, want %d", h.back, offs[3]-offs[0])
	}
	x := newToken(tb, realm, id.NewRun(), 1)
	dropped, err := store.NextRecord(c[2].Seq, c[2].Hash, at, store.Generated, x, "")
	if err != nil {
		tb.Fatal(err)
	}
	xFrame, err := store.AppendPartyBorrower(nil, dropped, c[0], uint64(offs[3]-offs[0]))
	if err != nil {
		tb.Fatal(err)
	}
	afterCut, err := store.AppendPartyBorrower(append([]byte(nil), data[:offs[3]]...), c[3], dropped, uint64(len(xFrame)))
	if err != nil {
		tb.Fatal(err)
	}
	far, fOffs, fRecs := sourcedRuns(tb, ringSize+2)
	last := len(fRecs) - 1
	outside, err := store.AppendPartyBorrower(append([]byte(nil), far[:fOffs[last]]...), fRecs[last], fRecs[0], uint64(fOffs[last]-fOffs[0]))
	if err != nil {
		tb.Fatal(err)
	}
	type hostile = struct {
		hostileRun
		seq        uint64
		prev       *sig.Digest
		prevStart  int64
		keyedReads bool
	}
	onC1 := func(run hostileRun) hostile { return hostile{run, c[3].Seq, &c[2].Hash, offs[2], false} }
	repointC1 := func(back uint64) hostile { return onC1(repoint(data, offs[3], offs[4], back)) }
	return map[string]hostile{
		"source on a follower":           repointC1(uint64(offs[3] - offs[1])),
		"source on a frame that borrows": repointC1(uint64(offs[3] - offs[2])),
		"source before the file":         repointC1(uint64(offs[3]) + 9),
		"source on the header":           repointC1(uint64(offs[3] - 1)),
		"source inside a frame":          repointC1(uint64(offs[3]-offs[0]) - 5),
		"source a cut dropped":           onC1(hostileRun{afterCut, offs[3], int64(len(afterCut))}),
		"unknown party mask bit":         onC1(remask(data, offs[3], offs[4], headOf(tb, data[offs[3]:offs[4]]).mask|0x80)),
		"source outside the ring":        {hostileRun{outside, fOffs[last], int64(len(outside))}, fRecs[last].Seq, &fRecs[last-1].Hash, fOffs[last-1], true},
	}
}

// TestBinaryV8PartySourceRefusals: a scan refuses every hostile party
// source with ErrBinary; a keyed read, which sees only the slot and the
// frames it names, refuses all but the one past the ring, and reads that
// one — what the frame took from the frame it names is pinned by its hash
// all the same.
func TestBinaryV8PartySourceRefusals(t *testing.T) {
	t.Parallel()
	for name, bad := range hostileSources(t) {
		n := 0
		if _, _, _, err := store.DecodeSegmentData(bad.data, func(*store.Record, int64) error { n++; return nil }); !errors.Is(err, canon.ErrBinary) {
			t.Errorf("%s: scan read %d records, err %v, want ErrBinary", name, n, err)
		}
		rec, err := store.DecodeRecordData(bad.data, bad.start, bad.end, store.EncBinary, bad.seq, bad.prev, bad.prevStart)
		switch {
		case bad.keyedReads && err != nil:
			t.Errorf("%s: keyed read: %v", name, err)
		case !bad.keyedReads && !errors.Is(err, canon.ErrBinary):
			t.Errorf("%s: keyed read = %v, err %v, want ErrBinary", name, rec, err)
		}
	}
}
