package store_test

import (
	"bytes"
	"encoding/binary"
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

// Bits of a borrow mask of the current format — a follower's and a plain
// frame's alike — as binary.go lays them out.
const (
	bTxn, bService, bDigest, bSigner = evidence.BorrowTxn, evidence.BorrowService, evidence.BorrowDigest, evidence.BorrowSigner
	bReferenced, bSame, bMirrored    = evidence.PartiesReferenced, evidence.PartiesSame, evidence.PartiesMirrored
	bAt                              = 1 << evidence.MaskBits
	bSig                             = bAt << 1

	fPrev, fToken, fFollower = 0x01, 0x02, 0x80
)

// Bits of a follower's borrow mask in formats 4 to 8 that the current
// layout moved or reads otherwise (bTxn, bService and bDigest are where
// they were), and a party source's at bit in format 8.
const (
	v8Issuer, v8Recipients = evidence.BorrowIssuerV8, evidence.BorrowRecipientsV8
	v8At                   = 1 << evidence.BorrowBitsV8
	v8Sig                  = v8At << 1
	v8PartyAt              = 1 << evidence.PartyBitsV8
)

// frameHead is what a frame says before its record fields: whether it
// follows a leader, how far back, and what it borrows — or, for a plain
// frame of version 8, how far back its party source is (0 for none) and
// what it takes from it.
type frameHead struct {
	flags byte
	back  uint64
	mask  byte
}

func (h frameHead) follower() bool { return h.flags&fFollower != 0 }

// sourced reports whether a plain frame takes its parties from a party
// source.
func (h frameHead) sourced() bool { return !h.follower() && h.back != 0 }

// headOf parses the head of a frame of the current format: a seq only
// beside Prev, a party source after a plain frame's.
func headOf(tb testing.TB, frame []byte) frameHead { return parseHead(tb, frame, true) }

// headOfV7 parses the head of a frame of versions 4 to 7: a seq always,
// no party source.
func headOfV7(tb testing.TB, frame []byte) frameHead { return parseHead(tb, frame, false) }

func parseHead(tb testing.TB, frame []byte, v8 bool) frameHead {
	tb.Helper()
	_, w := binary.Uvarint(frame)
	body := frame[w:]
	h := frameHead{flags: body[0]}
	p := headAt(body, v8)
	if h.follower() || (v8 && h.flags&fToken != 0) {
		var k int
		h.back, k = binary.Uvarint(body[p:])
		if h.back != 0 {
			h.mask = body[p+k]
		}
	}
	return h
}

// headAt is where a frame body's back-distance starts: past its flags,
// and its seq and Prev where it writes them.
func headAt(body []byte, v8 bool) int {
	p := 1
	if body[0]&fPrev != 0 || !v8 {
		_, k := binary.Uvarint(body[1:]) // seq
		p += k
	}
	if body[0]&fPrev != 0 {
		p += sig.DigestSize
	}
	return p
}

// v4Write is one write of the golden segment: the records one commit or
// push puts into the file together.
type v4Write struct {
	name string
	recs []*store.Record
	// heads is what each frame must say: the zero head for a plain frame,
	// the leader's index within the write and the borrow mask otherwise.
	heads []v4Head
}

type v4Head struct {
	follows int // index of the leader in the write; -1 for a plain frame
	mask    byte
}

var plain = v4Head{follows: -1}

// goldenV4Records builds the records of the golden segment: a server's
// step group and the receipt that follows it in the next commit, then one
// wide write in which every borrow bit is seen both ways and each
// fallback of the exact-or-not-applied rule is taken.
func goldenV4Records(t *testing.T) []*store.Record {
	t.Helper()
	const a, b, c = id.Party("urn:org:a"), id.Party("urn:org:b"), id.Party("urn:org:c")
	realm := testpki.MustRealm(a, b, c)
	issue := func(p id.Party, kind evidence.Kind, run id.Run, step int, what string, opts ...evidence.IssueOption) *evidence.Token {
		tok, err := realm.Party(p).Issuer.Issue(kind, run, step, sig.Sum([]byte(what)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	utc := time.Date(2026, 9, 27, 1, 2, 3, 456789, time.UTC)
	cest := time.FixedZone("CEST", 2*3600)
	type entry struct {
		at   time.Time
		dir  store.Direction
		tok  *evidence.Token
		note string
	}
	run1, run2, run3, txn := id.NewRun(), id.NewRun(), id.NewRun(), id.NewTxn()
	svc := evidence.WithService("urn:org:a/orders")
	entries := []entry{
		// Write 1, the server's step: the request's origin token received,
		// its receipt and the response's origin generated.
		{utc, store.Received, issue(b, evidence.KindNRO, run1, 1, "request", evidence.WithTxn(txn), evidence.WithRecipients(a), svc), "request origin"},
		{utc.Add(40 * time.Microsecond), store.Generated, issue(a, evidence.KindNRR, run1, 2, "request", evidence.WithTxn(txn), evidence.WithRecipients(b), svc), "request receipt"},
		{utc.Add(55 * time.Microsecond), store.Generated, issue(a, evidence.KindNROResp, run1, 3, "response", evidence.WithTxn(txn), evidence.WithRecipients(b), svc), "response origin (ok)"},
		// Write 2: the receipt of the response, alone in the next commit.
		{utc.Add(2 * time.Millisecond), store.Received, issue(b, evidence.KindNRRResp, run1, 4, "response", evidence.WithTxn(txn), evidence.WithRecipients(a), svc), "response receipt (consumed)"},
		// Write 3: a leader in a zoned time with two recipients, an
		// unrooted service and no transaction, and what follows it.
		{utc.In(cest), store.Generated, issue(a, evidence.KindProposal, run2, 1, "proposal", evidence.WithRecipients(b, c), evidence.WithService("svc:ledger")), "free text"},
		// Issuer not among the leader's parties, another service, a
		// transaction the leader has none of, UTC against zoned: only the
		// recipients (in another order) and the run are shared.
		{utc.Add(time.Second), store.Received, issue(b, evidence.KindDecision, run2, 2, "decision", evidence.WithTxn(txn), evidence.WithRecipients(c, b), evidence.WithService("svc:other")), "decision (accept=true)"},
		// A recipient the leader does not know: the list is spelled out;
		// the issuer is the leader's third party, the time is zoned too.
		{utc.Add(2 * time.Second).In(cest), store.Received, issue(c, evidence.KindDecision, run2, 3, "proposal", evidence.WithRecipients(b, "urn:org:e")), ""},
		// A time only text can carry borrows nothing from a nanosecond one;
		// no recipients at all.
		{time.Date(1500, 1, 2, 3, 4, 5, 0, time.UTC), store.Generated, issue(a, evidence.KindOutcome, run2, 4, "outcome", evidence.WithService("svc:ledger")), "outcome (agreed=true)"},
		// Another run: plain, and the leader of what comes next.
		{utc.Add(3 * time.Second), store.Generated, issue(a, evidence.KindNRO, run3, 1, "other", evidence.WithRecipients(b), svc), "request origin"},
		{utc.Add(3*time.Second + time.Millisecond), store.Received, issue(b, evidence.KindNRR, run3, 2, "other", evidence.WithRecipients(a), svc), "request receipt"},
	}
	// The first decision names a fourth issuer once mutated: the crypto
	// does not verify — the property under test is encoding fidelity.
	entries[5].tok.Issuer = "urn:org:d"
	var recs []*store.Record
	seq, prev := uint64(0), sig.Digest{}
	for _, e := range entries {
		rec, err := store.NextRecord(seq, prev, e.at, e.dir, e.tok, e.note)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		seq, prev = rec.Seq, rec.Hash
	}
	return recs
}

// goldenV4Layout cuts the golden records into the writes they were made
// for and says what each frame must look like.
func goldenV4Layout(recs []*store.Record) []v4Write {
	all := byte(bTxn | v8Issuer | v8Recipients | bService | bDigest | v8At)
	return []v4Write{
		{name: "step group", recs: recs[0:3], heads: []v4Head{plain, {0, all}, {0, all &^ bDigest}}},
		{name: "receipt, next commit", recs: recs[3:4], heads: []v4Head{plain}},
		{name: "fallbacks", recs: recs[4:10], heads: []v4Head{
			plain,
			{0, v8Recipients},
			{0, v8Issuer | bDigest | v8At},
			{0, v8Issuer | bService},
			plain,
			{4, v8Issuer | v8Recipients | bService | bDigest | v8At},
		}},
	}
}

// frameOffsets walks a binary segment's frames by their length
// prefixes alone, returning where each starts and where the last ends.
func frameOffsets(tb testing.TB, data []byte) []int64 {
	tb.Helper()
	offs := []int64{store.SegmentHeaderLen}
	for at := offs[0]; at < int64(len(data)); {
		end, err := store.FrameEnd(data, at, store.DetectEncoding(data))
		if err != nil {
			tb.Fatal(err)
		}
		offs, at = append(offs, end), end
	}
	return offs
}

// encodeGoldenV4 lays the golden writes out in the current format: one
// encoder for the file, cut between writes, and last a record without a
// token, which no log produces and no decoder accepts but the encoder
// must not make a follower of.
func encodeGoldenV4(t *testing.T, writes []v4Write) (seg []byte, offs []int64) {
	t.Helper()
	hdr := store.SegmentHeader()
	seg = append(seg, hdr[:]...)
	var enc store.RecordEncoder
	var last *store.Record
	appendRec := func(rec *store.Record) {
		var err error
		offs = append(offs, int64(len(seg)))
		if seg, err = enc.AppendRecord(seg, rec); err != nil {
			t.Fatal(err)
		}
		last = rec
	}
	for _, w := range writes {
		enc.Cut()
		for _, rec := range w.recs {
			appendRec(rec)
		}
	}
	appendRec(&store.Record{Seq: last.Seq + 1, Prev: last.Hash, At: last.At, Direction: store.Generated,
		Note: "no token", Hash: sig.Sum([]byte("token-less"))})
	return seg, append(offs, int64(len(seg)))
}

// checkReencoded holds this build's encoder to a frozen segment of
// formats 4 to 9: seg, the frozen records laid out in the current format
// as the same writes, decodes — scanned and by keyed slot — to the same
// records, and each of its frames follows the frame its frozen twin
// follows, taking the same fields (tookV8, took), or is plain where the
// twin is. No frame is more than one byte longer than its twin: the byte
// a plain frame spends saying it names no party source.
func checkReencoded(t *testing.T, what string, frozen []byte, frozenOffs []int64, seg []byte, want [][]byte) {
	t.Helper()
	recs, offs := scanGolden(t, what, seg, want, store.EncBinary)
	for i, rec := range recs {
		var prev *sig.Digest
		if i > 0 {
			prev = &recs[i-1].Hash
		}
		dec, err := store.DecodeRecordData(seg, offs[i], offs[i+1], store.EncBinary, rec.Seq, prev, prevAt(offs, i))
		if err != nil {
			t.Fatalf("%s: keyed decode of record %d: %v", what, i, err)
		}
		checkSameRecord(t, fmt.Sprintf("%s: keyed record %d", what, i), rec, dec)
	}
	// leader is the index of the frame a follower names, -1 for a plain
	// frame.
	leader := func(offs []int64, i int, h frameHead) int {
		for j := 0; h.follower() && j < i; j++ {
			if offs[i]-offs[j] == int64(h.back) {
				return j
			}
		}
		return -1
	}
	for i := range recs {
		was, is := parseHead(t, frozen[frozenOffs[i]:frozenOffs[i+1]], frozen[3] >= 8), headOf(t, seg[offs[i]:offs[i+1]])
		wasTook := tookV8(was.mask)
		if frozen[3] >= 9 {
			wasTook = took(was.mask)
		}
		if was.follower() != is.follower() || leader(frozenOffs, i, was) != leader(offs, i, is) || (is.follower() && took(is.mask) != wasTook) {
			t.Fatalf("%s: frame %d follows frame %d with mask %#x, its frozen twin frame %d with mask %#x",
				what, i, leader(offs, i, is), is.mask, leader(frozenOffs, i, was), was.mask)
		}
		if n, frozenN := offs[i+1]-offs[i], frozenOffs[i+1]-frozenOffs[i]; n > frozenN+1 {
			t.Fatalf("%s: frame %d takes %d bytes, its frozen twin %d", what, i, n, frozenN)
		}
	}
}

// took is what a follower's borrow mask of the current format says it
// takes from its leader, in the terms formats 4 to 8 share: its
// transaction, service, digest, time and mate's signature where it takes
// them, and bReferenced for its parties whatever their form — its signer,
// which no earlier format took, apart.
func took(mask byte) byte {
	out := mask & (bTxn | bService | bDigest | bAt | bSig)
	if mask&evidence.PartyMask != 0 {
		out |= bReferenced
	}
	return out
}

// tookV8 is took for a follower's borrow mask of formats 4 to 8.
func tookV8(mask byte) byte {
	out := mask & (bTxn | bService | bDigest)
	if mask&(v8Issuer|v8Recipients) != 0 {
		out |= bReferenced
	}
	if mask&v8At != 0 {
		out |= bAt
	}
	if mask&v8Sig != 0 {
		out |= bSig
	}
	return out
}

// TestBinaryV4GoldenSegment holds format 4 frozen: the records of
// testdata/v4/golden.jsonl, written by the build before format 5 as
// testdata/v4/golden-v4.seg, decode from it — scanned and by keyed slot —
// and every frame is plain or a follower with exactly the borrow mask the
// layout says; the last, a record without a token, which no log produces
// and no decoder accepts, is plain. This build, laying the records out as
// the same writes, keeps that layout (checkReencoded) and writes the
// token-less record plain too: a change to either direction of the
// follower codec shows up here.
func TestBinaryV4GoldenSegment(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "v4")
	jsonl, err := os.ReadFile(filepath.Join(dir, "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := os.ReadFile(filepath.Join(dir, "golden-v4.seg"))
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSpace(jsonl), []byte("\n"))
	var recs []*store.Record
	if _, _, _, err := store.DecodeSegmentData(jsonl, func(rec *store.Record, _ int64) error {
		recs = append(recs, rec)
		return nil
	}); err != nil || len(recs) != len(want) {
		t.Fatalf("golden.jsonl: %d of %d records, err %v", len(recs), len(want), err)
	}
	writes := goldenV4Layout(recs)
	offs := frameOffsets(t, frozen)
	if frozen[3] != 4 || len(offs) != len(recs)+2 {
		t.Fatalf("the frozen format-4 file holds %d frames under version %d, want %d under 4", len(offs)-1, frozen[3], len(recs)+1)
	}

	// Every frame says what the layout says, and every mask bit is seen
	// set and clear.
	var on, off byte
	i := 0
	for _, w := range writes {
		first := i
		for j, want := range w.heads {
			h := headOfV7(t, frozen[offs[i]:offs[i+1]])
			switch {
			case want.follows < 0:
				if h.follower() {
					t.Fatalf("%s: frame %d is a follower, want plain", w.name, j)
				}
			case !h.follower() || h.back != uint64(offs[i]-offs[first+want.follows]) || h.mask != want.mask:
				t.Fatalf("%s: frame %d: follower=%v back=%d mask=%#x, want a follower %d bytes back with mask %#x",
					w.name, j, h.follower(), h.back, h.mask, offs[i]-offs[first+want.follows], want.mask)
			default:
				on, off = on|h.mask, off|^h.mask
			}
			i++
		}
	}
	if every := byte(1<<(evidence.BorrowBitsV8+1) - 1); on&every != every || off&every != every {
		t.Fatalf("borrow bits seen set %#x and clear %#x, want each of %#x both ways", on, off&every, every)
	}
	if h := headOfV7(t, frozen[offs[i]:offs[i+1]]); h.follower() {
		t.Fatal("the token-less record was written as a follower")
	}
	encoded, encOffs := encodeGoldenV4(t, writes)
	checkReencoded(t, "v4 re-encoded", frozen, offs, encoded[:encOffs[len(recs)]], want)
	if h := headOf(t, encoded[encOffs[len(recs)]:]); h.follower() {
		t.Fatal("this build writes the token-less record as a follower")
	}

	// The file scans to the golden records and stops, refusing, at the
	// token-less frame.
	n := 0
	cv := &store.ChainVerifier{}
	enc, prefix, torn, err := store.DecodeSegmentData(frozen, func(rec *store.Record, _ int64) error {
		got, err := canon.Marshal(rec)
		if err != nil {
			return err
		}
		if n >= len(want) || !bytes.Equal(got, want[n]) {
			t.Fatalf("v4 record %d: canonical projection drifted:\n got %s", n, got)
		}
		checkSameRecord(t, fmt.Sprintf("v4 record %d", n), recs[n], rec)
		n++
		return cv.Advance(rec)
	})
	if err == nil || torn || enc != store.EncBinaryV4 || prefix != offs[len(recs)] || n != len(recs) {
		t.Fatalf("v4 scan: %d of %d records enc=%v prefix=%d torn=%v err=%v", n, len(recs), enc, prefix, torn, err)
	}
	golden := frozen[:prefix]

	// Keyed access: each slot decodes out of the whole file given its
	// predecessor's hash — a follower's leader is found where it points.
	for i, rec := range recs {
		var prev *sig.Digest
		if i > 0 {
			prev = &recs[i-1].Hash
		}
		dec, err := store.DecodeRecordData(golden, offs[i], offs[i+1], store.EncBinaryV4, recs[i].Seq, prev, prevAt(offs, i))
		if err != nil {
			t.Fatalf("keyed decode of v4 record %d: %v", i, err)
		}
		checkSameRecord(t, fmt.Sprintf("keyed v4 record %d", i), rec, dec)
	}
	// A follower's slot alone is not enough: its leader is outside it.
	slot := golden[offs[1]:offs[2]]
	if _, err := store.DecodeRecordData(slot, 0, int64(len(slot)), store.EncBinaryV4, recs[1].Seq, &recs[0].Hash, -1); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("follower decoded from its bare slot = %v, want ErrBinary", err)
	}
	// Followers save what the issue sized: the receipt that shares the
	// request's digest about 90 bytes, the others about 60.
	saved := func(i int) int {
		alone, err := store.AppendRecordBinary(nil, recs[i])
		if err != nil {
			t.Fatal(err)
		}
		return len(alone) - sig.DigestSize - int(offs[i+1]-offs[i]) // stand-alone frames spell Prev
	}
	if nrr, resp := saved(1), saved(2); nrr < 85 || resp < 55 || nrr-resp < sig.DigestSize-1 || nrr-resp > sig.DigestSize+1 {
		t.Fatalf("followers save %d and %d bytes over plain frames, want about 91 and 59", nrr, resp)
	}
}

// followerRun is a leader and two followers as one push, with the offset
// of each frame and of the end.
func followerRun(tb testing.TB) (data []byte, offs []int64, recs []*store.Record) {
	tb.Helper()
	realm := testpki.MustRealm(org)
	run := id.NewRun()
	at := time.Unix(1754600000, 0).UTC()
	seq, prev := uint64(0), sig.Digest{}
	for i := 1; i <= 3; i++ {
		rec, err := store.NextRecord(seq, prev, at.Add(time.Duration(i)*time.Millisecond), store.Generated, newToken(tb, realm, run, i), "request origin")
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, rec)
		seq, prev = rec.Seq, rec.Hash
	}
	data, err := store.AppendFrameRun(nil, recs)
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
	return data, offs, recs
}

// hostileRun is a run of frames and the slot of the follower in it that
// a decoder must refuse.
type hostileRun struct {
	data       []byte
	start, end int64
}

// reframe replaces the frame at data[start:end] by one with the edited
// body, checksum fixed up, and returns the run cut off after it.
func reframe(data []byte, start, end int64, edit func(body []byte, at int) []byte) hostileRun {
	frame := data[start:end]
	_, w := binary.Uvarint(frame)
	body := append([]byte(nil), frame[w:len(frame)-4]...)
	out := append(append([]byte(nil), data[:start]...), v3Frame(edit(body, headAt(body, true)))...)
	return hostileRun{out, start, int64(len(out))}
}

// repoint rewrites a follower's back-distance, remask its borrow mask.
func repoint(data []byte, start, end int64, back uint64) hostileRun {
	return reframe(data, start, end, func(body []byte, at int) []byte {
		_, old := binary.Uvarint(body[at:])
		return append(append(body[:at:at], binary.AppendUvarint(nil, back)...), body[at+old:]...)
	})
}

func remask(data []byte, start, end int64, mask byte) hostileRun {
	return reframe(data, start, end, func(body []byte, at int) []byte {
		_, w := binary.Uvarint(body[at:])
		body[at+w] = mask
		return body
	})
}

// hostileFollowers are runs that end in a follower pointing where no
// leader is, or borrowing what its leader cannot lend. Each keeps valid
// checksums (but for the one about a bad checksum), so the refusal is
// the decoder's own.
func hostileFollowers(tb testing.TB) map[string]hostileRun {
	tb.Helper()
	data, offs, _ := followerRun(tb)
	toThird := uint64(offs[2] - offs[0])
	badLeader := append([]byte(nil), data[:offs[2]]...)
	badLeader[offs[1]-1] ^= 0x01 // the leader's checksum
	// A frame without a token where the leader should be: hand-built,
	// plain, and the run's first follower moved up behind it.
	tokenless := append([]byte{0x41, 1}, make([]byte, sig.DigestSize)...) // Prev | hash-less, seq 1, Prev
	tokenless = v3Frame(append(tokenless, 0, 1))                          // At, direction
	hdr := store.SegmentHeader()
	behind := append(append(hdr[:], tokenless...), data[offs[1]:offs[2]]...)
	first := int64(store.SegmentHeaderLen)
	// The control's first follower takes its parties, its signer and its
	// time from its leader.
	mask := byte(bSame | bSigner | bAt)
	return map[string]hostileRun{
		"back reaches before the file":          repoint(data, offs[2], offs[3], uint64(offs[2])+9),
		"back reaches into the segment header":  repoint(data, offs[2], offs[3], toThird+1),
		"back of zero":                          repoint(data, offs[2], offs[3], 0),
		"back into the middle of a frame":       repoint(data, offs[2], offs[3], toThird-7),
		"back onto another follower":            repoint(data, offs[2], offs[3], uint64(offs[2]-offs[1])),
		"leader with a bad checksum":            {badLeader, offs[1], offs[2]},
		"leader without a token":                repoint(behind, first+int64(len(tokenless)), int64(len(behind)), uint64(len(tokenless))),
		"follower first in the file":            {append(hdr[:], data[offs[1]:offs[2]]...), first, first + offs[2] - offs[1]},
		"signature borrowed, yet written":       remask(data, offs[1], offs[2], mask|bSig),
		"transaction borrowed, token has none":  remask(data, offs[1], offs[2], mask|bTxn),
		"service borrowed, token has none":      remask(data, offs[1], offs[2], mask|bService),
		"parties mirrored, token has no one":    remask(data, offs[1], offs[2], mask|bMirrored),
		"time borrowed across zone modes":       retime(tb, data, offs),
		"issuer reference past the party list":  reissue(data, offs[1], offs[2]),
		"follower bit under a version-3 header": {append([]byte{'N', 'R', 'S', 3}, data[first:offs[2]]...), offs[1], offs[2]},
	}
}

// retime makes the control's first follower claim a zoned time while
// still borrowing from its UTC leader: flags bits 3-4 say the mode.
func retime(tb testing.TB, data []byte, offs []int64) hostileRun {
	tb.Helper()
	return reframe(data, offs[1], offs[2], func(body []byte, _ int) []byte {
		body[0] |= 1 << 3 // TimeZoned
		return body
	})
}

// reissue makes the control's first follower write its issuer as a
// reference, to a party its leader does not have. The reference goes
// after the token's flags, kind code and step, which follow the note
// code.
func reissue(data []byte, start, end int64) hostileRun {
	return reframe(data, start, end, func(body []byte, at int) []byte {
		_, w := binary.Uvarint(body[at:]) // back
		p := at + w                       // the mask
		body[p] = body[p]&^evidence.PartyMask | bReferenced
		p++
		_, w = binary.Varint(body[p:])  // At delta
		p += w + 2                      // direction, note code
		_, w = binary.Uvarint(body[p:]) // token flags
		p += w + 1                      // kind code
		_, w = binary.Varint(body[p:])  // step
		p += w
		return append(body[:p:p], append([]byte{9}, body[p:]...)...)
	})
}

// TestBinaryFollowerRefusals: a follower that does not point at the plain
// frame of its run before it — before the header, into a frame, onto
// another follower, onto a frame without a token or with a bad checksum —
// or that borrows what the leader cannot lend is corruption, to a scan
// and to a keyed read alike: an error, never a panic or a read outside
// the segment.
func TestBinaryFollowerRefusals(t *testing.T) {
	t.Parallel()
	data, offs, recs := followerRun(t)
	for i := 1; i <= 2; i++ {
		if h := headOf(t, data[offs[i]:offs[i+1]]); !h.follower() || h.back != uint64(offs[i]-offs[0]) || h.mask != bSame|bSigner|bAt {
			t.Fatalf("control: frame %d follower=%v back=%d mask=%#x", i, h.follower(), h.back, h.mask)
		}
		dec, err := store.DecodeRecordData(data, offs[i], offs[i+1], store.EncBinary, recs[i].Seq, &recs[i-1].Hash, offs[i-1])
		if err != nil {
			t.Fatalf("control: keyed decode of follower %d: %v", i, err)
		}
		checkSameRecord(t, "control follower", recs[i], dec)
	}
	prev := sig.Sum([]byte("any predecessor"))
	for name, bad := range hostileFollowers(t) {
		n := 0
		_, prefix, torn, err := store.DecodeSegmentData(bad.data, func(*store.Record, int64) error { n++; return nil })
		// (A scan stops at the frame without a token itself, before the
		// follower behind it, with the refusal every format shares.)
		if !(errors.Is(err, canon.ErrBinary) || (err != nil && name == "leader without a token")) || torn {
			t.Errorf("%s: scan read %d records to %d, torn=%v err=%v, want ErrBinary", name, n, prefix, torn, err)
		}
		enc := store.DetectEncoding(bad.data)
		if rec, err := store.DecodeRecordData(bad.data, bad.start, bad.end, enc, 0, &prev, -1); !errors.Is(err, canon.ErrBinary) {
			t.Errorf("%s: keyed read = %v, err %v, want ErrBinary", name, rec, err)
		}
	}
}

// TestBinaryFollowerTornAndCut: a file torn between a leader and its
// follower recovers to the leader; an encoder cut between two writes
// starts the second plain even within one run; and frames appended after
// a Reset, or not directly after the frame before, never follow.
func TestBinaryFollowerTornAndCut(t *testing.T) {
	t.Parallel()
	data, offs, recs := followerRun(t)
	for cut := offs[1] + 1; cut < offs[2]; cut += 9 {
		n := 0
		_, prefix, torn, err := store.DecodeSegmentData(data[:cut], func(*store.Record, int64) error { n++; return nil })
		if err != nil || !torn || prefix != offs[1] || n != 1 {
			t.Fatalf("cut at %d: %d records to %d, torn=%v err=%v, want the leader alone", cut, n, prefix, torn, err)
		}
	}
	var enc store.RecordEncoder
	var seg []byte
	var err error
	heads := make([]frameHead, 0, 5)
	appendRec := func(rec *store.Record) {
		at := len(seg)
		if seg, err = enc.AppendRecord(seg, rec); err != nil {
			t.Fatal(err)
		}
		heads = append(heads, headOf(t, seg[at:]))
	}
	appendRec(recs[0])
	appendRec(recs[1]) // follows
	enc.Cut()
	appendRec(recs[2]) // plain: first of its write — and it still elides Prev
	enc.Reset()
	appendRec(recs[1]) // plain: first of a run
	appendRec(recs[0]) // plain: not the successor of the frame before
	appendRec(recs[1]) // follows that one
	for i, want := range []bool{false, true, false, false, false, true} {
		if heads[i].follower() != want {
			t.Fatalf("frame %d: follower=%v, want %v", i, heads[i].follower(), want)
		}
	}
	if heads[2].flags&fPrev != 0 || heads[3].flags&fPrev == 0 || heads[4].flags&fPrev == 0 {
		t.Fatalf("Prev flags after Cut, Reset and a gap: %#x %#x %#x", heads[2].flags, heads[3].flags, heads[4].flags)
	}
}
