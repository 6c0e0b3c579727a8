package store_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

// goldenRecords builds one record per shape the store can hold: every
// token kind, plain and TSA-stamped signatures, transaction links,
// recipients, empty, free-text and protocol-vocabulary notes, both
// directions, and signature variants with forward-secure and batch
// fields populated.
func goldenRecords(t *testing.T) []*store.Record {
	t.Helper()
	realm := testpki.MustRealm(org)
	run := id.NewRun()
	txn := id.NewTxn()
	var toks []*evidence.Token
	for i, kind := range []evidence.Kind{
		evidence.KindNRO, evidence.KindNRR, evidence.KindNROResp, evidence.KindNRRResp,
		evidence.KindProposal, evidence.KindDecision, evidence.KindOutcome,
		evidence.KindAck, evidence.KindSubstitute, evidence.KindAbort,
		evidence.KindPostmark, evidence.KindJobEnqueued, evidence.KindJobAttempt,
		evidence.KindJobDone, evidence.KindSubOpen, evidence.KindSegShip,
		evidence.KindGeoAppend,
	} {
		tok, err := realm.Party(org).Issuer.Issue(kind, run, i+1, sig.Sum([]byte(fmt.Sprintf("golden-%d", i))),
			evidence.WithTxn(txn))
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tok)
	}
	// A TSA-stamped token (Timestamp present).
	stamped, err := realm.StampedIssuer(org).Issue(evidence.KindNRO, run, 9, sig.Sum([]byte("stamped")))
	if err != nil {
		t.Fatal(err)
	}
	toks = append(toks, stamped)
	// A token whose signature exercises every optional field: recipients,
	// service, forward-secure period/hint/path and batch countersignature
	// fields. The crypto does not verify — the golden property under test
	// is encoding fidelity, not signature validity.
	exotic, err := realm.Party(org).Issuer.Issue(evidence.KindNRO, run, 10, sig.Sum([]byte("exotic")))
	if err != nil {
		t.Fatal(err)
	}
	exotic.Recipients = []id.Party{"urn:org:b", "urn:org:c"}
	exotic.Service = "svc:orders"
	exotic.Nonce = "nonce-value"
	exotic.Signature.Period = 7
	exotic.Signature.PublicHint = []byte{1, 2, 3}
	exotic.Signature.Path = [][]byte{{4, 5}, {}, {6}}
	exotic.Signature.BatchRoot = []byte{7, 8}
	exotic.Signature.BatchPath = [][]byte{{9}}
	exotic.Signature.BatchIndex = 3
	toks = append(toks, exotic)

	var recs []*store.Record
	seq, prev := uint64(0), sig.Digest{}
	at := time.Date(2026, 8, 8, 1, 2, 3, 456789, time.UTC)
	for i, tok := range toks {
		dir := store.Generated
		note := fmt.Sprintf("note-%d", i) // free text: travels literally
		switch {
		case i%2 == 1:
			dir = store.Received
			note = ""
		case i%4 == 0:
			note = codedNotes[i/4%len(codedNotes)]
		}
		rec, err := store.NextRecord(seq, prev, at.Add(time.Duration(i)*time.Second), dir, tok, note)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		seq, prev = rec.Seq, rec.Hash
	}
	return recs
}

// codedNotes are notes from the protocols' fixed vocabulary, which a
// frame carries as one byte since version 3.
var codedNotes = []string{"request origin", "response origin (ok)", "response receipt (consumed)", "ttp decision", "ack (applied=false)"}

// checkSameRecord holds a decoded record to the one it was encoded
// from: byte-identical canonical JSON (so the signed token form and the
// hash input are unchanged), the same Hash, and a passing chain check.
func checkSameRecord(t *testing.T, what string, want, got *store.Record) {
	t.Helper()
	w, err := canon.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := canon.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, g) {
		t.Fatalf("%s: canonical projection drifted:\n want %s\n  got %s", what, w, g)
	}
	if want.Hash != got.Hash {
		t.Fatalf("%s: hash drifted", what)
	}
	if err := store.ResumeChain(got.Seq-1, got.Prev).Check(got); err != nil {
		t.Fatalf("%s: decoded record fails chain check: %v", what, err)
	}
}

// prevAt is where the frame before frame i starts, as a keyed read is
// told it: -1 for the first.
func prevAt(offs []int64, i int) int64 {
	if i == 0 {
		return -1
	}
	return offs[i-1]
}

// TestBinaryRecordGoldenVectors proves the binary codec is a faithful
// carrier of the canonical form: for every record shape,
// encode→decode→canonical-JSON must equal the original record's
// canonical JSON byte for byte, and the decoded record must still pass
// the chain check (Hash is computed over canonical JSON, so equality
// here means the hash chain is encoding-independent) — both as
// stand-alone frames, which carry Prev, and as one run, which elides it.
func TestBinaryRecordGoldenVectors(t *testing.T) {
	t.Parallel()
	recs := goldenRecords(t)
	standalone := 0
	for i, rec := range recs {
		frame, err := store.AppendRecordBinary(nil, rec)
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		standalone += len(frame)
		// The frame stores neither the hash (the decoder derives it) nor
		// a vocabulary note's text; free text it does carry.
		if bytes.Contains(frame, rec.Hash[:]) {
			t.Fatalf("record %d: frame stores the record hash", i)
		}
		if coded := rec.Note != "" && !strings.HasPrefix(rec.Note, "note-"); rec.Note != "" && bytes.Contains(frame, []byte(rec.Note)) == coded {
			t.Fatalf("record %d: note %q coded=%v, frame disagrees", i, rec.Note, coded)
		}
		dec, frameLen, err := store.DecodeRecordFrame(frame)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if dec == nil || frameLen != int64(len(frame)) {
			t.Fatalf("record %d: frame not fully consumed (%d of %d)", i, frameLen, len(frame))
		}
		checkSameRecord(t, fmt.Sprintf("record %d (explicit prev)", i), rec, dec)
		// DecodeRecordData must accept the exact slot and reject a padded one.
		if _, err := store.DecodeRecordData(frame, 0, int64(len(frame)), store.EncBinary, rec.Seq, nil, -1); err != nil {
			t.Fatalf("record %d: DecodeRecordData: %v", i, err)
		}
		if _, err := store.DecodeRecordData(append(frame[:len(frame):len(frame)], 0), 0, int64(len(frame))+1, store.EncBinary, rec.Seq, nil, -1); err == nil {
			t.Fatalf("record %d: padded slot decoded", i)
		}
	}

	// The same records as one run: every frame after the first drops its
	// 32-byte Prev, and decoding restores it from the frame before. (They
	// are also one run of the protocol, so every frame after the first
	// follows it: TestBinaryV4GoldenSegment is about that.)
	run, err := store.AppendFrameRun(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if saved, want := standalone+store.SegmentHeaderLen-len(run), sig.DigestSize*(len(recs)-1); saved < want {
		t.Fatalf("run of %d frames saved %d bytes over stand-alone frames, want at least %d", len(recs), saved, want)
	}
	var offs []int64
	off, i := int64(store.SegmentHeaderLen), 0
	enc, prefix, torn, err := store.DecodeSegmentData(run, func(dec *store.Record, n int64) error {
		checkSameRecord(t, fmt.Sprintf("record %d (elided prev)", i), recs[i], dec)
		offs = append(offs, off)
		off += n
		i++
		return nil
	})
	offs = append(offs, off)
	if err != nil || torn || enc != store.EncBinary || prefix != int64(len(run)) || i != len(recs) {
		t.Fatalf("run scan: %d records enc=%v prefix=%d torn=%v err=%v", i, enc, prefix, torn, err)
	}
	// Keyed access: a frame from the middle of the run decodes given its
	// predecessor's hash, and only given it.
	mid := len(recs) / 2
	slot := run[offs[mid]:offs[mid+1]]
	dec, err := store.DecodeRecordData(run, offs[mid], offs[mid+1], store.EncBinary, recs[mid].Seq, &recs[mid-1].Hash, offs[mid-1])
	if err != nil {
		t.Fatalf("keyed decode of an elided frame: %v", err)
	}
	checkSameRecord(t, "keyed decode", recs[mid], dec)
	if _, err := store.DecodeRecordData(run, offs[mid], offs[mid+1], store.EncBinary, recs[mid].Seq, nil, -1); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("elided frame without its predecessor = %v, want ErrBinary", err)
	}
	if _, _, err := store.DecodeRecordFrame(slot); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("elided frame decoded stand-alone = %v, want ErrBinary", err)
	}
	// A fresh encoder appending to the same file starts explicit again.
	var e store.RecordEncoder
	tail, err := e.AppendRecord(nil, recs[mid])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.DecodeRecordFrame(tail); err != nil {
		t.Fatalf("first frame of a fresh encoder is not stand-alone: %v", err)
	}
	e.Reset()
	if again, _ := e.AppendRecord(nil, recs[mid+1]); len(again) <= sig.DigestSize || !bytes.Contains(again, recs[mid].Hash[:]) {
		t.Fatal("frame after Reset elided its Prev")
	}
}

// TestBinaryRecordFallbacks pins the exact-or-literal rule: each field
// whose compact form would not reproduce it byte for byte travels
// literally instead, and the record still round-trips.
func TestBinaryRecordFallbacks(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	issue := func(mutate func(*evidence.Token)) *evidence.Token {
		tok, err := realm.Party(org).Issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("fallback")),
			evidence.WithRecipients("urn:org:b"), evidence.WithService("urn:org:b/orders"))
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(tok)
		}
		return tok
	}
	utc := time.Date(2026, 8, 8, 1, 2, 3, 456789, time.UTC)
	stamped, err := realm.StampedIssuer(org).Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("stamped")))
	if err != nil {
		t.Fatal(err)
	}
	stampSig := stamped.Timestamp.Signature.Bytes
	derStamped := *stamped
	derStamp := *stamped.Timestamp
	derStamp.Signature.Bytes = append([]byte{0x30, 0x44}, bytes.Repeat([]byte{0x03}, 0x44)...)
	derStamped.Timestamp = &derStamp
	der := append([]byte{0x30, 0x45}, bytes.Repeat([]byte{0x02}, 0x45)...) // a DER-length ECDSA signature
	for _, tc := range []struct {
		name    string
		at      time.Time
		dir     store.Direction
		note    string
		tok     *evidence.Token
		literal string // text the frame must carry as is
		absent  string // text the frame must not carry
		// follows: the frame follows a leader of its run, issued by org to
		// urn:org:b, whose parties and signer it may take.
		follows bool
	}{
		{name: "compact baseline", at: utc, dir: store.Generated, tok: issue(nil)},
		{name: "non-UTC at", at: utc.In(time.FixedZone("CEST", 2*3600)), dir: store.Generated, tok: issue(nil)},
		{name: "sub-minute zone offset", at: utc.In(time.FixedZone("LMT", 1172)), dir: store.Generated, tok: issue(nil),
			literal: "2026-08-08T01:21:35.000456789+00:19"},
		{name: "year outside the nanosecond range", at: time.Date(1500, 1, 2, 3, 4, 5, 0, time.UTC), dir: store.Generated,
			tok: issue(func(tok *evidence.Token) { tok.IssuedAt = time.Date(2400, 1, 1, 0, 0, 0, 0, time.UTC) }), literal: "1500-01-02T03:04:05Z"},
		{name: "upper-case hex run id", at: utc, dir: store.Generated,
			tok: issue(func(tok *evidence.Token) { tok.Run = "run-00AABBCC" }), literal: "run-00AABBCC"},
		{name: "odd-length hex run id", at: utc, dir: store.Generated,
			tok: issue(func(tok *evidence.Token) { tok.Run = "run-abc" }), literal: "run-abc"},
		{name: "foreign txn id", at: utc, dir: store.Generated,
			tok: issue(func(tok *evidence.Token) { tok.Txn = "order/2026/17" }), literal: "order/2026/17"},
		{name: "non-hex nonce", at: utc, dir: store.Generated,
			tok: issue(func(tok *evidence.Token) { tok.Nonce = "nonce-value" }), literal: "nonce-value"},
		{name: "upper-case hex nonce", at: utc, dir: store.Generated,
			tok: issue(func(tok *evidence.Token) { tok.Nonce = "67764135F58C6D24" }), literal: "67764135F58C6D24"},
		{name: "hex nonce of another length", at: utc, dir: store.Generated, follows: true,
			tok: issue(func(tok *evidence.Token) { tok.Nonce = "67764135f58c6d2401" })},
		{name: "ECDSA signature in DER", at: utc, dir: store.Received, follows: true,
			tok: issue(func(tok *evidence.Token) {
				tok.Signature.Algorithm, tok.Signature.Bytes = sig.AlgECDSAP256, der
			}), literal: string(append([]byte{byte(len(der))}, der...))},
		{name: "key id not the issuer's plus the leader's suffix", at: utc, dir: store.Received, follows: true,
			tok: issue(func(tok *evidence.Token) { tok.Signature.KeyID += "-2" }), literal: "#key-2"},
		{name: "three parties", at: utc, dir: store.Received, follows: true,
			tok: issue(func(tok *evidence.Token) { tok.Recipients = []id.Party{"urn:org:b", "urn:org:c"} }), literal: "urn:org:c"},
		{name: "parties not mirrored", at: utc, dir: store.Received, follows: true,
			tok: issue(func(tok *evidence.Token) { tok.Issuer, tok.Recipients = "urn:org:b", []id.Party{"urn:org:c"} }), literal: "urn:org:c"},
		{name: "empty nonce", at: utc, dir: store.Generated,
			tok: issue(func(tok *evidence.Token) { tok.Nonce = "" })},
		{name: "unknown kind word", at: utc, dir: store.Generated,
			tok: issue(func(tok *evidence.Token) { tok.Kind = "nr-future" }), literal: "nr-future"},
		{name: "unknown direction word", at: utc, dir: "relayed", tok: issue(nil), literal: "relayed"},
		{name: "key id not rooted at a party", at: utc, dir: store.Received,
			tok: issue(func(tok *evidence.Token) { tok.Signature.KeyID = "hsm:slot-7" }), literal: "hsm:slot-7"},
		{name: "service not rooted at a party", at: utc, dir: store.Received,
			tok: issue(func(tok *evidence.Token) { tok.Service = "svc:orders" }), literal: "svc:orders"},
		{name: "service rooted at a later recipient", at: utc, dir: store.Received,
			tok: issue(func(tok *evidence.Token) {
				tok.Recipients = []id.Party{"urn:org:b", "urn:org:c"}
				tok.Service = "urn:org:c/ledger"
			}), literal: "/ledger"},
		{name: "batch-signed", at: utc, dir: store.Generated,
			tok: issue(func(tok *evidence.Token) {
				tok.Signature.BatchRoot = []byte{7, 8}
				tok.Signature.BatchPath = [][]byte{{9}, nil, {}}
				tok.Signature.BatchIndex = 3
			})},
		{name: "nil and empty signature bytes", at: utc, dir: store.Generated,
			tok: issue(func(tok *evidence.Token) { tok.Signature.Bytes = nil })},
		{name: "time-stamped", at: utc, dir: store.Generated, tok: stamped,
			literal: string(stampSig), absent: string(append([]byte{byte(len(stampSig))}, stampSig...))},
		{name: "time-stamped, stamp signature in DER", at: utc, dir: store.Generated, tok: &derStamped,
			literal: string(append([]byte{byte(len(derStamp.Signature.Bytes))}, derStamp.Signature.Bytes...))},
		{name: "invalid UTF-8 note, normalised", at: utc, dir: store.Generated, note: "n\xffote", tok: issue(nil), literal: "n\uFFFDote"},
	} {
		if tc.follows {
			checkFollowerFallback(t, tc.name, issue(func(lead *evidence.Token) { lead.Run = tc.tok.Run }), tc.at, tc.dir, tc.tok, tc.literal)
			continue
		}
		rec, err := store.NextRecord(41, sig.Sum([]byte("prev")), tc.at, tc.dir, tc.tok, tc.note)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		frame, err := store.AppendRecordBinary(nil, rec)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		dec, _, err := store.DecodeRecordFrame(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		checkSameRecord(t, tc.name, rec, dec)
		if tc.literal != "" && !bytes.Contains(frame, []byte(tc.literal)) {
			t.Fatalf("%s: frame does not carry %q literally", tc.name, tc.literal)
		}
		if tc.absent != "" && bytes.Contains(frame, []byte(tc.absent)) {
			t.Fatalf("%s: frame carries %q", tc.name, tc.absent)
		}
	}
}

// checkFollowerFallback writes tok's record as a follower of lead's and
// holds it to the fallback rule: the follower reads back as written, and
// carries literal as is.
func checkFollowerFallback(t *testing.T, name string, lead *evidence.Token, at time.Time, dir store.Direction, tok *evidence.Token, literal string) {
	t.Helper()
	var c chain
	c.add(t, at, store.Generated, lead, "")
	c.add(t, at, dir, tok, "")
	data, err := store.AppendFrameRun(nil, c)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	var got []*store.Record
	if _, _, _, err := store.DecodeSegmentData(data, func(rec *store.Record, _ int64) error {
		got = append(got, rec)
		return nil
	}); err != nil || len(got) != 2 {
		t.Fatalf("%s: decode: %d records, err %v", name, len(got), err)
	}
	checkSameRecord(t, name, c[1], got[1])
	offs := frameOffsets(t, data)
	if h := headOf(t, data[offs[1]:offs[2]]); !h.follower() {
		t.Fatalf("%s: the record does not follow its leader", name)
	}
	if literal != "" && !bytes.Contains(data[offs[1]:], []byte(literal)) {
		t.Fatalf("%s: follower frame does not carry %q literally", name, literal)
	}
}

// TestBinaryV1SegmentStillDecodes reads a version-1 segment written by
// the build before the format changed (testdata/v1, with the canonical
// JSON of each record beside it): nothing encodes that layout any more,
// and everything written in it must stay readable — as a file, as a
// bare frame run off the wire from an old peer, and re-encoded forward.
func TestBinaryV1SegmentStillDecodes(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile(filepath.Join("testdata", "v1", "golden-v1.seg"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "v1", "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSpace(golden), []byte("\n"))
	var recs []*store.Record
	cv := &store.ChainVerifier{}
	enc, prefix, torn, err := store.DecodeSegmentData(data, func(rec *store.Record, _ int64) error {
		got, err := canon.Marshal(rec)
		if err != nil {
			return err
		}
		if i := len(recs); i >= len(want) || !bytes.Equal(got, want[i]) {
			t.Fatalf("v1 record %d: canonical projection drifted:\n got %s", i, got)
		}
		recs = append(recs, rec)
		return cv.Check(rec)
	})
	if err != nil || torn || enc != store.EncBinaryV1 || prefix != int64(len(data)) || len(recs) != len(want) {
		t.Fatalf("v1 scan: %d of %d records enc=%v prefix=%d torn=%v err=%v", len(recs), len(want), enc, prefix, torn, err)
	}
	// An old peer pushes bare version-1 frames, no header.
	n := 0
	if err := store.DecodeFrameRun(data[store.SegmentHeaderLen:], func(rec *store.Record) error {
		checkSameRecord(t, fmt.Sprintf("bare v1 frame %d", n), recs[n], rec)
		n++
		return nil
	}); err != nil || n != len(recs) {
		t.Fatalf("bare v1 frame run: %d records, err %v", n, err)
	}
	// Re-encoded in the current format, the same records come back with
	// the same hashes, in fewer bytes.
	run, err := store.AppendFrameRun(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(run) >= len(data) {
		t.Fatalf("current format takes %d bytes, version 1 took %d", len(run), len(data))
	}
	n = 0
	if err := store.DecodeFrameRun(run, func(rec *store.Record) error {
		checkSameRecord(t, fmt.Sprintf("re-encoded record %d", n), recs[n], rec)
		n++
		return nil
	}); err != nil || n != len(recs) {
		t.Fatalf("re-encoded run: %d records, err %v", n, err)
	}
	// A run cut short is an error on the wire, not a recovery.
	if err := store.DecodeFrameRun(run[:len(run)-5], func(*store.Record) error { return nil }); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("truncated run = %v, want ErrBinary", err)
	}
}

// TestBinarySegmentScan writes golden records as one binary segment and
// checks full-scan agreement, torn-tail recovery at every truncation
// point, and version-byte confusion.
func TestBinarySegmentScan(t *testing.T) {
	t.Parallel()
	recs := goldenRecords(t)
	hdr := store.SegmentHeader()
	data := hdr[:]
	var err error
	for _, rec := range recs {
		if data, err = store.AppendRecordBinary(data, rec); err != nil {
			t.Fatal(err)
		}
	}

	var seen []*store.Record
	enc, prefix, torn, err := store.DecodeSegmentData(data, func(rec *store.Record, _ int64) error {
		seen = append(seen, rec)
		return nil
	})
	if err != nil || torn || enc != store.EncBinary || prefix != int64(len(data)) {
		t.Fatalf("scan: enc=%v prefix=%d torn=%v err=%v", enc, prefix, torn, err)
	}
	if len(seen) != len(recs) {
		t.Fatalf("scan yielded %d records, want %d", len(seen), len(recs))
	}

	// Every proper truncation of the final frame must read as torn with
	// the prefix ending exactly before that frame.
	lastStart := int64(len(data))
	{
		var offs []int64
		off := int64(store.SegmentHeaderLen)
		_, _, _, _ = store.DecodeSegmentData(data, func(_ *store.Record, n int64) error {
			offs = append(offs, off)
			off += n
			return nil
		})
		lastStart = offs[len(offs)-1]
	}
	for cut := lastStart + 1; cut < int64(len(data)); cut += 7 {
		_, prefix, torn, err := store.DecodeSegmentData(data[:cut], func(*store.Record, int64) error { return nil })
		if err != nil || !torn || prefix != lastStart {
			t.Fatalf("cut %d: prefix=%d torn=%v err=%v, want torn at %d", cut, prefix, torn, err, lastStart)
		}
	}
	// A torn header is torn, not corrupt.
	for cut := 0; cut < store.SegmentHeaderLen; cut++ {
		_, prefix, torn, err := store.DecodeSegmentData(data[:cut], func(*store.Record, int64) error { return nil })
		if cut == 0 {
			if err != nil || torn || prefix != 0 {
				t.Fatalf("empty: prefix=%d torn=%v err=%v", prefix, torn, err)
			}
			continue
		}
		if err != nil || !torn || prefix != 0 {
			t.Fatalf("header cut %d: prefix=%d torn=%v err=%v", cut, prefix, torn, err)
		}
	}
	// Version-byte confusion is a hard error, never a silent misread.
	confused := append([]byte{}, data...)
	confused[3] = store.SegmentVersion + 1
	if _, _, _, err := store.DecodeSegmentData(confused, func(*store.Record, int64) error { return nil }); !errors.Is(err, store.ErrSegmentVersion) {
		t.Fatalf("future version = %v, want ErrSegmentVersion", err)
	}
	// Flipping a payload byte inside a complete frame is corruption,
	// wherever it lands: the frame's checksum covers every body byte.
	corrupt := append([]byte{}, data...)
	corrupt[store.SegmentHeaderLen+8] ^= 0xFF
	if _, _, _, err := store.DecodeSegmentData(corrupt, func(*store.Record, int64) error { return nil }); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("corrupted frame = %v, want ErrBinary", err)
	}
}

// TestChainerMatchesNextRecord pins the group-commit chainer to the
// reference constructor: same inputs, byte-identical records.
func TestChainerMatchesNextRecord(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	run := id.NewRun()
	at := time.Date(2026, 8, 8, 4, 5, 6, 0, time.UTC)
	ch := store.NewChainer(0, sig.Digest{})
	seq, prev := uint64(0), sig.Digest{}
	for i := 1; i <= 5; i++ {
		tok := newToken(t, realm, run, i)
		want, err := store.NextRecord(seq, prev, at, store.Generated, tok, "n\xffote")
		if err != nil {
			t.Fatal(err)
		}
		got, err := ch.Next(at, store.Generated, tok, "n\xffote")
		if err != nil {
			t.Fatal(err)
		}
		w, _ := canon.Marshal(want)
		g, _ := canon.Marshal(got)
		if !bytes.Equal(w, g) || want.Hash != got.Hash {
			t.Fatalf("record %d: chainer diverged from NextRecord:\n want %s\n  got %s", i, w, g)
		}
		seq, prev = want.Seq, want.Hash
	}
	if s, h := ch.Position(); s != seq || h != prev {
		t.Fatalf("chainer position (%d) != reference (%d)", s, seq)
	}
}

// FuzzBinaryRecordDecode feeds arbitrary bytes to the binary segment
// scanner. Malformed input must yield an error or a torn verdict —
// never a panic, and never an allocation sized by an attacker-chosen
// length prefix. Anything that decodes must re-encode to a frame that
// decodes to the same canonical JSON.
func FuzzBinaryRecordDecode(f *testing.F) {
	hdr := store.SegmentHeader()
	f.Add(hdr[:])
	f.Add(hdr[:2])                                                                    // torn header
	f.Add([]byte{'N', 'R', 'S', store.SegmentVersion + 1})                            // version confusion
	f.Add(append(hdr[:], 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)) // huge length claim
	f.Add([]byte(`{"seq":1}` + "\n"))                                                 // JSON segment
	// One well-formed frame as the structural seed.
	realm := testpki.MustRealm(org)
	tok, err := realm.Party(org).Issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("fuzz")))
	if err != nil {
		f.Fatal(err)
	}
	rec, err := store.NextRecord(0, sig.Digest{}, time.Unix(1754600000, 0).UTC(), store.Generated, tok, "seed")
	if err != nil {
		f.Fatal(err)
	}
	seed, err := store.AppendRecordBinary(hdr[:], rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn tail
	// A run whose second frame elides its Prev, and that frame orphaned
	// at the head of a segment.
	next, err := store.NextRecord(rec.Seq, rec.Hash, rec.At, store.Received, tok, "")
	if err != nil {
		f.Fatal(err)
	}
	run, err := store.AppendFrameRun(nil, []*store.Record{rec, next})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(run)
	f.Add(append(hdr[:], run[len(seed):]...))
	// Hand-built version-2 frames that stop inside their flag bytes or
	// claim more identifier bytes than the frame holds.
	frame := func(body ...byte) []byte { return append(append(hdr[:], byte(len(body))), body...) }
	prefix := append(append([]byte{0x03, 1}, make([]byte, 32)...), 0, 1)   // flags, seq, prev, at, direction
	f.Add(frame(0x03))                                                     // record flags only
	f.Add(frame(0xE3, 1))                                                  // reserved record flag bits
	f.Add(frame(append(prefix, 0x80)...))                                  // token bitmap cut mid-varint
	f.Add(frame(append(prefix, 0xFF, 0xFF, 0x7F)...))                      // every token flag, nothing after
	f.Add(frame(append(prefix, 0x00, 1, 0xFD, 0xFF, 0xFF, 0xFF, 0x0F)...)) // over-long packed run id
	f.Add(frame(append(prefix, 0x00, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)...)) // over-long literal kind
	// Version-3 shapes: a coded note, what the decoder must refuse, and
	// version-3 flag bits under a version-2 header.
	fs := hostileFrames(f)
	f.Add(append(hdr[:], fs.control...))
	f.Add(append(append(hdr[:], fs.control...), fs.elided...))
	f.Add(append([]byte{'N', 'R', 'S', 2}, fs.control...))
	for _, bad := range fs.hostile {
		f.Add(append(hdr[:], bad...))
	}
	// Version-4 shapes: a leader with two followers, the golden segment
	// (every borrow bit both ways), and followers that point where no
	// leader is or borrow what theirs cannot lend.
	followers, _, _ := followerRun(f)
	f.Add(followers)
	if golden, err := os.ReadFile(filepath.Join("testdata", "v4", "golden-v4.seg")); err == nil {
		f.Add(golden)
	}
	for _, bad := range hostileFollowers(f) {
		f.Add(bad.data)
	}
	// Version-5 shapes: the golden segment, whose journaled JSON notes are
	// trees (one naming its leader's digest) or stay text, and the same
	// records as format 4 wrote them.
	for _, name := range []string{"golden-v5.seg", "golden-v4.seg"} {
		if golden, err := os.ReadFile(filepath.Join("testdata", "v5", name)); err == nil {
			f.Add(golden)
		}
	}
	// Version-6 shapes: the golden segment, whose batch-signed tokens
	// borrow their signature from a leader or a follower before them, a
	// server's step with its response origin borrowing, and that step with
	// the plainly signed token after it claiming to borrow too.
	if golden, err := os.ReadFile(filepath.Join("testdata", "v6", "golden-v6.seg")); err == nil {
		f.Add(golden)
	}
	mates, mOffs, _ := mateRun(f)
	f.Add(mates)
	f.Add(remask(mates, mOffs[3], mOffs[4], headOf(f, mates[mOffs[3]:mOffs[4]]).mask|bSig).data)
	// Version-7 shapes (testdata/fuzz holds more): the golden segment,
	// whose followers lean on leaders of earlier writes across other runs'
	// frames, and a leader as far back as the ring reaches.
	if golden, err := os.ReadFile(filepath.Join("testdata", "v7", "golden-v7.seg")); err == nil {
		f.Add(golden)
	}
	ring, _, _ := ringRun(f, ringSize-1)
	f.Add(ring)
	// Version-8 shapes (testdata/fuzz holds more): the golden segment,
	// whose opening frames take their parties from a party source, a row
	// of runs as long as the ring reaches, and plain frames naming a party
	// source they may not take their parties from.
	if golden, err := os.ReadFile(filepath.Join("testdata", "v8", "golden-v8.seg")); err == nil {
		f.Add(golden)
	}
	sourced, _, _ := sourcedRuns(f, ringSize+2)
	f.Add(sourced)
	for _, bad := range hostileSources(f) {
		f.Add(bad.data)
	}
	// Version-9 shapes (testdata/fuzz holds more): the golden segment,
	// whose tokens take their signer and parties from the frames they lean
	// on, and frames asking their lender for what it cannot lend.
	if golden, err := os.ReadFile(filepath.Join("testdata", "v9", "golden-v9.seg")); err == nil {
		f.Add(golden)
	}
	for _, bad := range hostileV9(f) {
		f.Add(bad.data)
	}
	// Version-10 shapes (testdata/fuzz holds more): the golden segment,
	// whose receipts rebuild their digests from the response origin they
	// name and whose journal records from their notes, and receipts naming
	// what is no response origin of their leader.
	if golden, err := os.ReadFile(filepath.Join("testdata", "v10", "golden-v10.seg")); err == nil {
		f.Add(golden)
	}
	receipts, _, _ := receiptRun(f)
	f.Add(receipts)
	for _, bad := range hostileV10(f) {
		f.Add(bad.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		_, prefix, _, err := store.DecodeSegmentData(data, func(rec *store.Record, _ int64) error {
			frame, eerr := store.AppendRecordBinary(nil, rec)
			if eerr != nil {
				return nil // unencodable decoded record (e.g. bad time) is fine
			}
			back, _, derr := store.DecodeRecordFrame(frame)
			if derr != nil || back == nil {
				t.Fatalf("re-encoded frame does not decode: %v", derr)
			}
			a, aerr := canon.Marshal(rec)
			b, berr := canon.Marshal(back)
			if aerr == nil && berr == nil && !bytes.Equal(a, b) {
				t.Fatalf("round-trip drift:\n %s\n %s", a, b)
			}
			return nil
		})
		if err == nil && prefix > int64(len(data)) {
			t.Fatalf("prefix %d beyond input %d", prefix, len(data))
		}
		// The keyed read of every slot the length prefixes mark out — which
		// sends a follower looking for its leader anywhere before it, and
		// for its mate in the slot before — must fail or decode, never read
		// outside data.
		if enc := store.DetectEncoding(data); enc != store.EncJSON && enc != store.EncUnknown {
			var prev sig.Digest
			prevStart := int64(-1)
			for off := int64(store.SegmentHeaderLen); off < int64(len(data)); {
				n, w := binary.Uvarint(data[off:])
				end := off + int64(w) + int64(n)
				if w <= 0 || n > uint64(len(data)) || end > int64(len(data)) {
					break
				}
				_, _ = store.DecodeRecordData(data, off, end, enc, 1, &prev, prevStart)
				prevStart, off = off, end
			}
		}
	})
}
