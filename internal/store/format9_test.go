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

// goldenV9Extra issues the records the format-9 golden segment holds
// after the format-8 golden's, chained on from after:
//
//	a three-party proposal             {Proposal}  frame 22
//	the witness's decision             {Decision}  frame 23
//	the client's outcome               {Outcome}   frame 24
//
// The proposal names a party its party source lacks, so its parties are
// references with one written out; the decision's issuer and recipient
// are references into the proposal's three parties. The outcome is signed
// under another algorithm, with a signature that is not 64 bytes, and
// carries a nonce that is not generated hex: its signer, signature length
// and nonce are written out.
func goldenV9Extra(t *testing.T, after *store.Record) []*store.Record {
	t.Helper()
	const client, server, witness = id.Party("urn:org:client"), id.Party("urn:org:server"), id.Party("urn:org:witness")
	realm := testpki.MustRealm(client, server, witness)
	run := id.NewRun()
	issue := func(p id.Party, kind evidence.Kind, step int, what string, to ...id.Party) *evidence.Token {
		tok, err := realm.Party(p).Issuer.Issue(kind, run, step, sig.Sum([]byte(what)), evidence.WithRecipients(to...),
			evidence.WithService("urn:org:server/echo"))
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	outcome := issue(client, evidence.KindOutcome, 3, "outcome", server, witness)
	// The encoding, not the signature, is under test.
	outcome.Signature.Algorithm = sig.AlgECDSAP256
	outcome.Signature.Bytes = bytes.Repeat([]byte{0x30}, 71)
	outcome.Nonce = "nonce-7"
	c := chain{after}
	c.add(t, after.At.Add(time.Millisecond), store.Generated, issue(client, evidence.KindProposal, 1, "proposal", server, witness), "free text")
	c.add(t, after.At.Add(2*time.Millisecond), store.Received, issue(witness, evidence.KindDecision, 2, "decision", client), "decision (accept=true)")
	c.add(t, after.At.Add(3*time.Millisecond), store.Generated, outcome, "outcome (agreed=true)")
	return c[1:]
}

// TestBinaryV9GoldenSegment holds format 9 frozen: the records of
// testdata/v9/golden.jsonl — the format-8 golden's, then goldenV9Extra's
// — written by the build before format 10 as testdata/v9/golden-v9.seg,
// decode from it, scanned and by keyed slot, to the same canonical JSON,
// hashes and signatures, and this build lays them out the same way
// (checkReencoded). Followers, signature borrowers and party sources are
// where format 8 put them; each frame that leans on another takes its
// signer from it where its key id is its issuer's plus the lender's
// suffix, and its parties the same, mirrored or by reference; a generated
// nonce and an Ed25519 signature travel without a header. The records
// format 8 froze take fewer bytes.
func TestBinaryV9GoldenSegment(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "v9")
	_, v8 := readRecords(t, filepath.Join("testdata", "v8", "golden.jsonl"))
	jsonl, golden := readRecords(t, filepath.Join(dir, "golden.jsonl"))
	frozen, err := os.ReadFile(filepath.Join(dir, "golden-v9.seg"))
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSpace(jsonl), []byte("\n"))
	if len(golden) != len(v8)+3 || frozen[3] != 9 {
		t.Fatalf("golden.jsonl holds %d records, want format 8's %d and 3 more; the frozen file says version %d", len(golden), len(v8), frozen[3])
	}
	for i := range v8 {
		checkSameRecord(t, fmt.Sprintf("v9 golden record %d against v8", i), v8[i], golden[i])
	}
	recs, offs := scanGolden(t, "v9", frozen, want, store.EncBinaryV9)
	for i, rec := range recs {
		var prev *sig.Digest
		if i > 0 {
			prev = &recs[i-1].Hash
		}
		dec, err := store.DecodeRecordData(frozen, offs[i], offs[i+1], store.EncBinaryV9, rec.Seq, prev, prevAt(offs, i))
		if err != nil {
			t.Fatalf("keyed decode of v9 record %d: %v", i, err)
		}
		checkSameRecord(t, fmt.Sprintf("keyed v9 record %d", i), rec, dec)
	}
	encoded, _ := encodeFile(t, recs, false)
	checkReencoded(t, "v9 re-encoded", frozen, offs, encoded, want)

	// The layout is format 8's: which frame each follows (-1: plain),
	// which borrow a signature, and which frame each plain frame takes its
	// parties from.
	leader := []int{-1, -1, 1, 1, 0, 0, 0, 1, -1, 8, 8, 8, -1, -1, 13, 13, 13, 13, -1, -1, -1, 19, -1, 22, 22}
	borrows := map[int]bool{10: true}
	source := map[int]int{1: 0, 8: 0, 12: 0, 13: 0, 19: 0, 20: 18, 22: 0}
	for i, lead := range leader {
		h := headOf(t, frozen[offs[i]:offs[i+1]])
		src, sourced := source[i]
		if h.follower() != (lead >= 0) || (lead >= 0 && h.back != uint64(offs[i]-offs[lead])) || (lead >= 0 && (h.mask&bSig != 0) != borrows[i]) ||
			h.sourced() != sourced || (sourced && h.back != uint64(offs[i]-offs[src])) {
			t.Fatalf("frame %d: follower=%v sourced=%v back=%d mask=%#x, want leader %d, party source %d (%v)", i, h.follower(), h.sourced(), h.back, h.mask, lead, src, sourced)
		}
	}
	spells := func(i int, s string) bool { return bytes.Contains(frozen[offs[i]:offs[i+1]], []byte(s)) }
	mask := func(i int) byte { return headOf(t, frozen[offs[i]:offs[i+1]]).mask }
	// The call under a rotated key writes its key id and algorithm; the
	// server's receipt for it, a follower, mirrors the call's parties, and
	// writes its own signer too: the call's key-id suffix is not its.
	if mask(19)&bSigner != 0 || !spells(19, recs[19].Token.Signature.KeyID[len(recs[19].Token.Issuer):]) {
		t.Fatal("the call signed under a rotated key takes its signer from its source")
	}
	if m := mask(21); m&bSigner != 0 || m&evidence.PartyMask != bMirrored || !spells(21, "#key") {
		t.Fatalf("the receipt takes %#x from the call, want the call's parties mirrored and not its signer", m)
	}
	// The proposal writes the one party its source lacks; the decision
	// refers to the proposal's parties; the outcome writes its signer, its
	// signature's length and its nonce.
	if m := mask(22); m&evidence.PartyMask != bReferenced || !spells(22, "urn:org:witness") || spells(22, "urn:org:client") {
		t.Fatalf("the proposal takes %#x from its source, want its parties by reference and the witness written out", m)
	}
	if m := mask(23); m&evidence.PartyMask != bReferenced || spells(23, "urn:org:") || m&bSigner == 0 {
		t.Fatalf("the decision takes %#x from the proposal, want its parties by reference and its signer", m)
	}
	if m := mask(24); m&bSigner != 0 || m&evidence.PartyMask != bSame || !spells(24, "nonce-7") || !spells(24, "#key") {
		t.Fatalf("the outcome takes %#x from the proposal, want its parties and no signer", m)
	}
	count, err := store.CountFrames(frozen)
	if err != nil || count.Frames != len(recs) || count.Followers != 16 || count.SigBorrowers != 1 || count.PartyBorrowers != len(source) {
		t.Fatalf("CountFrames = %+v, err %v, want %d frames, 16 followers, 1 borrowing a signature, %d its parties", count, err, len(recs), len(source))
	}
	if p, f := count.Plain, count.Follow; p.Parties[store.PartiesSpelled] != len(leader)-16-len(source) || f.Parties[store.PartiesSpelled] != 0 ||
		f.Parties[store.PartiesMirrored] == 0 || f.Parties[store.PartiesSame] == 0 || p.Signers != len(source)-1 || f.Signers != 16-1-2 {
		t.Fatalf("CountFrames lending: plain %+v, followers %+v", p, f)
	}

	// The records format 8 froze, frame by frame: every frame that leans
	// on another saves at least its signer's or its parties' bytes, and
	// every frame two bytes of fixed-shape headers.
	v8seg, err := os.ReadFile(filepath.Join("testdata", "v8", "golden-v8.seg"))
	if err != nil {
		t.Fatal(err)
	}
	v8offs := frameOffsets(t, v8seg)
	saved := int64(0)
	for i := range v8 {
		was, is := v8offs[i+1]-v8offs[i], offs[i+1]-offs[i]
		if floor := int64(2); was-is < floor {
			t.Fatalf("frame %d takes %d bytes, %d in format 8: want at least %d saved", i, is, was, floor)
		}
		saved += was - is
	}
	if saved < 8*int64(len(v8)) {
		t.Fatalf("format 9 saves %d bytes over format 8's %d frames, want at least 8 a frame", saved, len(v8))
	}
	// Version 8 reads the masks otherwise: the frames are refused, or read
	// as other records, under its header.
	asV8 := append([]byte(nil), frozen...)
	asV8[3] = 8
	if _, _, _, err := store.DecodeSegmentData(asV8, func(*store.Record, int64) error { return nil }); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("format-9 frames under a v8 header = %v, want ErrBinary", err)
	}
}

// hostileV9 are the frozen runs testdata/v9/refused-*.seg, written by the
// build of segment format 9 and checked in as bytes so that no later
// format can change what they hold. Each ends in a frame whose borrow
// mask asks its lender for what the format-9 rules say it cannot lend:
// parties mirrored from a leader of two recipients, a signer from a
// leader whose key id does not extend its issuer, a signer beside a
// signature borrowed from a mate — and format-9 frames under a version-8
// header, whose masks that version reads otherwise. Each keeps valid
// checksums, so the refusal is the decoder's own. The same bytes are the
// v9-* seeds of testdata/fuzz/FuzzBinaryRecordDecode.
func hostileV9(tb testing.TB) map[string]hostileRun {
	tb.Helper()
	runs := make(map[string]hostileRun)
	for _, name := range []string{"mirrored-beside-two-recipients", "signer-from-an-unrooted-leader", "signer-beside-a-mate", "frames-under-v8-header"} {
		data, err := os.ReadFile(filepath.Join("testdata", "v9", "refused-"+name+".seg"))
		if err != nil {
			tb.Fatal(err)
		}
		offs := frameOffsets(tb, data)
		runs[name] = hostileRun{data, offs[len(offs)-2], offs[len(offs)-1]}
	}
	return runs
}

// TestBinaryV9MaskRefusals: what hostileV9 asks of a lender is corruption
// to a scan and to a keyed read alike — an error, never a panic or a
// record the frame does not hold.
func TestBinaryV9MaskRefusals(t *testing.T) {
	t.Parallel()
	for name, bad := range hostileV9(t) {
		n := 0
		if _, _, _, err := store.DecodeSegmentData(bad.data, func(*store.Record, int64) error { n++; return nil }); !errors.Is(err, canon.ErrBinary) {
			t.Errorf("%s: scan read %d records, err %v, want ErrBinary", name, n, err)
		}
		offs := frameOffsets(t, bad.data)
		// Control: but for the run under a v8 header, each is format-9
		// bytes whose every frame before the last reads.
		if enc := store.DetectEncoding(bad.data); enc != store.EncBinaryV8 && (enc != store.EncBinaryV9 || n != len(offs)-2) {
			t.Errorf("%s: %v, scan read %d of the %d frames before the refused one; want format 9 and all", name, enc, n, len(offs)-2)
		}
		prev := sig.Sum([]byte("any predecessor"))
		if rec, err := store.DecodeRecordData(bad.data, bad.start, bad.end, store.DetectEncoding(bad.data), 2, &prev, offs[len(offs)-3]); !errors.Is(err, canon.ErrBinary) {
			t.Errorf("%s: keyed read = %v, err %v, want ErrBinary", name, rec, err)
		}
	}
}
