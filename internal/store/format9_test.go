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

// callRun is a call's request origin and the server's receipt for it, as
// one push: the receipt follows the request, mirroring its parties and
// taking its signer. edit changes the request before it is chained.
func callRun(tb testing.TB, edit func(*evidence.Token)) (data []byte, offs []int64) {
	tb.Helper()
	const client, server = id.Party("urn:org:client"), id.Party("urn:org:server")
	realm := testpki.MustRealm(client, server)
	run := id.NewRun()
	issue := func(p, to id.Party, kind evidence.Kind, step int) *evidence.Token {
		tok, err := realm.Party(p).Issuer.Issue(kind, run, step, sig.Sum([]byte("request")), evidence.WithRecipients(to))
		if err != nil {
			tb.Fatal(err)
		}
		return tok
	}
	req := issue(client, server, evidence.KindNRO, 1)
	if edit != nil {
		edit(req)
	}
	var c chain
	at := time.Unix(1760745600, 0).UTC()
	c.add(tb, at, store.Received, req, "request origin")
	c.add(tb, at.Add(time.Millisecond), store.Generated, issue(server, client, evidence.KindNRR, 2), "request receipt")
	data, err := store.AppendFrameRun(nil, c)
	if err != nil {
		tb.Fatal(err)
	}
	return data, frameOffsets(tb, data)
}

// hostileV9 are runs that end in a frame whose borrow mask asks its
// lender for what the format-9 rules say it cannot lend: parties mirrored
// from a leader of two recipients, a signer from a leader whose key id
// does not extend its issuer, a signer beside a signature borrowed from a
// mate — and format-9 frames under a version-8 header, whose masks that
// version reads otherwise. Each keeps valid checksums, so the refusal is
// the decoder's own.
func hostileV9(tb testing.TB) map[string]hostileRun {
	tb.Helper()
	data, offs := callRun(tb, nil)
	if h := headOf(tb, data[offs[1]:offs[2]]); h.mask&evidence.PartyMask != bMirrored || h.mask&bSigner == 0 {
		tb.Fatalf("control: the receipt takes %#x from its request", h.mask)
	}
	twoTo, tOffs := callRun(tb, func(tok *evidence.Token) { tok.Recipients = append(tok.Recipients, "urn:org:witness") })
	unrooted, uOffs := callRun(tb, func(tok *evidence.Token) { tok.Signature.KeyID = "hsm:slot-7" })
	mates, mOffs, _ := mateRun(tb)
	asV8 := append([]byte(nil), data...)
	asV8[3] = 8
	remaskWith := func(data []byte, offs []int64, i int, set byte) hostileRun {
		h := headOf(tb, data[offs[i]:offs[i+1]])
		return remask(data, offs[i], offs[i+1], h.mask&^evidence.PartyMask|set)
	}
	return map[string]hostileRun{
		"mirrored beside two recipients": remaskWith(twoTo, tOffs, 1, bMirrored|bSigner),
		"signer from an unrooted leader": remaskWith(unrooted, uOffs, 1, bMirrored|bSigner),
		"signer beside a mate":           remaskWith(mates, mOffs, 2, headOf(tb, mates[mOffs[2]:mOffs[3]]).mask&evidence.PartyMask|bSigner),
		"format-9 frames under v8":       {asV8, offs[1], offs[2]},
	}
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
		prev := sig.Sum([]byte("any predecessor"))
		if rec, err := store.DecodeRecordData(bad.data, bad.start, bad.end, store.DetectEncoding(bad.data), 2, &prev, offs[len(offs)-3]); !errors.Is(err, canon.ErrBinary) {
			t.Errorf("%s: keyed read = %v, err %v, want ErrBinary", name, rec, err)
		}
	}
}
