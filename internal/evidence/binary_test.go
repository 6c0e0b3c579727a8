package evidence_test

import (
	"bytes"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// batchOf issues n tokens of one run under one batch signature.
func batchOf(t *testing.T, issuer *evidence.Issuer, n int) []*evidence.Token {
	t.Helper()
	run := id.NewRun()
	reqs := make([]evidence.TokenRequest, n)
	for i := range reqs {
		reqs[i] = evidence.TokenRequest{Kind: evidence.KindNRR, Run: run, Step: i, Digest: sig.Sum([]byte{byte(i)})}
	}
	toks, err := issuer.IssueBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

// TestMatesWithExactOrLiteral: a token mates with the one before it only
// when the signature rebuilt from that one is its own byte for byte —
// siblings of one batch, in either order — and with nothing else.
func TestMatesWithExactOrLiteral(t *testing.T) {
	t.Parallel()
	issuer, _ := batchFixture(t)
	toks := batchOf(t, issuer, 4)
	plain, err := issuer.Issue(evidence.KindNRO, toks[0].Run, 9, sig.Sum([]byte("plain")))
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}} {
		if !toks[pair[1]].MatesWith(toks[pair[0]]) {
			t.Fatalf("leaf %d does not mate with its sibling %d", pair[1], pair[0])
		}
	}
	edited := func(edit func(s *sig.Signature)) *evidence.Token {
		c := *toks[1]
		c.Signature.BatchPath = append([][]byte(nil), c.Signature.BatchPath...)
		edit(&c.Signature)
		return &c
	}
	for name, tok := range map[string]*evidence.Token{
		"leaf that is not the sibling": toks[2],
		"plain signature":              plain,
		"stored batch root":            edited(func(s *sig.Signature) { s.BatchRoot = make([]byte, sig.DigestSize) }),
		"forward-secure period":        edited(func(s *sig.Signature) { s.Period = 1 }),
		"another key id":               edited(func(s *sig.Signature) { s.KeyID += "x" }),
		"empty where nil":              edited(func(s *sig.Signature) { s.BatchPath[1] = nil }),
		"another path":                 edited(func(s *sig.Signature) { s.BatchPath[1] = make([]byte, sig.DigestSize) }),
		"shorter path":                 edited(func(s *sig.Signature) { s.BatchPath = s.BatchPath[:1] }),
	} {
		if tok.MatesWith(toks[0]) {
			t.Errorf("%s: mates with leaf 0", name)
		}
	}
	if toks[1].MatesWith(plain) {
		t.Error("a token mates with a plainly signed one")
	}
	empty := *toks[1]
	empty.Signature.Bytes = []byte{}
	nilMate := *toks[0]
	nilMate.Signature.Bytes = nil
	if empty.MatesWith(&nilMate) {
		t.Error("empty signature bytes mate with nil ones")
	}
}

// TestBinaryMateRoundTrip: a token written borrowing its signature from
// its mate spends no byte on it and decodes, given the same mate, to the
// token written — canonical JSON and verification alike. A token that
// wrote its signature, decoded as if it had borrowed it, and one given a
// mate without a batch path are refused.
func TestBinaryMateRoundTrip(t *testing.T) {
	t.Parallel()
	issuer, verifier := batchFixture(t)
	toks := batchOf(t, issuer, 5)
	mate, tok := toks[2], toks[3]
	borrowed, err := tok.AppendBinary(nil, 0, evidence.Lenders{Mate: mate})
	if err != nil {
		t.Fatal(err)
	}
	full, err := tok.AppendBinary(nil, 0, evidence.Lenders{})
	if err != nil {
		t.Fatal(err)
	}
	if saved := len(full) - len(borrowed); saved < len(tok.Signature.Bytes)+len(tok.Signature.BatchPath)*sig.DigestSize ||
		bytes.Contains(borrowed, tok.Signature.Bytes) {
		t.Fatalf("borrowing saves %d bytes, want the signature and its path", saved)
	}
	var got evidence.Token
	r := canon.NewBinReader(borrowed)
	got.DecodeBinary(&r, 0, evidence.Lenders{Mate: mate})
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	want, err := canon.Marshal(tok)
	if err != nil {
		t.Fatal(err)
	}
	if have, err := canon.Marshal(&got); err != nil || !bytes.Equal(have, want) {
		t.Fatalf("rebuilt token drifted:\n want %s\n  got %s", want, have)
	}
	if err := verifier.Verify(&got); err != nil {
		t.Fatalf("rebuilt token does not verify: %v", err)
	}
	plain, err := issuer.Issue(evidence.KindNRO, tok.Run, 9, sig.Sum([]byte("plain")))
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		data []byte
		mate *evidence.Token
	}{
		"mate without a batch path":       {borrowed, plain},
		"signature written, mate claimed": {full, mate},
	} {
		var bad evidence.Token
		r := canon.NewBinReader(c.data)
		bad.DecodeBinary(&r, 0, evidence.Lenders{Mate: c.mate})
		if r.Done() == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestBinaryLendingRoundTrip: a token written beside a lender — as a
// follower of its leader or as a plain frame of its party source — takes
// its signer and its parties from it in the form BorrowFrom picks and
// decodes, given the same lender, to the token written; every field the
// lender cannot give exactly is written out. Parties or a signer asked of
// a lender that cannot give them are refused.
func TestBinaryLendingRoundTrip(t *testing.T) {
	t.Parallel()
	const a, b, c = id.Party("urn:org:a"), id.Party("urn:org:b"), id.Party("urn:org:c")
	at := time.Date(2026, 10, 18, 9, 0, 0, 0, time.UTC)
	ed := func(kid string) sig.Signature {
		return sig.Signature{Algorithm: sig.AlgEd25519, KeyID: kid, Bytes: bytes.Repeat([]byte{7}, sig.FixedBytesLen)}
	}
	lender := &evidence.Token{Kind: evidence.KindNRO, Run: "run-00aa", Txn: "txn-00bb", Step: 1, Issuer: a, Recipients: []id.Party{b},
		Service: "urn:org:b/echo", Digest: sig.Sum([]byte("request")), IssuedAt: at, Nonce: "0123456789abcdef", Signature: ed("urn:org:a#key")}
	token := func(issuer id.Party, to []id.Party, edit func(*evidence.Token)) *evidence.Token {
		tok := *lender
		tok.Step, tok.Issuer, tok.Recipients, tok.Signature = 2, issuer, to, ed(string(issuer)+"#key")
		tok.Nonce, tok.IssuedAt = "fedcba9876543210", at.Add(time.Millisecond)
		if edit != nil {
			edit(&tok)
		}
		return &tok
	}
	for _, tc := range []struct {
		name    string
		tok     *evidence.Token
		parties uint8
		signer  bool
	}{
		{"mirrored", token(b, []id.Party{a}, nil), evidence.PartiesMirrored, true},
		{"the same", token(a, []id.Party{b}, nil), evidence.PartiesSame, true},
		{"three parties", token(a, []id.Party{b, c}, nil), evidence.PartiesReferenced, true},
		{"parties not mirrored", token(b, []id.Party{c}, nil), evidence.PartiesReferenced, true},
		{"no party of the lender's", token(c, []id.Party{"urn:org:d"}, nil), evidence.PartiesSpelled, true},
		{"no recipients", token(a, nil, nil), evidence.PartiesReferenced, true},
		{"another key-id suffix", token(b, []id.Party{a}, func(tok *evidence.Token) { tok.Signature.KeyID += "-2" }), evidence.PartiesMirrored, false},
		{"another algorithm, a DER signature", token(b, []id.Party{a}, func(tok *evidence.Token) {
			tok.Signature.Algorithm, tok.Signature.Bytes = sig.AlgECDSAP256, bytes.Repeat([]byte{0x30}, 71)
		}), evidence.PartiesMirrored, false},
		{"nil signature bytes, a foreign nonce, no txn", token(b, []id.Party{a}, func(tok *evidence.Token) {
			tok.Signature.Bytes, tok.Nonce, tok.Txn = nil, "nonce-x", ""
		}), evidence.PartiesMirrored, true},
	} {
		borrow := tc.tok.BorrowFrom(lender)
		if borrow&evidence.PartyMask != tc.parties || (borrow&evidence.BorrowSigner != 0) != tc.signer {
			t.Fatalf("%s: BorrowFrom = %#x, want parties %#x and signer %v", tc.name, borrow, tc.parties, tc.signer)
		}
		want, err := canon.Marshal(tc.tok)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := tc.tok.AppendBinary(nil, 0, evidence.Lenders{})
		if err != nil {
			t.Fatal(err)
		}
		for _, lend := range []evidence.Lenders{{Leader: lender, Borrow: borrow}, {Source: lender, Borrow: borrow}} {
			data, err := tc.tok.AppendBinary(nil, 0, lend)
			if err != nil {
				t.Fatal(err)
			}
			var got evidence.Token
			r := canon.NewBinReader(data)
			got.DecodeBinary(&r, 0, lend)
			if err := r.Done(); err != nil {
				t.Fatalf("%s: decode: %v", tc.name, err)
			}
			if have, err := canon.Marshal(&got); err != nil || !bytes.Equal(have, want) {
				t.Fatalf("%s: token drifted:\n want %s\n  got %s", tc.name, want, have)
			}
			if len(data) >= len(alone) {
				t.Fatalf("%s: %d bytes beside the lender, %d alone", tc.name, len(data), len(alone))
			}
		}
	}

	// What a lender cannot give.
	mirror := token(b, []id.Party{a}, nil)
	two := *lender
	two.Recipients = []id.Party{b, c}
	unrooted := *lender
	unrooted.Signature.KeyID = "hsm:slot-7"
	for name, c := range map[string]struct {
		lender *evidence.Token
		borrow uint8
	}{
		"mirror of a lender with two recipients": {&two, evidence.PartiesMirrored},
		"same as a lender with other recipients": {&evidence.Token{Run: lender.Run, Issuer: b}, evidence.PartiesSame},
		"signer of an unrooted key id":           {&unrooted, evidence.BorrowSigner},
		"a bit above the mask":                   {lender, 1 << evidence.MaskBits},
	} {
		lend := evidence.Lenders{Leader: c.lender, Borrow: c.borrow}
		data, err := mirror.AppendBinary(nil, 0, evidence.Lenders{Leader: lender, Borrow: c.borrow &^ evidence.BorrowSigner & (1<<evidence.MaskBits - 1)})
		if err != nil {
			t.Fatal(err)
		}
		var bad evidence.Token
		r := canon.NewBinReader(data)
		bad.DecodeBinary(&r, 0, lend)
		if r.Done() == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
