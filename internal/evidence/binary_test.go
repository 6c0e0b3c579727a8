package evidence_test

import (
	"bytes"
	"testing"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// batchOf issues n tokens of one run under one batch signature.
func batchOf(t *testing.T, issuer *evidence.Issuer, n int) []*evidence.Token {
	t.Helper()
	b := evidence.NewBatchIssuer(issuer)
	defer b.Close()
	run := id.NewRun()
	reqs := make([]evidence.TokenRequest, n)
	for i := range reqs {
		reqs[i] = evidence.TokenRequest{Kind: evidence.KindNRR, Run: run, Step: i, Digest: sig.Sum([]byte{byte(i)})}
	}
	toks, err := b.IssueBatch(reqs)
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
