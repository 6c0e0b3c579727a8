package evidence_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/credential"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// batchFixture builds an issuer/verifier pair over a one-party PKI.
func batchFixture(t *testing.T) (*evidence.Issuer, *evidence.Verifier) {
	t.Helper()
	clk := clock.NewManual(time.Date(2004, time.March, 25, 9, 0, 0, 0, time.UTC))
	caKey, err := sig.GenerateEd25519("ca")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := credential.NewRootAuthority("urn:ttp:ca", caKey, clk)
	if err != nil {
		t.Fatal(err)
	}
	store := credential.NewStore(clk)
	if err := store.AddRoot(ca.Certificate()); err != nil {
		t.Fatal(err)
	}
	key, err := sig.GenerateEd25519("org#key")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue("urn:org:a", key.KeyID(), key.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Add(cert); err != nil {
		t.Fatal(err)
	}
	issuer := &evidence.Issuer{Party: "urn:org:a", Signer: key, Clock: clk}
	return issuer, &evidence.Verifier{Keys: store}
}

// manyRuns is a batch request of n tokens, each of its own run, cycling
// through the four kinds of an invocation — the shape of a Merkle batch
// that older evidence, signed across concurrent runs, carries.
func manyRuns(n int) []evidence.TokenRequest {
	kinds := []evidence.Kind{evidence.KindNRO, evidence.KindNRR, evidence.KindNROResp, evidence.KindNRRResp}
	reqs := make([]evidence.TokenRequest, n)
	for i := range reqs {
		reqs[i] = evidence.TokenRequest{
			Kind:   kinds[i%len(kinds)],
			Run:    id.NewRun(),
			Step:   i%len(kinds) + 1,
			Digest: sig.Sum([]byte(fmt.Sprintf("content-%d", i))),
		}
	}
	return reqs
}

// TestBatchIssuerTokensVerifyIndividually: every token of a batch over
// several runs' requests, deep enough for paths of four elements,
// verifies and binds its own content on its own.
func TestBatchIssuerTokensVerifyIndividually(t *testing.T) {
	issuer, verifier := batchFixture(t)
	reqs := manyRuns(9)
	toks, err := issuer.IssueBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, tok := range toks {
		if err := verifier.Verify(tok); err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
		if err := verifier.Expect(tok, reqs[i].Kind, reqs[i].Run, issuer.Party, reqs[i].Digest); err != nil {
			t.Fatalf("token %d content: %v", i, err)
		}
	}
	// One aggregate signature across the batch.
	for i := 1; i < len(toks); i++ {
		if string(toks[i].Signature.Bytes) != string(toks[0].Signature.Bytes) {
			t.Fatal("batch tokens carry different signature bytes")
		}
	}
	for i, tok := range toks {
		if len(tok.Signature.BatchRoot) != 0 {
			t.Fatalf("token %d carries the aggregate root the verifier recomputes", i)
		}
		if len(tok.Signature.BatchPath) < 3 {
			t.Fatalf("token %d has an inclusion path of %d, want a deep one", i, len(tok.Signature.BatchPath))
		}
	}
	// A token signed before the root stopped being stored carries it; it
	// verifies with the right root and fails with a wrong one.
	tbs, err := toks[3].TBSDigest()
	if err != nil {
		t.Fatal(err)
	}
	root, err := sig.SignedDigest(tbs, toks[3].Signature)
	if err != nil {
		t.Fatal(err)
	}
	legacy := *toks[3]
	legacy.Signature.BatchRoot = root[:]
	if err := verifier.Verify(&legacy); err != nil {
		t.Fatalf("legacy rooted token: %v", err)
	}
	legacy.Signature.BatchRoot = make([]byte, sig.DigestSize)
	if err := verifier.Verify(&legacy); err == nil {
		t.Fatal("token with a wrong carried root verified")
	}
}

func TestBatchTokenTamperDetected(t *testing.T) {
	issuer, verifier := batchFixture(t)
	toks, err := issuer.IssueBatch(manyRuns(8))
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the evidenced digest of any batch member: its depth-3
	// inclusion proof no longer reaches the signed root.
	for i, tok := range toks {
		if len(tok.Signature.BatchPath) != 3 {
			t.Fatalf("token %d: path of %d, want 3", i, len(tok.Signature.BatchPath))
		}
		tampered := *tok
		tampered.Digest = sig.Sum([]byte("something else"))
		if err := verifier.Verify(&tampered); err == nil {
			t.Fatalf("tampered batch token %d verified", i)
		}
	}
}

func TestVerifyCacheHitsAndStaysSound(t *testing.T) {
	issuer, verifier := batchFixture(t)
	verifier.Cache = evidence.NewVerifyCache(0)
	toks, err := issuer.IssueBatch(manyRuns(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if err := verifier.Verify(tok); err != nil {
			t.Fatal(err)
		}
	}
	// All eight tokens share one root signature: one cache entry.
	if got := verifier.Cache.Len(); got != 1 {
		t.Fatalf("cache entries = %d, want 1 (shared root signature)", got)
	}
	// Re-verification hits the cache (still returns success).
	for _, tok := range toks {
		if err := verifier.Verify(tok); err != nil {
			t.Fatal(err)
		}
	}
	// The cache must not launder a tampered sibling: same signature
	// bytes, different content.
	tampered := *toks[1]
	tampered.Digest = sig.Sum([]byte("evil"))
	if err := verifier.Verify(&tampered); err == nil {
		t.Fatal("cache accepted tampered token reusing a verified signature")
	}
	// Nor a tampered inclusion path.
	badPath := *toks[2]
	badPath.Signature.BatchPath = append([][]byte(nil), badPath.Signature.BatchPath...)
	corrupt := make([]byte, sig.DigestSize)
	for i := range corrupt {
		corrupt[i] = 0xff
	}
	badPath.Signature.BatchPath[0] = corrupt
	if err := verifier.Verify(&badPath); err == nil {
		t.Fatal("cache accepted tampered inclusion path")
	}
	// Nor a single flipped bit of one, nor a transplanted index. The
	// tokens carry no root, so the doctored proof recomputes to a root
	// that was never verified: the cache key differs, the lookup misses,
	// and the signature check over that root fails — nothing is added.
	flipped := *toks[2]
	flipped.Signature.BatchPath = append([][]byte(nil), flipped.Signature.BatchPath...)
	flipped.Signature.BatchPath[0] = append([]byte(nil), flipped.Signature.BatchPath[0]...)
	flipped.Signature.BatchPath[0][7] ^= 1
	if err := verifier.Verify(&flipped); err == nil {
		t.Fatal("cache served a hit for a flipped inclusion path element")
	}
	moved := *toks[0]
	moved.Signature.BatchIndex = 1
	if err := verifier.Verify(&moved); err == nil {
		t.Fatal("cache served a hit for a transplanted batch index")
	}
	if got := verifier.Cache.Len(); got != 1 {
		t.Fatalf("cache entries = %d after rejected proofs, want 1", got)
	}
}

// countingSigner counts the signing operations of the signer it wraps.
type countingSigner struct {
	sig.Signer
	signs int
}

func (c *countingSigner) Sign(d sig.Digest) (sig.Signature, error) {
	c.signs++
	return c.Signer.Sign(d)
}

func TestIssuerSignsEachStepOnce(t *testing.T) {
	issuer, verifier := batchFixture(t)
	counter := &countingSigner{Signer: issuer.Signer}
	issuer.Signer = counter
	run := id.NewRun()
	reqs := []evidence.TokenRequest{
		{Kind: evidence.KindNRR, Run: run, Step: 1, Digest: sig.Sum([]byte("x"))},
		{Kind: evidence.KindNROResp, Run: run, Step: 2, Digest: sig.Sum([]byte("y"))},
	}
	toks, err := issuer.IssueBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || counter.signs != 1 {
		t.Fatalf("a two-token step gave %d tokens from %d signing operations, want 2 from 1", len(toks), counter.signs)
	}
	if string(toks[0].Signature.Bytes) != string(toks[1].Signature.Bytes) {
		t.Fatal("a step's tokens carry different signature bytes")
	}
	for j, tok := range toks {
		if tok.Signature.BatchIndex != uint32(j) || len(tok.Signature.BatchPath) != 1 {
			t.Fatalf("token %d: batch index %d, path of %d, want index %d and a one-element path",
				j, tok.Signature.BatchIndex, len(tok.Signature.BatchPath), j)
		}
		if err := verifier.Expect(tok, reqs[j].Kind, run, issuer.Party, reqs[j].Digest); err != nil {
			t.Fatalf("token %d alone: %v", j, err)
		}
	}
	// With a cache the second token's root signature is a hit, and each
	// token still verifies alone.
	cached := &evidence.Verifier{Keys: verifier.Keys, Cache: evidence.NewVerifyCache(0)}
	for j := range toks {
		for _, tok := range []*evidence.Token{toks[j], toks[1-j]} {
			if err := cached.Verify(tok); err != nil {
				t.Fatalf("token %d with a cache: %v", j, err)
			}
		}
	}
	if got := cached.Cache.Len(); got != 1 {
		t.Fatalf("cache entries = %d, want 1 (one shared signature)", got)
	}

	// A one-token step is a plain signature; Issue is that step.
	one, err := issuer.IssueBatch(reqs[:1])
	if err != nil {
		t.Fatal(err)
	}
	plain, err := issuer.Issue(evidence.KindNRRResp, run, 3, sig.Sum([]byte("z")))
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range []*evidence.Token{one[0], plain} {
		if len(tok.Signature.BatchPath) != 0 || tok.Signature.BatchIndex != 0 {
			t.Fatalf("one-token %s step carries a batch path", tok.Kind)
		}
		if err := verifier.Verify(tok); err != nil {
			t.Fatal(err)
		}
	}
	if counter.signs != 3 {
		t.Fatalf("%d signing operations after three steps, want 3", counter.signs)
	}

	// A step that issues nothing signs nothing.
	none, err := issuer.IssueBatch(nil)
	if err != nil || none != nil {
		t.Fatalf("empty step = %v, %v; want nil, nil", none, err)
	}
	if counter.signs != 3 {
		t.Fatalf("an empty step made a signing operation (%d in all)", counter.signs)
	}

	// A step with a token whose run is not valid UTF-8 is refused whole,
	// before anything is signed.
	bad := append([]evidence.TokenRequest{reqs[0]}, evidence.TokenRequest{Kind: evidence.KindNROResp, Run: "run-\xff", Step: 2, Digest: sig.Sum([]byte("y"))})
	if toks, err := issuer.IssueBatch(bad); err == nil || !strings.Contains(err.Error(), "UTF-8") || toks != nil {
		t.Fatalf("a step with a bad run = %v, %v; want a UTF-8 refusal", toks, err)
	}
	if counter.signs != 3 {
		t.Fatalf("a refused step made a signing operation (%d in all)", counter.signs)
	}
}

// TestIssueAllocs pins what one plainly signed token costs the heap: what
// building and signing the token needs, and no slice of the batch path,
// which a single token takes on slices that stay on the stack (seven
// allocations; the batch path's own slices made it ten).
func TestIssueAllocs(t *testing.T) {
	issuer, _ := batchFixture(t)
	run := id.NewRun()
	digest := sig.Sum([]byte("content"))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := issuer.Issue(evidence.KindNRO, run, 1, digest); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("Issue allocates %.0f times, want at most 8", allocs)
	}
}
