package evidence_test

import (
	"fmt"
	"sync"
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

func TestBatchIssuerTokensVerifyIndividually(t *testing.T) {
	issuer, verifier := batchFixture(t)
	b := evidence.NewBatchIssuer(issuer)
	defer b.Close()

	reqs := make([]evidence.TokenRequest, 9)
	for i := range reqs {
		reqs[i] = evidence.TokenRequest{
			Kind:   evidence.KindNRO,
			Run:    id.NewRun(),
			Step:   1,
			Digest: sig.Sum([]byte(fmt.Sprintf("content-%d", i))),
		}
	}
	toks, err := b.IssueBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, tok := range toks {
		if err := verifier.Verify(tok); err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
		if err := verifier.Expect(tok, evidence.KindNRO, reqs[i].Run, issuer.Party, reqs[i].Digest); err != nil {
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
		if len(tok.Signature.BatchPath) == 0 {
			t.Fatalf("token %d has no inclusion path", i)
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

func TestBatchIssuerConcurrentIssuesAggregate(t *testing.T) {
	issuer, verifier := batchFixture(t)
	b := evidence.NewBatchIssuer(issuer)
	defer b.Close()

	const n = 64
	toks := make([]*evidence.Token, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tok, err := b.Issue(evidence.KindNRR, id.NewRun(), 1, sig.Sum([]byte(fmt.Sprintf("c%d", i))))
			if err != nil {
				t.Error(err)
				return
			}
			toks[i] = tok
		}(i)
	}
	wg.Wait()
	sigSets := make(map[string]int)
	for i, tok := range toks {
		if tok == nil {
			t.Fatal("missing token")
		}
		if err := verifier.Verify(tok); err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
		sigSets[string(tok.Signature.Bytes)]++
	}
	// Aggregation is timing-dependent, but 64 concurrent issues must not
	// degenerate into 64 separate signatures.
	if len(sigSets) == n {
		t.Fatalf("no aggregation: %d distinct signatures for %d concurrent issues", len(sigSets), n)
	}
	t.Logf("%d concurrent issues -> %d signing operations", n, len(sigSets))
}

func TestBatchTokenTamperDetected(t *testing.T) {
	issuer, verifier := batchFixture(t)
	b := evidence.NewBatchIssuer(issuer)
	defer b.Close()
	toks, err := b.IssueBatch([]evidence.TokenRequest{
		{Kind: evidence.KindNRO, Run: id.NewRun(), Step: 1, Digest: sig.Sum([]byte("a"))},
		{Kind: evidence.KindNRR, Run: id.NewRun(), Step: 1, Digest: sig.Sum([]byte("b"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the evidenced digest of one batch member: its inclusion
	// proof no longer reaches the signed root.
	tampered := *toks[0]
	tampered.Digest = sig.Sum([]byte("something else"))
	if err := verifier.Verify(&tampered); err == nil {
		t.Fatal("tampered batch token verified")
	}
}

func TestVerifyCacheHitsAndStaysSound(t *testing.T) {
	issuer, verifier := batchFixture(t)
	verifier.Cache = evidence.NewVerifyCache(0)
	b := evidence.NewBatchIssuer(issuer)
	defer b.Close()

	toks, err := b.IssueBatch([]evidence.TokenRequest{
		{Kind: evidence.KindNRO, Run: id.NewRun(), Step: 1, Digest: sig.Sum([]byte("a"))},
		{Kind: evidence.KindNRR, Run: id.NewRun(), Step: 1, Digest: sig.Sum([]byte("b"))},
		{Kind: evidence.KindNROResp, Run: id.NewRun(), Step: 2, Digest: sig.Sum([]byte("c"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if err := verifier.Verify(tok); err != nil {
			t.Fatal(err)
		}
	}
	// All three tokens share one root signature: one cache entry.
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

func TestIssueAllFallsBackWithoutBatchSupport(t *testing.T) {
	issuer, verifier := batchFixture(t)
	toks, err := evidence.IssueAll(issuer,
		evidence.TokenRequest{Kind: evidence.KindNRO, Run: id.NewRun(), Step: 1, Digest: sig.Sum([]byte("x"))},
		evidence.TokenRequest{Kind: evidence.KindNRR, Run: id.NewRun(), Step: 1, Digest: sig.Sum([]byte("y"))},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 {
		t.Fatalf("got %d tokens, want 2", len(toks))
	}
	for _, tok := range toks {
		if len(tok.Signature.BatchPath) != 0 {
			t.Fatal("plain issuer produced batch signature")
		}
		if err := verifier.Verify(tok); err != nil {
			t.Fatal(err)
		}
	}
}
