package evidence

import (
	"strings"
	"testing"

	"nonrep/internal/clock"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// TestCommitRefusesOnlyTheBadRequest drains a request whose run is not
// valid UTF-8 into one signing batch with two good ones: the bad request
// alone is refused, and the good ones are signed under one batch
// signature that verifies.
func TestCommitRefusesOnlyTheBadRequest(t *testing.T) {
	signer, err := sig.GenerateEd25519("urn:org:a#key")
	if err != nil {
		t.Fatal(err)
	}
	b := &BatchIssuer{Issuer: &Issuer{Party: "urn:org:a", Signer: signer, Clock: clock.Real{}}}
	req := func(run id.Run) *issueReq {
		return &issueReq{
			reqs: []TokenRequest{{Kind: KindNRO, Run: run, Step: 1, Digest: sig.Sum([]byte(run))}},
			resp: make(chan issueResp, 1),
		}
	}
	good1, bad, good2 := req(id.NewRun()), req("run-\xff"), req(id.NewRun())
	b.commit([]*issueReq{good1, bad, good2})

	if r := <-bad.resp; r.err == nil || !strings.Contains(r.err.Error(), "UTF-8") {
		t.Fatalf("bad request answered %v, %v; want a UTF-8 refusal", r.toks, r.err)
	}
	for _, g := range []*issueReq{good1, good2} {
		r := <-g.resp
		if r.err != nil || len(r.toks) != 1 {
			t.Fatalf("good request answered %v, %v", r.toks, r.err)
		}
		tok := r.toks[0]
		if tok.Run != g.reqs[0].Run || len(tok.Signature.BatchPath) != 1 {
			t.Fatalf("good request got token %+v, want its own run under a two-token batch signature", tok)
		}
		d, err := tok.TBSDigest()
		if err != nil {
			t.Fatal(err)
		}
		if err := sig.VerifyDigest(signer.PublicKey(), d, tok.Signature); err != nil {
			t.Fatalf("good token's batch signature: %v", err)
		}
	}
}
