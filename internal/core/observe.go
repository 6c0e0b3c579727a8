package core

import (
	"time"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/sig"
)

// observedIssuer decorates a token issuer with issuance telemetry.
type observedIssuer struct {
	inner   evidence.TokenIssuer
	issueNs *obs.Histogram
	issued  *obs.Counter
}

func newObservedIssuer(inner evidence.TokenIssuer, scope *obs.Scope) *observedIssuer {
	return &observedIssuer{
		inner:   inner,
		issueNs: scope.Histogram(obs.MTokenIssueNs),
		issued:  scope.Counter(obs.MTokensIssuedTotal),
	}
}

// Issue implements evidence.TokenIssuer.
func (o *observedIssuer) Issue(kind evidence.Kind, run id.Run, step int, digest sig.Digest, opts ...evidence.IssueOption) (*evidence.Token, error) {
	start := time.Now()
	tok, err := o.inner.Issue(kind, run, step, digest, opts...)
	o.issueNs.Since(start)
	if err == nil {
		o.issued.Inc()
	}
	return tok, err
}

// IssueBatch implements evidence.TokenIssuer.
func (o *observedIssuer) IssueBatch(reqs []evidence.TokenRequest) ([]*evidence.Token, error) {
	start := time.Now()
	toks, err := o.inner.IssueBatch(reqs)
	o.issueNs.Since(start)
	if err == nil {
		o.issued.Add(int64(len(toks)))
	}
	return toks, err
}

// observedSigner counts a node's signing operations: with
// MTokensIssuedTotal it gives the tokens each signature covers.
type observedSigner struct {
	sig.Signer
	signs *obs.Counter
}

// Sign implements sig.Signer.
func (o observedSigner) Sign(d sig.Digest) (sig.Signature, error) {
	s, err := o.Signer.Sign(d)
	if err == nil {
		o.signs.Inc()
	}
	return s, err
}
