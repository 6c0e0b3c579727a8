// Aggregate token issuing: an issuer signs the Merkle root of one
// protocol step's token TBS-digests with one signature (sig.SignBatch),
// so a step that issues several tokens pays the paper's per-token
// cryptographic cost (section 6) once while every token stays
// independently verifiable — each carries its inclusion path back to the
// signed root. Every signature covers exactly one protocol step: a
// token's path holds at most its step-mates' digests, so what it costs
// to store does not depend on how busy the signer was.
package evidence

import (
	"fmt"

	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// TokenIssuer issues signed evidence tokens. IssueBatch signs the tokens
// of one protocol step under one signature — a batch of one is a plain
// signature, and an empty batch signs nothing — and Issue is its
// one-token case.
type TokenIssuer interface {
	Issue(kind Kind, run id.Run, step int, digest sig.Digest, opts ...IssueOption) (*Token, error)
	IssueBatch(reqs []TokenRequest) ([]*Token, error)
}

// TokenRequest describes one token of an explicit batch issue.
type TokenRequest struct {
	Kind   Kind
	Run    id.Run
	Step   int
	Digest sig.Digest
	Opts   []IssueOption
}

// Issue implements TokenIssuer: a plainly signed token binding (run,
// step) to the content digest — IssueBatch's path for one token, on
// slices that stay on the stack.
func (i *Issuer) Issue(kind Kind, run id.Run, step int, digest sig.Digest, opts ...IssueOption) (*Token, error) {
	reqs := [1]TokenRequest{{Kind: kind, Run: run, Step: step, Digest: digest, Opts: opts}}
	var toks [1]*Token
	var digests [1]sig.Digest
	if err := i.issue(reqs[:], toks[:], digests[:]); err != nil {
		return nil, err
	}
	return toks[0], nil
}

// IssueBatch implements TokenIssuer: the requested tokens share one
// signature.
func (i *Issuer) IssueBatch(reqs []TokenRequest) ([]*Token, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	toks := make([]*Token, len(reqs))
	if err := i.issue(reqs, toks, make([]sig.Digest, len(reqs))); err != nil {
		return nil, err
	}
	return toks, nil
}

// issue builds the tokens reqs ask for into toks and signs them under one
// signature over their TBS digests (a plain one for a single token),
// which digests, as long as reqs, holds; when a TSA is configured it
// stamps them.
func (i *Issuer) issue(reqs []TokenRequest, toks []*Token, digests []sig.Digest) error {
	for j, r := range reqs {
		tok, err := i.build(r.Kind, r.Run, r.Step, r.Digest, r.Opts)
		if err != nil {
			return err
		}
		if digests[j], err = tok.TBSDigest(); err != nil {
			return err
		}
		toks[j] = tok
	}
	sigs, err := sig.SignBatch(i.Signer, digests)
	if err != nil {
		return fmt.Errorf("evidence: sign %d tokens: %w", len(toks), err)
	}
	for j, tok := range toks {
		tok.Signature = sigs[j]
		if err := i.stamp(tok); err != nil {
			return err
		}
	}
	return nil
}
