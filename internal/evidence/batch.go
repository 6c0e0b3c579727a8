// Aggregate token issuing: every issuer signs the Merkle root of N token
// TBS-digests with one signature (sig.SignBatch), amortising the paper's
// per-token cryptographic cost (section 6) across a whole batch while
// every token stays independently verifiable — each carries its inclusion
// path back to the signed root. *Issuer signs each protocol step's tokens
// under one signature; BatchIssuer also mirrors, for signing, what the
// vault's group commit does for fsync: concurrent issuers are drained by
// a single background signer into one signing operation per batch.
package evidence

import (
	"errors"
	"fmt"
	"runtime"

	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// TokenIssuer issues signed evidence tokens. IssueBatch signs the tokens
// of one protocol step under one signature — a batch of one is a plain
// signature, and an empty batch signs nothing — and Issue is its
// one-token case. *Issuer signs each call on its own; *BatchIssuer
// aggregates concurrent calls into one signature too.
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

// ErrIssuerClosed is returned for issues against a closed BatchIssuer.
var ErrIssuerClosed = errors.New("evidence: batch issuer closed")

// DefaultMaxSignBatch caps how many pending tokens one aggregate
// signature absorbs.
const DefaultMaxSignBatch = 64

// BatchIssuer wraps an Issuer with aggregate signing. Concurrent Issue
// and IssueBatch calls are queued and drained by a background signer
// goroutine: the first pending request opens a batch, everything already
// queued joins it (up to the batch cap), and the whole batch is signed
// with one signing operation. A solitary single-token request is signed
// plainly, so sequential traffic pays no batching overhead and no added
// latency — batching kicks in exactly when concurrency makes it
// profitable, like the vault's group commit.
type BatchIssuer struct {
	*Issuer

	reqC chan *issueReq
	quit chan struct{}
	done chan struct{}
}

// issueReq is one caller's pending issue: one or more tokens answered
// together.
type issueReq struct {
	reqs []TokenRequest
	resp chan issueResp
}

type issueResp struct {
	toks []*Token
	err  error
}

// NewBatchIssuer starts an aggregating issuer on top of i. Close releases
// its background signer.
func NewBatchIssuer(i *Issuer) *BatchIssuer {
	b := &BatchIssuer{
		Issuer: i,
		reqC:   make(chan *issueReq, 4*DefaultMaxSignBatch),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go b.run()
	return b
}

// Issue implements TokenIssuer: the token is signed by the aggregator,
// sharing one signature with every other token pending at that moment.
func (b *BatchIssuer) Issue(kind Kind, run id.Run, step int, digest sig.Digest, opts ...IssueOption) (*Token, error) {
	toks, err := b.IssueBatch([]TokenRequest{{Kind: kind, Run: run, Step: step, Digest: digest, Opts: opts}})
	if err != nil {
		return nil, err
	}
	return toks[0], nil
}

// IssueBatch implements TokenIssuer: all requested tokens share one
// aggregate signature (shared, at high concurrency, with other callers'
// pending tokens).
func (b *BatchIssuer) IssueBatch(reqs []TokenRequest) ([]*Token, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	req := &issueReq{reqs: reqs, resp: make(chan issueResp, 1)}
	select {
	case b.reqC <- req:
	case <-b.quit:
		return nil, ErrIssuerClosed
	}
	select {
	case r := <-req.resp:
		return r.toks, r.err
	case <-b.done:
		// The signer has exited. It may still have served this request
		// during its final drain (commit responds before run returns);
		// only an unserved request fails.
		select {
		case r := <-req.resp:
			return r.toks, r.err
		default:
			return nil, ErrIssuerClosed
		}
	}
}

// Close stops the background signer; pending issues are completed first.
func (b *BatchIssuer) Close() error {
	select {
	case <-b.quit:
		return nil
	default:
	}
	close(b.quit)
	<-b.done
	return nil
}

// run is the aggregate signer: it drains pending issues into batches and
// signs each batch with a single signing operation.
func (b *BatchIssuer) run() {
	defer close(b.done)
	for {
		select {
		case req := <-b.reqC:
			b.commit(b.drain(req))
		case <-b.quit:
			for {
				select {
				case req := <-b.reqC:
					b.commit(b.drain(req))
				default:
					return
				}
			}
		}
	}
}

func (b *BatchIssuer) drain(first *issueReq) []*issueReq {
	batch := []*issueReq{first}
	tokens := len(first.reqs)
	yields := 0
	for tokens < DefaultMaxSignBatch {
		select {
		case req := <-b.reqC:
			batch = append(batch, req)
			tokens += len(req.reqs)
			continue
		default:
		}
		// Before committing to a signature, yield so that already
		// runnable issuers get to enqueue — without this, channel
		// handoff scheduling serialises sign operations on small
		// machines and no aggregation ever happens. Two empty drains
		// in a row mean there really is nothing pending.
		if yields >= 2 {
			return batch
		}
		yields++
		runtime.Gosched()
	}
	return batch
}

// commit signs one batch — all tokens of all drained callers under one
// signature — and wakes every caller. Each caller's tokens are built on
// their own first, so a request refused there (text that is not valid
// UTF-8, an issue time RFC 3339 cannot write) fails alone and the rest
// of the batch is signed without it.
func (b *BatchIssuer) commit(batch []*issueReq) {
	var toks []*Token
	var digests []sig.Digest
	built := batch[:0]
	for _, r := range batch {
		t, d := make([]*Token, len(r.reqs)), make([]sig.Digest, len(r.reqs))
		if err := b.Issuer.buildAll(r.reqs, t, d); err != nil {
			r.resp <- issueResp{err: err}
			continue
		}
		toks, digests = append(toks, t...), append(digests, d...)
		built = append(built, r)
	}
	if len(built) == 0 {
		return
	}
	if err := b.Issuer.signAll(toks, digests); err != nil {
		for _, r := range built {
			r.resp <- issueResp{err: err}
		}
		return
	}
	off := 0
	for _, r := range built {
		r.resp <- issueResp{toks: toks[off : off+len(r.reqs)]}
		off += len(r.reqs)
	}
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
// signature; digests, as long as reqs, holds their TBS digests.
func (i *Issuer) issue(reqs []TokenRequest, toks []*Token, digests []sig.Digest) error {
	if err := i.buildAll(reqs, toks, digests); err != nil {
		return err
	}
	return i.signAll(toks, digests)
}

// buildAll builds the unsigned tokens of one request into toks and their
// TBS digests into digests, both as long as reqs.
func (i *Issuer) buildAll(reqs []TokenRequest, toks []*Token, digests []sig.Digest) error {
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
	return nil
}

// signAll signs built tokens under one signature over their TBS digests
// (a plain one for a single token) and, when a TSA is configured, stamps
// them.
func (i *Issuer) signAll(toks []*Token, digests []sig.Digest) error {
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
