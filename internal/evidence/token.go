// Package evidence defines non-repudiation tokens and the snapshots of
// service invocations and shared state they cover.
//
// Section 3.2: "Non-repudiation tokens include a unique request identifier,
// to distinguish between protocol runs and to bind protocol steps to a run,
// and a signature on a secure hash of the evidence generated." Tokens here
// carry exactly that, plus an optional time-stamp token over the signature
// (section 3.5) and an optional transaction identifier that links evidence
// from related runs in the style of the UPU Electronic Postmark
// (section 5).
package evidence

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
	"unicode/utf8"
	"unsafe"

	"nonrep/internal/canon"
	"nonrep/internal/clock"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/stamp"
)

// Kind classifies a non-repudiation token.
type Kind string

// Token kinds. The first four are the service-invocation evidence of
// section 3.2; the proposal/decision/outcome/ack kinds are the
// information-sharing evidence of section 3.3; substitute and abort tokens
// are issued by a TTP resolving a fair-exchange run.
const (
	// KindNRO is non-repudiation of origin of a request.
	KindNRO Kind = "nro-req"
	// KindNRR is non-repudiation of receipt of a request.
	KindNRR Kind = "nrr-req"
	// KindNROResp is non-repudiation of origin of a response.
	KindNROResp Kind = "nro-resp"
	// KindNRRResp is non-repudiation of receipt of a response.
	KindNRRResp Kind = "nrr-resp"

	// KindProposal attributes a proposed update to shared information.
	KindProposal Kind = "nr-proposal"
	// KindDecision attributes a validation decision on a proposal.
	KindDecision Kind = "nr-decision"
	// KindOutcome attributes the collective decision on a proposal.
	KindOutcome Kind = "nr-outcome"
	// KindAck attributes receipt of an outcome.
	KindAck Kind = "nr-ack"

	// KindSubstitute is a TTP-issued substitute receipt (resolve).
	KindSubstitute Kind = "nr-substitute"
	// KindAbort is a TTP-issued abort affidavit.
	KindAbort Kind = "nr-abort"
	// KindPostmark is an EPM-style TTP postmark over submitted evidence.
	KindPostmark Kind = "nr-postmark"

	// KindJobEnqueued journals a durable invocation job in the issuing
	// party's own vault before the exchange starts; its digest covers its
	// record's note: for a call, the canonical request snapshot, which the
	// run's NRO covers too; for an abort, the canonical job spec. The job journal
	// rides the evidence log so job state survives crashes exactly as
	// evidence does, and adjudication can see what was promised.
	KindJobEnqueued Kind = "job-enqueued"
	// KindJobAttempt journals one failed attempt of a durable job.
	KindJobAttempt Kind = "job-attempt"
	// KindJobDone journals a durable job's terminal outcome; a run with a
	// job-enqueued record but no job-done record is resumed on reopen.
	KindJobDone Kind = "job-done"

	// KindSubOpen authorises a live evidence subscription: its digest
	// covers the canonical subscribe request (resume position, delivery
	// address), and the publisher appends the token to its vault as
	// received evidence, so who watched whose evidence from when is
	// itself adjudicable.
	KindSubOpen Kind = "sub-open"

	// KindSegShip authenticates a sealed-segment shipment: its digest
	// covers the canonical shipment claim (source, segment number, seal
	// digest), and its issuer must be the source organisation itself —
	// binding every replica write to the source's signing key so nobody
	// can seed a bogus replica store.
	KindSegShip Kind = "seg-ship"
	// KindGeoAppend authenticates a quorum tail push (unsealed records
	// replicated ahead of their seal): digest over the canonical push
	// claim, issuer bound to the source organisation.
	KindGeoAppend Kind = "geo-append"
	// KindWorkerHello authenticates a worker's hello to a gateway: digest
	// over the canonical hello (the party it serves), issuer bound to
	// that party, so only the party can route its traffic to itself. It
	// travels on the wire only; no vault stores it.
	KindWorkerHello Kind = "worker-hello"
)

// Errors reported by token verification.
var (
	// ErrIssuerMismatch is returned when the signing key does not belong
	// to the token's claimed issuer.
	ErrIssuerMismatch = errors.New("evidence: signing key does not belong to claimed issuer")
	// ErrContentMismatch is returned when presented content does not
	// match the token's digest.
	ErrContentMismatch = errors.New("evidence: content does not match token digest")
	// ErrRunMismatch is returned when a token is bound to a different
	// protocol run than expected.
	ErrRunMismatch = errors.New("evidence: token bound to different run")
	// ErrKindMismatch is returned when a token has an unexpected kind.
	ErrKindMismatch = errors.New("evidence: unexpected token kind")
)

// Token is a signed, optionally time-stamped item of non-repudiation
// evidence.
type Token struct {
	Kind       Kind       `json:"kind"`
	Run        id.Run     `json:"run"`
	Txn        id.Txn     `json:"txn,omitempty"`
	Step       int        `json:"step"`
	Issuer     id.Party   `json:"issuer"`
	Recipients []id.Party `json:"recipients,omitempty"`
	Service    id.Service `json:"service,omitempty"`
	// Digest is the digest of the evidenced content (a canonical request
	// or response snapshot, proposal, decision set, ...).
	Digest   sig.Digest `json:"digest"`
	IssuedAt time.Time  `json:"issued_at"`
	// Nonce is a random authenticator distinguishing otherwise-identical
	// tokens (section 3.5).
	Nonce string `json:"nonce,omitempty"`

	Signature sig.Signature `json:"signature"`
	// Timestamp, when present, is a TSA countersignature over this
	// token's signature, supporting the assertion that the signing key
	// was not compromised at time of use (section 3.5).
	Timestamp *stamp.Token `json:"timestamp,omitempty"`

	// tbs memoises TBSDigest (a *tbsMemo). Tokens are immutable once
	// issued or decoded, and the issue, verify and audit paths all need
	// the digest, so it is computed at most once per token instance. The
	// memo records the owning token and is trusted only under pointer
	// identity, so a value copy of a token (which may be mutated, e.g. by
	// forgery tests) recomputes instead of inheriting a stale digest. A
	// raw unsafe.Pointer is used rather than atomic.Pointer so that token
	// values stay copyable.
	tbs unsafe.Pointer
}

// tbsMemo is a memoised TBS digest bound to its owning token instance.
type tbsMemo struct {
	owner *Token
	d     sig.Digest
}

// TBSDigest returns the digest of the token's signed fields, memoised
// after the first computation (tokens are immutable once issued or
// decoded).
func (t *Token) TBSDigest() (sig.Digest, error) {
	if m := (*tbsMemo)(atomic.LoadPointer(&t.tbs)); m != nil && m.owner == t {
		return m.d, nil
	}
	var buf [512]byte
	b, err := t.appendTBSFields(buf[:0])
	if err != nil {
		return sig.Digest{}, err
	}
	d := sig.Sum(append(b, '}'))
	atomic.StorePointer(&t.tbs, unsafe.Pointer(&tbsMemo{owner: t, d: d}))
	return d, nil
}

// appendTBSFields appends the canonical JSON of the token's
// to-be-signed projection — every field but Signature and Timestamp, in
// declaration order with the token's own tags — without its closing
// brace; the token's own JSON continues from there. It fails where
// canon.AppendJSONTime fails on the issue time.
func (t *Token) appendTBSFields(b []byte) ([]byte, error) {
	b = append(b, `{"kind":`...)
	b = canon.AppendJSONString(b, string(t.Kind))
	b = append(b, `,"run":`...)
	b = canon.AppendJSONString(b, string(t.Run))
	if t.Txn != "" {
		b = append(b, `,"txn":`...)
		b = canon.AppendJSONString(b, string(t.Txn))
	}
	b = append(b, `,"step":`...)
	b = strconv.AppendInt(b, int64(t.Step), 10)
	b = append(b, `,"issuer":`...)
	b = canon.AppendJSONString(b, string(t.Issuer))
	for i, p := range t.Recipients {
		if i == 0 {
			b = append(b, `,"recipients":[`...)
		} else {
			b = append(b, ',')
		}
		b = canon.AppendJSONString(b, string(p))
	}
	if len(t.Recipients) > 0 {
		b = append(b, ']')
	}
	if t.Service != "" {
		b = append(b, `,"service":`...)
		b = canon.AppendJSONString(b, string(t.Service))
	}
	b = append(b, `,"digest":`...)
	b = canon.AppendJSONHex(b, t.Digest[:])
	b = append(b, `,"issued_at":`...)
	b, err := canon.AppendJSONTime(b, t.IssuedAt)
	if err != nil {
		return b, fmt.Errorf("evidence: %q token's issue time: %w", t.Kind, err)
	}
	if t.Nonce != "" {
		b = append(b, `,"nonce":`...)
		b = canon.AppendJSONString(b, t.Nonce)
	}
	return b, nil
}

// AppendCanonical appends the token's canonical JSON — the bytes
// canon.Marshal writes for it — to b. It fails where canon.Marshal
// fails: on an issue or time-stamp time canon.AppendJSONTime refuses.
func (t *Token) AppendCanonical(b []byte) ([]byte, error) {
	b, err := t.appendTBSFields(b)
	if err != nil {
		return b, err
	}
	b = append(b, `,"signature":`...)
	b = t.Signature.AppendCanonical(b)
	if t.Timestamp != nil {
		b = append(b, `,"timestamp":`...)
		if b, err = t.Timestamp.AppendCanonical(b); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// Issuer generates signed tokens on behalf of a party. If TSA is non-nil
// every issued token is time-stamped.
type Issuer struct {
	Party  id.Party
	Signer sig.Signer
	Clock  clock.Clock
	TSA    *stamp.Authority
}

// IssueOption customises a token under construction.
type IssueOption func(*Token)

// WithTxn links the token to a business transaction.
func WithTxn(txn id.Txn) IssueOption {
	return func(t *Token) { t.Txn = txn }
}

// WithService records the invoked service.
func WithService(svc id.Service) IssueOption {
	return func(t *Token) { t.Service = svc }
}

// WithRecipients records the intended recipients of the evidenced content.
func WithRecipients(parties ...id.Party) IssueOption {
	return func(t *Token) { t.Recipients = parties }
}

// build assembles an unsigned token, refusing one whose text fields or
// signing key id are not valid UTF-8 (CheckText).
func (i *Issuer) build(kind Kind, run id.Run, step int, digest sig.Digest, opts []IssueOption) (*Token, error) {
	tok := &Token{
		Kind:     kind,
		Run:      run,
		Step:     step,
		Issuer:   i.Party,
		Digest:   digest,
		IssuedAt: i.Clock.Now(),
		Nonce:    sig.RandomHex(nonceLen),
	}
	for _, opt := range opts {
		opt(tok)
	}
	// The key id the signature will carry is checked with the rest.
	tok.Signature.KeyID = i.Signer.KeyID()
	if err := tok.CheckText(); err != nil {
		return nil, err
	}
	return tok, nil
}

// CheckText refuses a token with a text field that is not valid UTF-8:
// kind, run, txn, issuer, a recipient, service, nonce, the signature's
// key id, or the time-stamp's TSA and key id. Canonical JSON has no
// representation for such a string, and every decoder of stored
// evidence refuses one, so a token holding one is refused before it is
// signed or logged rather than after it has made a vault unreadable.
func (t *Token) CheckText() error {
	field := ""
	switch {
	case !utf8.ValidString(string(t.Kind)):
		field = "kind"
	case !utf8.ValidString(string(t.Run)):
		field = "run"
	case !utf8.ValidString(string(t.Txn)):
		field = "txn"
	case !utf8.ValidString(string(t.Issuer)):
		field = "issuer"
	case !utf8.ValidString(string(t.Service)):
		field = "service"
	case !utf8.ValidString(t.Nonce):
		field = "nonce"
	case !utf8.ValidString(t.Signature.KeyID):
		field = "key id"
	case t.Timestamp != nil && !utf8.ValidString(string(t.Timestamp.TSA)):
		field = "time-stamp authority"
	case t.Timestamp != nil && !utf8.ValidString(t.Timestamp.Signature.KeyID):
		field = "time-stamp key id"
	}
	for _, p := range t.Recipients {
		if field == "" && !utf8.ValidString(string(p)) {
			field = "recipient"
		}
	}
	if field != "" {
		return fmt.Errorf("evidence: %q token's %s is not valid UTF-8", t.Kind, field)
	}
	return nil
}

// stamp countersigns an already-signed token when the issuer has a TSA.
func (i *Issuer) stamp(tok *Token) error {
	if i.TSA == nil {
		return nil
	}
	// The TSA countersigns the signature itself, fixing the time at
	// which the signature existed.
	ts, err := i.TSA.Stamp(sig.Sum(tok.Signature.Bytes))
	if err != nil {
		return fmt.Errorf("evidence: timestamp %s token: %w", tok.Kind, err)
	}
	tok.Timestamp = ts
	return nil
}
