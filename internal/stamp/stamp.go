// Package stamp implements the time-stamping service of section 3.5:
// "non-repudiation evidence should be time-stamped for logging and to
// support the assertion that the signature used to sign evidence was not
// compromised at time of use". An Authority (TSA) countersigns
// (digest, time) pairs. Alternatively, parties signing with the
// forward-secure scheme in package sig self-timestamp by period, which
// "obviate[s] the need for a third party signature on time-stamps".
package stamp

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/clock"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// ErrDigestMismatch is returned when a token does not cover the expected
// digest.
var ErrDigestMismatch = errors.New("stamp: token covers a different digest")

// Token is a signed statement that a digest existed at a point in time.
type Token struct {
	Digest    sig.Digest    `json:"digest"`
	Time      time.Time     `json:"time"`
	TSA       id.Party      `json:"tsa"`
	Serial    uint64        `json:"serial"`
	Signature sig.Signature `json:"signature"`
}

// tbsDigest returns the digest of the to-be-signed portion of the token.
func (t *Token) tbsDigest() (sig.Digest, error) {
	var buf [256]byte
	b, err := t.appendTBSFields(buf[:0])
	if err != nil {
		return sig.Digest{}, err
	}
	return sig.Sum(append(b, '}')), nil
}

// appendTBSFields appends the canonical JSON of the token's to-be-signed
// portion — every field but Signature, in declaration order — without
// its closing brace; the token's own JSON continues from there. It fails
// where canon.AppendJSONTime fails on the time.
func (t *Token) appendTBSFields(b []byte) ([]byte, error) {
	b = append(b, `{"digest":`...)
	b = canon.AppendJSONHex(b, t.Digest[:])
	b = append(b, `,"time":`...)
	b, err := canon.AppendJSONTime(b, t.Time)
	if err != nil {
		return b, fmt.Errorf("stamp: time-stamp time: %w", err)
	}
	b = append(b, `,"tsa":`...)
	b = canon.AppendJSONString(b, string(t.TSA))
	b = append(b, `,"serial":`...)
	return strconv.AppendUint(b, t.Serial, 10), nil
}

// AppendCanonical appends the token's canonical JSON — the bytes
// canon.Marshal writes for it — to b. It fails where canon.Marshal
// fails: on a time canon.AppendJSONTime refuses.
func (t *Token) AppendCanonical(b []byte) ([]byte, error) {
	b, err := t.appendTBSFields(b)
	if err != nil {
		return b, err
	}
	b = append(b, `,"signature":`...)
	b = t.Signature.AppendCanonical(b)
	return append(b, '}'), nil
}

// KeyResolver resolves a key identifier to a verified public key.
// *credential.Store satisfies it.
type KeyResolver interface {
	PublicKey(keyID string) (sig.PublicKey, error)
}

// Authority is a time-stamping authority.
type Authority struct {
	party  id.Party
	signer sig.Signer
	clk    clock.Clock

	mu     sync.Mutex
	serial uint64
}

// NewAuthority creates a TSA for a party.
func NewAuthority(party id.Party, signer sig.Signer, clk clock.Clock) *Authority {
	return &Authority{party: party, signer: signer, clk: clk}
}

// Party returns the TSA's party identifier.
func (a *Authority) Party() id.Party { return a.party }

// Stamp countersigns a digest with the current time.
func (a *Authority) Stamp(d sig.Digest) (*Token, error) {
	a.mu.Lock()
	a.serial++
	serial := a.serial
	a.mu.Unlock()

	tok := &Token{Digest: d, Time: a.clk.Now(), TSA: a.party, Serial: serial}
	td, err := tok.tbsDigest()
	if err != nil {
		return nil, err
	}
	tok.Signature, err = a.signer.Sign(td)
	if err != nil {
		return nil, fmt.Errorf("stamp: sign token: %w", err)
	}
	return tok, nil
}

// Verify checks that the token covers d and that its signature verifies
// under a key resolved through keys.
func Verify(tok *Token, d sig.Digest, keys KeyResolver) error {
	if tok.Digest != d {
		return ErrDigestMismatch
	}
	td, err := tok.tbsDigest()
	if err != nil {
		return err
	}
	key, err := keys.PublicKey(tok.Signature.KeyID)
	if err != nil {
		return fmt.Errorf("stamp: resolve tsa key: %w", err)
	}
	if err := key.Verify(td, tok.Signature); err != nil {
		return fmt.Errorf("stamp: token signature: %w", err)
	}
	return nil
}
