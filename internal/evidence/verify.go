package evidence

import (
	"fmt"
	"sync"
	"time"

	"nonrep/internal/bounded"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/stamp"
)

// KeyResolver resolves key identifiers to verified public keys and their
// owning parties. *credential.Store satisfies it.
type KeyResolver interface {
	PublicKey(keyID string) (sig.PublicKey, error)
	Party(keyID string) (id.Party, error)
}

// Verifier checks tokens against a credential store. Verification is the
// responsibility of the trusted interceptors: evidence is verified before
// it is persisted and before application data is passed on (section 3.2).
type Verifier struct {
	Keys KeyResolver
	// Cache, when non-nil, memoises successful signature checks so that
	// re-verification (adjudication, audit, replays) and batch siblings
	// (tokens sharing one Merkle root signature: a protocol step's
	// tokens, or any batch in older evidence) skip the expensive
	// public-key operation. Binding checks (issuer identity, content
	// digest, run/kind expectations) are never cached.
	Cache *VerifyCache
	// Observe, when non-nil, is called with every verification's duration
	// and outcome. The hook keeps this package free of the telemetry
	// plane: the node layer installs a closure recording into its scope.
	Observe func(d time.Duration, err error)
}

// Verify checks the token's signature, that the signing key belongs to the
// claimed issuer, and — when a time-stamp is present — that it covers the
// signature.
func (v *Verifier) Verify(tok *Token) error {
	if v.Observe == nil {
		return v.verify(tok)
	}
	start := time.Now()
	err := v.verify(tok)
	v.Observe(time.Since(start), err)
	return err
}

func (v *Verifier) verify(tok *Token) error {
	tbs, err := tok.TBSDigest()
	if err != nil {
		return err
	}
	key, err := v.Keys.PublicKey(tok.Signature.KeyID)
	if err != nil {
		return fmt.Errorf("evidence: resolve %s signer: %w", tok.Kind, err)
	}
	if err := v.verifySignature(key, tbs, &tok.Signature); err != nil {
		return fmt.Errorf("evidence: %s token: %w", tok.Kind, err)
	}
	owner, err := v.Keys.Party(tok.Signature.KeyID)
	if err != nil {
		return err
	}
	if owner != tok.Issuer {
		return fmt.Errorf("%w: key %q belongs to %q, token claims %q",
			ErrIssuerMismatch, tok.Signature.KeyID, owner, tok.Issuer)
	}
	if tok.Timestamp != nil {
		if err := stamp.Verify(tok.Timestamp, sig.Sum(tok.Signature.Bytes), keyOnly{v.Keys}); err != nil {
			return fmt.Errorf("evidence: %s token timestamp: %w", tok.Kind, err)
		}
	}
	return nil
}

// Expect is the one acceptance rule for an incoming token: tok must be
// issuer's token of the given kind for run, over digest, and verify. A
// missing token is refused like a wrong one, not a crash. Every party and
// peer service checks what it receives by this rule.
func (v *Verifier) Expect(tok *Token, kind Kind, run id.Run, issuer id.Party, digest sig.Digest) error {
	if err := expectRun(tok, kind, run); err != nil {
		return err
	}
	if tok.Issuer != issuer {
		return fmt.Errorf("%w: token issued by %s, want %s", ErrIssuerMismatch, tok.Issuer, issuer)
	}
	if tok.Digest != digest {
		return fmt.Errorf("%w: %s token", ErrContentMismatch, kind)
	}
	return v.Verify(tok)
}

// expectRun checks that tok is present, of kind, and bound to run.
func expectRun(tok *Token, kind Kind, run id.Run) error {
	switch {
	case tok == nil:
		return fmt.Errorf("%w: no %s token", ErrKindMismatch, kind)
	case tok.Kind != kind:
		return fmt.Errorf("%w: got %s, want %s", ErrKindMismatch, tok.Kind, kind)
	case tok.Run != run:
		return fmt.Errorf("%w: got %s, want %s", ErrRunMismatch, tok.Run, run)
	}
	return nil
}

// keyOnly adapts a KeyResolver to the stamp package's narrower interface.
type keyOnly struct{ keys KeyResolver }

func (k keyOnly) PublicKey(keyID string) (sig.PublicKey, error) {
	return k.keys.PublicKey(keyID)
}

// verifySignature checks s over the token's TBS digest, consulting the
// verified-signature cache when one is configured. The Merkle inclusion
// path of a batch signature is always re-walked (sig.SignedDigest) — it
// is a handful of hashes — so only the public-key operation over the
// signed root is memoised, which keeps the cache sound against tokens
// presenting a tampered inclusion path alongside previously-verified
// signature bytes.
func (v *Verifier) verifySignature(key sig.PublicKey, tbs sig.Digest, s *sig.Signature) error {
	if v.Cache == nil {
		return sig.VerifyDigest(key, tbs, *s)
	}
	signed, err := sig.SignedDigest(tbs, *s)
	if err != nil {
		return err
	}
	// The key is identified by its marshalled material, not its
	// identifier: a credential store may rebind a key identifier to a
	// fresh certificate and key (rotation), and cached verifications
	// under the old key must not survive that.
	k := verifyKey{key: sig.Sum(key.Marshal()), signed: signed, meta: s.MetaSum()}
	if v.Cache.hit(k) {
		return nil
	}
	if err := key.Verify(signed, *s); err != nil {
		return err
	}
	v.Cache.add(k)
	return nil
}

// verifyKey identifies one successful signature check: the resolved
// signing key (by digest of its marshalled form), the digest the
// signature bytes cover (the batch root for aggregate signatures), and a
// digest of the signature material itself.
type verifyKey struct {
	key    sig.Digest
	signed sig.Digest
	meta   sig.Digest
}

// DefaultVerifyCacheSize bounds verified-signature caches created by
// NewVerifyCache(0).
const DefaultVerifyCacheSize = 8192

// VerifyCache is a bounded set of already-verified signatures shared by
// the verification paths of one trusted interceptor. It is safe for
// concurrent use; eviction is FIFO, which is adequate because protocol
// traffic re-verifies recent signatures (batch siblings, audit of fresh
// runs) far more often than ancient ones.
type VerifyCache struct {
	mu sync.Mutex
	t  *bounded.Table[verifyKey, struct{}]
}

// NewVerifyCache creates a cache bounded to limit entries (0 means
// DefaultVerifyCacheSize).
func NewVerifyCache(limit int) *VerifyCache {
	if limit <= 0 {
		limit = DefaultVerifyCacheSize
	}
	return &VerifyCache{t: bounded.New[verifyKey, struct{}](limit, 0, nil)}
}

// Len reports the number of cached verifications.
func (c *VerifyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Len()
}

func (c *VerifyCache) hit(k verifyKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.t.Get(k)
	return ok
}

func (c *VerifyCache) add(k verifyKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t.Put(k, struct{}{})
}
