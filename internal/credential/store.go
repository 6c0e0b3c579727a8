package credential

import (
	"bytes"
	"fmt"
	"sync"

	"nonrep/internal/clock"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// Store holds trust anchors, certificates and revocation information, and
// resolves key identifiers to verified public keys. It is safe for
// concurrent use.
type Store struct {
	clk clock.Clock

	mu      sync.RWMutex
	roots   map[string]*Certificate // by key identifier
	byKey   map[string]*Certificate
	revoked map[string]bool // by serial
	crlAt   map[id.Party]int64
	// chains caches cryptographically verified chains by leaf key
	// identifier: the signature checks along a chain are immutable facts,
	// so only validity windows and revocation — which change with time
	// and CRLs — are re-checked on each hit. Certificate additions clear
	// the cache (resolution may change); revocations are caught by the
	// per-hit re-check.
	chains map[string][]*Certificate
	keys   map[string]sig.PublicKey // parsed leaf keys, same lifecycle
}

// NewStore creates an empty store reading validity against clk.
func NewStore(clk clock.Clock) *Store {
	return &Store{
		clk:     clk,
		roots:   make(map[string]*Certificate),
		byKey:   make(map[string]*Certificate),
		revoked: make(map[string]bool),
		crlAt:   make(map[id.Party]int64),
		chains:  make(map[string][]*Certificate),
		keys:    make(map[string]sig.PublicKey),
	}
}

// AddRoot installs a self-signed certificate as a trust anchor after
// verifying its self-signature.
func (s *Store) AddRoot(cert *Certificate) error {
	if !cert.SelfSigned() {
		return fmt.Errorf("credential: root certificate %s is not self-signed", cert.Serial)
	}
	key, err := cert.Key()
	if err != nil {
		return err
	}
	d, err := cert.Digest()
	if err != nil {
		return err
	}
	if err := key.Verify(d, cert.Signature); err != nil {
		return fmt.Errorf("credential: root %s self-signature: %w", cert.Serial, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.roots[cert.KeyID] = cert
	s.byKey[cert.KeyID] = cert
	s.invalidateLocked()
	return nil
}

// invalidateLocked drops cached verification state after the certificate
// set changed. Callers hold the write lock.
func (s *Store) invalidateLocked() {
	clear(s.chains)
	clear(s.keys)
}

// Add stores a certificate. The chain is verified on use, not on store, so
// certificates may arrive in any order. A certificate for a key id already
// bound to the same key replaces the stored one (a renewal, a bundle
// imported twice); one that binds the key id to a different key is
// refused, since every token signed under the key id would then verify
// against the new key and no longer against the one that signed it.
func (s *Store) Add(cert *Certificate) error {
	if cert.KeyID == "" {
		return fmt.Errorf("credential: certificate %s has empty key id", cert.Serial)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.byKey[cert.KeyID]; ok &&
		(prev.Algorithm != cert.Algorithm || !bytes.Equal(prev.PublicKey, cert.PublicKey)) {
		return fmt.Errorf("credential: key id %q is bound to another key by certificate %s", cert.KeyID, prev.Serial)
	}
	s.byKey[cert.KeyID] = cert
	s.invalidateLocked()
	return nil
}

// AddCRL verifies and merges a revocation list. The CRL must be signed by
// a key the store can already verify. Older CRLs from the same issuer are
// ignored.
func (s *Store) AddCRL(l *CRL) error {
	key, err := s.VerifiedKey(l.IssuerKeyID)
	if err != nil {
		return fmt.Errorf("credential: crl issuer: %w", err)
	}
	d, err := l.Digest()
	if err != nil {
		return err
	}
	if err := key.Verify(d, l.Signature); err != nil {
		return fmt.Errorf("credential: crl signature: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.crlAt[l.Issuer]; ok && prev >= l.IssuedAt.UnixNano() {
		return nil
	}
	s.crlAt[l.Issuer] = l.IssuedAt.UnixNano()
	for _, serial := range l.Serials {
		s.revoked[serial] = true
	}
	return nil
}

// Lookup returns the stored certificate for a key identifier without chain
// verification.
func (s *Store) Lookup(keyID string) (*Certificate, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cert, ok := s.byKey[keyID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKey, keyID)
	}
	return cert, nil
}

// Chain returns the verified certificate chain for a key identifier, from
// the leaf to the trust anchor. Chains that verified once are cached —
// the signature checks are immutable — with validity windows and
// revocation state re-checked against the current clock and CRLs on every
// call, so expiry and revocation still take effect immediately.
func (s *Store) Chain(keyID string) ([]*Certificate, error) {
	s.mu.RLock()
	if chain, ok := s.chains[keyID]; ok {
		err := s.recheckLocked(chain)
		s.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		return chain, nil
	}
	s.mu.RUnlock()

	chain, err := s.verifyChain(keyID)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	// The certificate set may have changed since verification; only cache
	// what current state still resolves to.
	if cur, ok := s.byKey[keyID]; ok && cur == chain[0] {
		s.chains[keyID] = chain
	}
	s.mu.Unlock()
	return chain, nil
}

// recheckLocked re-applies the time- and CRL-dependent checks to a cached
// chain. Callers hold (at least) the read lock.
func (s *Store) recheckLocked(chain []*Certificate) error {
	now := s.clk.Now()
	for _, cert := range chain {
		if !cert.validAt(now) {
			return fmt.Errorf("%w: %s at %v", ErrExpired, cert.Serial, now)
		}
		if s.revoked[cert.Serial] {
			return fmt.Errorf("%w: %s", ErrRevoked, cert.Serial)
		}
	}
	return nil
}

// verifyChain performs the full cryptographic chain walk.
func (s *Store) verifyChain(keyID string) ([]*Certificate, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := s.clk.Now()

	var chain []*Certificate
	current, ok := s.byKey[keyID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKey, keyID)
	}
	for depth := 0; depth < maxChainDepth; depth++ {
		if !current.validAt(now) {
			return nil, fmt.Errorf("%w: %s at %v", ErrExpired, current.Serial, now)
		}
		if s.revoked[current.Serial] {
			return nil, fmt.Errorf("%w: %s", ErrRevoked, current.Serial)
		}
		chain = append(chain, current)

		if _, isRoot := s.roots[current.KeyID]; isRoot && current.SelfSigned() {
			return chain, nil
		}
		issuer, ok := s.byKey[current.IssuerKeyID]
		if !ok {
			return nil, fmt.Errorf("%w: issuer %q of %s not in store", ErrUntrusted, current.IssuerKeyID, current.Serial)
		}
		if !issuer.IsCA {
			return nil, fmt.Errorf("%w: %s", ErrNotCA, issuer.Serial)
		}
		issuerKey, err := issuer.Key()
		if err != nil {
			return nil, err
		}
		d, err := current.Digest()
		if err != nil {
			return nil, err
		}
		if err := issuerKey.Verify(d, current.Signature); err != nil {
			return nil, fmt.Errorf("credential: certificate %s: %w", current.Serial, err)
		}
		current = issuer
	}
	return nil, fmt.Errorf("%w: chain longer than %d", ErrUntrusted, maxChainDepth)
}

// VerifiedKey resolves a key identifier to its public key after verifying
// the full certificate chain, validity windows and revocation state. The
// parsed leaf key is cached alongside the verified chain.
func (s *Store) VerifiedKey(keyID string) (sig.PublicKey, error) {
	chain, err := s.Chain(keyID)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	key, ok := s.keys[keyID]
	s.mu.RUnlock()
	if ok {
		return key, nil
	}
	key, err = chain[0].Key()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if cur, still := s.byKey[keyID]; still && cur == chain[0] {
		s.keys[keyID] = key
	}
	s.mu.Unlock()
	return key, nil
}

// PublicKey implements the KeyResolver interface used by the stamp and
// evidence packages: it is VerifiedKey under the conventional name.
func (s *Store) PublicKey(keyID string) (sig.PublicKey, error) {
	return s.VerifiedKey(keyID)
}

// Party returns the party a verified key identifier belongs to.
func (s *Store) Party(keyID string) (id.Party, error) {
	chain, err := s.Chain(keyID)
	if err != nil {
		return "", err
	}
	return chain[0].Subject, nil
}

// Roles returns the roles embedded in a verified certificate.
func (s *Store) Roles(keyID string) ([]string, error) {
	chain, err := s.Chain(keyID)
	if err != nil {
		return nil, err
	}
	return chain[0].Roles, nil
}

// VerifySignature resolves the signature's key identifier and verifies the
// signature over d, handling aggregate (batch) signatures transparently.
// It is the single verification hook the evidence layer uses.
func (s *Store) VerifySignature(d sig.Digest, sg sig.Signature) error {
	key, err := s.VerifiedKey(sg.KeyID)
	if err != nil {
		return err
	}
	return sig.VerifyDigest(key, d, sg)
}
