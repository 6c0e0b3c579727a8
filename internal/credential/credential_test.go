package credential

import (
	"errors"
	"testing"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// fixture builds a root authority, an org key certified by it, and a store
// trusting the root.
type fixture struct {
	clk      *clock.Manual
	root     *Authority
	orgKey   sig.Signer
	orgCert  *Certificate
	store    *Store
	rootCert *Certificate
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clk := clock.NewManual(time.Date(2004, 3, 25, 0, 0, 0, 0, time.UTC))
	rootKey, err := sig.GenerateEd25519("root-key")
	if err != nil {
		t.Fatal(err)
	}
	root, err := NewRootAuthority("urn:ttp:ca", rootKey, clk)
	if err != nil {
		t.Fatal(err)
	}
	orgKey, err := sig.GenerateEd25519("org-a-key")
	if err != nil {
		t.Fatal(err)
	}
	orgCert, err := root.Issue("urn:org:a", orgKey.KeyID(), orgKey.PublicKey(), WithRoles("supplier"))
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(clk)
	if err := store.AddRoot(root.Certificate()); err != nil {
		t.Fatal(err)
	}
	if err := store.Add(orgCert); err != nil {
		t.Fatal(err)
	}
	return &fixture{
		clk:      clk,
		root:     root,
		orgKey:   orgKey,
		orgCert:  orgCert,
		store:    store,
		rootCert: root.Certificate(),
	}
}

func TestChainLeafToRoot(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	chain, err := f.store.Chain("org-a-key")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[0].Serial != f.orgCert.Serial || chain[1].Serial != f.rootCert.Serial {
		t.Fatalf("unexpected chain %v", chain)
	}
}

func TestVerifySignatureThroughStore(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	d := sig.Sum([]byte("evidence"))
	s, err := f.orgKey.Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.VerifySignature(d, s); err != nil {
		t.Fatalf("VerifySignature: %v", err)
	}
	// A signature from an uncertified key must be rejected.
	rogue, err := sig.GenerateEd25519("rogue-key")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rogue.Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.VerifySignature(d, rs); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("VerifySignature(rogue) = %v, want ErrUnknownKey", err)
	}
}

func TestIntermediateAuthority(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	subKey, err := sig.GenerateEd25519("sub-ca-key")
	if err != nil {
		t.Fatal(err)
	}
	subCert, err := f.root.Issue("urn:org:a:dept", subKey.KeyID(), subKey.PublicKey(), AsCA())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewAuthority(subCert, subKey, f.clk)
	if err != nil {
		t.Fatal(err)
	}
	svcKey, err := sig.GenerateEd25519("svc-key")
	if err != nil {
		t.Fatal(err)
	}
	svcCert, err := sub.Issue("urn:org:a:dept/svc", svcKey.KeyID(), svcKey.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.Add(subCert); err != nil {
		t.Fatal(err)
	}
	if err := f.store.Add(svcCert); err != nil {
		t.Fatal(err)
	}
	chain, err := f.store.Chain("svc-key")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 {
		t.Fatalf("chain length = %d, want 3", len(chain))
	}
}

func TestNonCAIssuerRejected(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	// The org certificate is not a CA; a certificate claiming it as
	// issuer must fail chain verification.
	leafKey, err := sig.GenerateEd25519("leaf-key")
	if err != nil {
		t.Fatal(err)
	}
	fakeAuthority := &Authority{cert: f.orgCert, signer: f.orgKey, clk: f.clk}
	leaf, err := fakeAuthority.Issue("urn:org:mallory", leafKey.KeyID(), leafKey.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.Add(leaf); err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.Chain("leaf-key"); !errors.Is(err, ErrNotCA) {
		t.Fatalf("Chain = %v, want ErrNotCA", err)
	}
}

func TestNewAuthorityRejectsNonCA(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	if _, err := NewAuthority(f.orgCert, f.orgKey, f.clk); !errors.Is(err, ErrNotCA) {
		t.Fatalf("NewAuthority(non-CA) = %v, want ErrNotCA", err)
	}
}

func TestExpiryEnforced(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	f.clk.Advance(2 * defaultValidity)
	if _, err := f.store.Chain("org-a-key"); !errors.Is(err, ErrExpired) {
		t.Fatalf("Chain after expiry = %v, want ErrExpired", err)
	}
}

func TestNotYetValidEnforced(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	futureKey, err := sig.GenerateEd25519("future-key")
	if err != nil {
		t.Fatal(err)
	}
	start := f.clk.Now().Add(time.Hour)
	cert, err := f.root.Issue("urn:org:b", futureKey.KeyID(), futureKey.PublicKey(),
		WithValidity(start, start.Add(time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.Add(cert); err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.Chain("future-key"); !errors.Is(err, ErrExpired) {
		t.Fatalf("Chain before validity = %v, want ErrExpired", err)
	}
	f.clk.Advance(90 * time.Minute)
	if _, err := f.store.Chain("future-key"); err != nil {
		t.Fatalf("Chain inside validity window: %v", err)
	}
}

func TestRevocation(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	crl, err := f.root.Revoke(f.orgCert.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.AddCRL(crl); err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.Chain("org-a-key"); !errors.Is(err, ErrRevoked) {
		t.Fatalf("Chain after revocation = %v, want ErrRevoked", err)
	}
}

func TestStaleCRLIgnored(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	stale, err := f.root.Revoke(f.orgCert.Serial)
	if err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(time.Hour)
	fresh, err := f.root.Revoke() // empty: nothing revoked
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.AddCRL(fresh); err != nil {
		t.Fatal(err)
	}
	// The stale CRL must not resurrect old revocations over the fresh
	// one... but revocation is monotone per serial; the stale CRL is
	// simply ignored because it is older.
	if err := f.store.AddCRL(stale); err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.Chain("org-a-key"); err != nil {
		t.Fatalf("stale CRL was applied: %v", err)
	}
}

func TestCRLBadSignatureRejected(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	crl, err := f.root.Revoke(f.orgCert.Serial)
	if err != nil {
		t.Fatal(err)
	}
	crl.Serials = append(crl.Serials, "injected")
	if err := f.store.AddCRL(crl); err == nil {
		t.Fatal("AddCRL accepted tampered CRL")
	}
}

func TestAddRootRejectsNonSelfSigned(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	if err := NewStore(f.clk).AddRoot(f.orgCert); err == nil {
		t.Fatal("AddRoot accepted a non-self-signed certificate")
	}
}

func TestAddRootRejectsBadSelfSignature(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	bad := *f.rootCert
	bad.Serial = "forged"
	if err := NewStore(f.clk).AddRoot(&bad); err == nil {
		t.Fatal("AddRoot accepted a forged root")
	}
}

func TestUnknownKey(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	if _, err := f.store.Lookup("missing"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("Lookup(missing) = %v, want ErrUnknownKey", err)
	}
	if _, err := f.store.Chain("missing"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("Chain(missing) = %v, want ErrUnknownKey", err)
	}
}

// TestAddRefusesRebindingKeyID: a certificate binding a stored key id to
// a different key is refused, so what the first key signed keeps
// verifying; the same key certified again (a renewal) replaces the stored
// certificate.
func TestAddRefusesRebindingKeyID(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	d := sig.Sum([]byte("signed by the first key"))
	s, err := f.orgKey.Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	other, err := sig.GenerateEd25519("org-a-key")
	if err != nil {
		t.Fatal(err)
	}
	rebind, err := f.root.Issue("urn:org:a", other.KeyID(), other.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.Add(rebind); err == nil {
		t.Fatal("Add bound org-a-key to a second key")
	}
	if err := f.store.VerifySignature(d, s); err != nil {
		t.Fatalf("first key's signature after a refused rebind: %v", err)
	}
	renewal, err := f.root.Issue("urn:org:a", f.orgKey.KeyID(), f.orgKey.PublicKey(), WithRoles("buyer"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.Add(renewal); err != nil {
		t.Fatalf("renewal of the same key: %v", err)
	}
	if cert, err := f.store.Lookup("org-a-key"); err != nil || cert.Serial != renewal.Serial {
		t.Fatalf("Lookup after renewal = %v, %v; want serial %s", cert, err, renewal.Serial)
	}
	if err := f.store.VerifySignature(d, s); err != nil {
		t.Fatalf("signature after renewal: %v", err)
	}
}

func TestRolesAndParty(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	party, err := f.store.Party("org-a-key")
	if err != nil {
		t.Fatal(err)
	}
	if party != id.Party("urn:org:a") {
		t.Errorf("Party = %q", party)
	}
	roles, err := f.store.Roles("org-a-key")
	if err != nil {
		t.Fatal(err)
	}
	if len(roles) != 1 || roles[0] != "supplier" {
		t.Errorf("Roles = %v", roles)
	}
}

func TestTamperedCertificateRejected(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	tampered := *f.orgCert
	tampered.Subject = "urn:org:mallory"
	tampered.KeyID = "mallory-key"
	store := NewStore(f.clk)
	if err := store.AddRoot(f.rootCert); err != nil {
		t.Fatal(err)
	}
	if err := store.Add(&tampered); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Chain("mallory-key"); err == nil {
		t.Fatal("Chain accepted tampered certificate")
	}
}
