package access

import (
	"errors"
	"testing"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/credential"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

const dealer = id.Party("urn:org:dealer")

func TestAuthorizeWithActiveRole(t *testing.T) {
	t.Parallel()
	m := NewManager()
	if err := m.Authorize(dealer, "dealer"); !errors.Is(err, ErrDenied) {
		t.Fatalf("Authorize before activation = %v, want ErrDenied", err)
	}
	m.Activate(dealer, "dealer")
	if err := m.Authorize(dealer, "dealer"); err != nil {
		t.Fatalf("Authorize after activation: %v", err)
	}
}

func TestUndeclaredOperationIsOpen(t *testing.T) {
	t.Parallel()
	m := NewManager()
	if err := m.Authorize(dealer); err != nil {
		t.Fatalf("open operation denied: %v", err)
	}
}

func TestEventDrivenActivation(t *testing.T) {
	t.Parallel()
	m := NewManager()
	m.Apply(Event{Kind: EventCredentialPresented, Party: dealer, Roles: []Role{"dealer"}})
	if err := m.Authorize(dealer, "dealer"); err != nil {
		t.Fatal(err)
	}
	m.Apply(Event{Kind: EventRevoked, Party: dealer})
	if err := m.Authorize(dealer, "dealer"); !errors.Is(err, ErrDenied) {
		t.Fatalf("Authorize after revocation = %v, want ErrDenied", err)
	}
	m.Apply(Event{Kind: EventCredentialPresented, Party: dealer, Roles: []Role{"dealer"}})
	m.Apply(Event{Kind: EventDisconnected, Party: dealer})
	if err := m.Authorize(dealer, "dealer"); !errors.Is(err, ErrDenied) {
		t.Fatalf("Authorize after disconnect = %v, want ErrDenied", err)
	}
}

func TestActivateFromCertificate(t *testing.T) {
	t.Parallel()
	clk := clock.NewManual(time.Date(2004, 3, 25, 0, 0, 0, 0, time.UTC))
	caKey, err := sig.GenerateEd25519("ca")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := credential.NewRootAuthority("urn:ttp:ca", caKey, clk)
	if err != nil {
		t.Fatal(err)
	}
	pKey, err := sig.GenerateEd25519("p")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue(dealer, pKey.KeyID(), pKey.PublicKey(), credential.WithRoles("dealer", "partner"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	m.ActivateFromCertificate(cert)
	if err := m.Authorize(dealer, "dealer"); err != nil {
		t.Fatal(err)
	}
	roles := m.Roles(dealer)
	if len(roles) != 2 {
		t.Fatalf("Roles = %v", roles)
	}
}
