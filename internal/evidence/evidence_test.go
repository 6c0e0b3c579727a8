package evidence_test

import (
	"errors"
	"strings"
	"testing"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/testpki"
)

const (
	alice = id.Party("urn:org:alice")
	bob   = id.Party("urn:org:bob")
)

func TestIssueAndVerify(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice, bob)
	run := id.NewRun()
	d := sig.Sum([]byte("request"))
	tok, err := realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, 1, d,
		evidence.WithService("urn:org:bob/orders"),
		evidence.WithRecipients(bob),
		evidence.WithTxn("txn-1"),
	)
	if err != nil {
		t.Fatal(err)
	}
	v := realm.Verifier()
	if err := v.Verify(tok); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := v.Expect(tok, evidence.KindNRO, run, alice, d); err != nil {
		t.Fatalf("Expect: %v", err)
	}
}

func TestVerifyRejectsTamperedField(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice, bob)
	run := id.NewRun()
	tok, err := realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, 1, sig.Sum([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*evidence.Token){
		"kind":   func(tk *evidence.Token) { tk.Kind = evidence.KindNRR },
		"run":    func(tk *evidence.Token) { tk.Run = "run-other" },
		"step":   func(tk *evidence.Token) { tk.Step = 99 },
		"digest": func(tk *evidence.Token) { tk.Digest = sig.Sum([]byte("forged")) },
		"nonce":  func(tk *evidence.Token) { tk.Nonce = "forged" },
		"time":   func(tk *evidence.Token) { tk.IssuedAt = tk.IssuedAt.Add(1) },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			clone := *tok
			mutate(&clone)
			if err := realm.Verifier().Verify(&clone); err == nil {
				t.Fatalf("Verify accepted token with tampered %s", name)
			}
		})
	}
}

func TestVerifyRejectsIssuerSpoofing(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice, bob)
	tok, err := realm.Party(alice).Issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	// Bob re-signs Alice's token content with his own key but keeps the
	// Issuer field claiming Alice.
	tbs, err := tok.TBSDigest()
	if err != nil {
		t.Fatal(err)
	}
	tok.Signature, err = realm.Party(bob).Signer.Sign(tbs)
	if err != nil {
		t.Fatal(err)
	}
	if err := realm.Verifier().Verify(tok); !errors.Is(err, evidence.ErrIssuerMismatch) {
		t.Fatalf("Verify = %v, want ErrIssuerMismatch", err)
	}
}

func TestVerifyContentMismatch(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice)
	run := id.NewRun()
	tok, err := realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, 1, sig.Sum([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	err = realm.Verifier().Expect(tok, evidence.KindNRO, run, alice, sig.Sum([]byte("y")))
	if !errors.Is(err, evidence.ErrContentMismatch) {
		t.Fatalf("Expect over other content = %v, want ErrContentMismatch", err)
	}
}

func TestExpectChecksBinding(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice, bob)
	run := id.NewRun()
	d := sig.Sum([]byte("x"))
	tok, err := realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	v := realm.Verifier()
	if err := v.Expect(nil, evidence.KindNRO, run, alice, d); !errors.Is(err, evidence.ErrKindMismatch) {
		t.Errorf("missing token = %v, want ErrKindMismatch", err)
	}
	if err := v.Expect(tok, evidence.KindNRR, run, alice, d); !errors.Is(err, evidence.ErrKindMismatch) {
		t.Errorf("wrong kind = %v, want ErrKindMismatch", err)
	}
	if err := v.Expect(tok, evidence.KindNRO, "run-other", alice, d); !errors.Is(err, evidence.ErrRunMismatch) {
		t.Errorf("wrong run = %v, want ErrRunMismatch", err)
	}
	if err := v.Expect(tok, evidence.KindNRO, run, bob, d); !errors.Is(err, evidence.ErrIssuerMismatch) {
		t.Errorf("wrong issuer = %v, want ErrIssuerMismatch", err)
	}
	// The binding is checked before the signature: a forged token over
	// other content is refused for its content.
	forged := *tok
	forged.Signature.Bytes = nil
	if err := v.Expect(&forged, evidence.KindNRO, run, alice, sig.Sum([]byte("y"))); !errors.Is(err, evidence.ErrContentMismatch) {
		t.Errorf("other content = %v, want ErrContentMismatch", err)
	}
	if err := v.Expect(&forged, evidence.KindNRO, run, alice, d); err == nil {
		t.Error("Expect accepted a token whose signature was stripped")
	}
}

// TestExpectBoundNeedsAnchorsAndIssuer: a door accepts a run token only
// by its binding-table entry, with every anchor the entry reads and an
// issuer to hold the token to; a token breaking the entry is refused
// naming the binding.
func TestExpectBoundNeedsAnchorsAndIssuer(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice, bob)
	v := realm.Verifier()
	run := id.NewRun()
	issue := func(p id.Party, kind evidence.Kind, d sig.Digest, opts ...evidence.IssueOption) *evidence.Token {
		tok, err := realm.Party(p).Issuer.Issue(kind, run, 1, d, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	nro := issue(alice, evidence.KindNRO, sig.Sum([]byte("request")), evidence.WithRecipients(bob))
	nrr := issue(bob, evidence.KindNRR, nro.Digest)
	a := evidence.Anchors{Run: run, NRO: nro, NRR: nrr, NROResp: issue(bob, evidence.KindNROResp, sig.Sum([]byte("response"))), Server: bob}
	if err := v.ExpectBound(nrr, evidence.KindNRR, &a); err != nil {
		t.Fatalf("honest NRR: %v", err)
	}
	receipt := issue(alice, evidence.KindNRRResp, a.ReceiptDigest(evidence.NotConsumed))
	if err := v.ExpectBound(receipt, evidence.KindNRRResp, &a); err != nil {
		t.Fatalf("honest NRRResp: %v", err)
	}
	if err := v.ExpectBound(issue(bob, evidence.KindNRR, sig.Sum([]byte("other"))), evidence.KindNRR, &a); err == nil ||
		!strings.Contains(err.Error(), "does not cover the run's request") {
		t.Errorf("NRR over other content = %v", err)
	}
	if err := v.ExpectBound(issue(alice, evidence.KindNRR, nro.Digest), evidence.KindNRR, &a); err == nil ||
		!strings.Contains(err.Error(), "is not from the server the request names") {
		t.Errorf("NRR from the client = %v", err)
	}
	for name, c := range map[string]struct {
		tok  *evidence.Token
		kind evidence.Kind
		a    evidence.Anchors
	}{
		"no NRO anchor":  {nrr, evidence.KindNRR, evidence.Anchors{Run: run, Server: bob}},
		"no server":      {nrr, evidence.KindNRR, evidence.Anchors{Run: run, NRO: nro}},
		"no TTP":         {issue(bob, evidence.KindAbort, nro.Digest), evidence.KindAbort, a},
		"no table entry": {nro, evidence.KindNRO, a},
		"missing token":  {nil, evidence.KindNRR, a},
	} {
		if err := v.ExpectBound(c.tok, c.kind, &c.a); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTimestampedToken(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice)
	issuer := realm.StampedIssuer(alice)
	tok, err := issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	if tok.Timestamp == nil {
		t.Fatal("token missing timestamp")
	}
	if err := realm.Verifier().Verify(tok); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Tampering with the timestamp must be detected.
	tok.Timestamp.Time = tok.Timestamp.Time.Add(1)
	if err := realm.Verifier().Verify(tok); err == nil {
		t.Fatal("Verify accepted tampered timestamp")
	}
}

func TestNoncesDiffer(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice)
	run := id.NewRun()
	d := sig.Sum([]byte("x"))
	a, err := realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	if a.Nonce == b.Nonce {
		t.Fatal("identical nonces on distinct tokens")
	}
}
