package evidence

import (
	"errors"
	"fmt"
	"slices"

	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// Anchors are what the tokens of an invocation run bind to: its NRO, NRR
// and NROResp, the server its request names and the TTP asked to decide
// it. A door takes the server from its request snapshot; the adjudicator
// from the NRO's one recipient, and it knows no TTP. An empty field
// leaves unbound what it anchors.
type Anchors struct {
	Run               id.Run
	NRO, NRR, NROResp *Token
	Server, TTP       id.Party
}

// Receipt is the client's note on the run's response: the content of its
// NRRResp and of a TTP's substitute receipt.
func (a *Anchors) Receipt(c Consumption) ReceiptNote {
	return ReceiptNote{Run: a.Run, Client: a.NRO.Issuer, ResponseDigest: a.NROResp.Digest, Consumption: c}
}

// ReceiptDigest is the digest of the run's receipt note.
func (a *Anchors) ReceiptDigest(c Consumption) sig.Digest {
	note := a.Receipt(c)
	d, _ := note.Digest() // a fixed-shape struct always encodes
	return d
}

// Binding is one entry of the binding table: the anchor tokens a token of
// Kind needs, and the issuer ("" when unbound) and the digests (a nil func
// when unbound) it must carry given them. From and Covers name what a
// token breaking either binding is not.
type Binding struct {
	Kind         Kind
	Needs        []Kind
	Issuer       func(*Anchors) id.Party
	Digests      func(*Anchors) []sig.Digest
	From, Covers string
}

// Bindings is the binding table. Every door of internal/invoke accepts a
// run token by its entry (ExpectBound), and the adjudicator judges a run's
// tokens by the same entries, so a party accepts only what an adjudicator
// later accepts.
var Bindings = []Binding{
	{KindNRR, []Kind{KindNRO}, func(a *Anchors) id.Party { return a.Server },
		func(a *Anchors) []sig.Digest { return []sig.Digest{a.NRO.Digest} },
		"is not from the server the request names", "does not cover the run's request"},
	{KindNROResp, []Kind{KindNRR}, func(a *Anchors) id.Party { return a.NRR.Issuer }, nil,
		"is not from the server that received the request", ""},
	{KindNRRResp, []Kind{KindNRO, KindNROResp}, func(a *Anchors) id.Party { return a.NRO.Issuer },
		func(a *Anchors) []sig.Digest {
			return []sig.Digest{a.ReceiptDigest(Consumed), a.ReceiptDigest(NotConsumed)}
		},
		"is not from the run's client", "is not the client's receipt of the run's response"},
	{KindSubstitute, []Kind{KindNRO, KindNROResp}, func(a *Anchors) id.Party { return a.TTP },
		func(a *Anchors) []sig.Digest { return []sig.Digest{a.ReceiptDigest(Consumed)} },
		"is not from the TTP asked", "does not acknowledge the run's response"},
	{KindAbort, []Kind{KindNRO}, func(a *Anchors) id.Party { return a.TTP },
		func(a *Anchors) []sig.Digest { return []sig.Digest{a.NRO.Digest} },
		"is not from the TTP asked", "does not cover the run's request"},
}

// Check judges tok by b under a. It reports whether a holds the anchors b
// needs — a token without them is unbound — and, if so, an error naming
// the binding tok breaks. Unbound parts are not checked.
func (b *Binding) Check(tok *Token, a *Anchors) (bool, error) {
	for _, k := range b.Needs {
		if (k == KindNRO && a.NRO == nil) || (k == KindNRR && a.NRR == nil) || (k == KindNROResp && a.NROResp == nil) {
			return false, nil
		}
	}
	if want := b.Issuer(a); want != "" && tok.Issuer != want {
		return true, errors.New(string(b.Kind) + " token " + b.From)
	}
	if b.Digests != nil && !slices.Contains(b.Digests(a), tok.Digest) {
		return true, errors.New(string(b.Kind) + " token " + b.Covers)
	}
	return true, nil
}

// ExpectBound is a door's rule for a run token: tok is a's run's token of
// kind, anchored, holding its entry of Bindings, and it verifies. An entry
// a leaves without an issuer is refused: a door knows whom it expects.
func (v *Verifier) ExpectBound(tok *Token, kind Kind, a *Anchors) error {
	if err := expectRun(tok, kind, a.Run); err != nil {
		return err
	}
	if i := slices.IndexFunc(Bindings, func(b Binding) bool { return b.Kind == kind }); i >= 0 {
		if anchored, err := Bindings[i].Check(tok, a); anchored && Bindings[i].Issuer(a) != "" {
			if err != nil {
				return err
			}
			return v.Verify(tok)
		}
	}
	return fmt.Errorf("evidence: nothing binds the %s token of run %s", kind, a.Run)
}
