package evidence

import (
	"testing"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// tokenTBS is the to-be-signed projection of a token as encoding/json
// sees it: the oracle TBSDigest's appender is held to.
type tokenTBS struct {
	Kind       Kind       `json:"kind"`
	Run        id.Run     `json:"run"`
	Txn        id.Txn     `json:"txn,omitempty"`
	Step       int        `json:"step"`
	Issuer     id.Party   `json:"issuer"`
	Recipients []id.Party `json:"recipients,omitempty"`
	Service    id.Service `json:"service,omitempty"`
	Digest     sig.Digest `json:"digest"`
	IssuedAt   time.Time  `json:"issued_at"`
	Nonce      string     `json:"nonce,omitempty"`
}

// tbsReflect digests tokenTBS through canon.Sum256.
func (t *Token) tbsReflect() (sig.Digest, error) {
	return sig.SumCanonical(tokenTBS{
		Kind:       t.Kind,
		Run:        t.Run,
		Txn:        t.Txn,
		Step:       t.Step,
		Issuer:     t.Issuer,
		Recipients: t.Recipients,
		Service:    t.Service,
		Digest:     t.Digest,
		IssuedAt:   t.IssuedAt,
		Nonce:      t.Nonce,
	})
}

// TestTBSDigestMatchesReflection holds TBSDigest's direct appender to
// its oracle, tbsReflect, across hostile text, the omitempty fields both
// ways and times Marshal truncates or refuses: the same digest, or an
// error exactly where the oracle fails.
func TestTBSDigestMatchesReflection(t *testing.T) {
	texts := []string{"", `q"b\`, "\x00\x1f\x7f\n", "<>&", "bad\xff", "cut\xe2\x82", "\xe2\x80\xa8\xe2\x80\xa9", "\U0001F600"}
	times := []time.Time{
		{},
		time.Date(1969, 7, 20, 20, 17, 40, 5, time.UTC),
		time.Date(2026, 8, 8, 4, 5, 6, 120_000_000, time.FixedZone("", -(3*3600+30*60))),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", 61)),
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", 25*3600)),
	}
	recipients := [][]id.Party{nil, {}, {"urn:org:b"}, {"urn:org:b", "c\xff"}}
	n := 0
	for i, s := range texts {
		for j, at := range times {
			for k, to := range recipients {
				tok := &Token{
					Kind:       Kind(s),
					Run:        id.Run(texts[(i+1)%len(texts)]),
					Txn:        id.Txn(texts[(i+j)%len(texts)]),
					Step:       i - j,
					Issuer:     id.Party(s),
					Recipients: to,
					Service:    id.Service(texts[(i+k)%len(texts)]),
					Digest:     sig.Sum([]byte(s)),
					IssuedAt:   at,
					Nonce:      texts[(j+k)%len(texts)],
				}
				want, wantErr := tok.tbsReflect()
				got, err := tok.TBSDigest()
				if (err == nil) != (wantErr == nil) || got != want {
					t.Fatalf("token %+v: TBSDigest %x (error %v), canon.Sum256 %x (error %v)", tok, got, err, want, wantErr)
				}
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no tokens checked")
	}
}

// TestTBSDigestAllocs pins what a fresh token's TBSDigest allocates: its
// memo, and nothing to digest.
func TestTBSDigestAllocs(t *testing.T) {
	signer, err := sig.GenerateEd25519("urn:org:a#key")
	if err != nil {
		t.Fatal(err)
	}
	issuer := &Issuer{Party: "urn:org:a", Signer: signer, Clock: clock.Real{}}
	tok, err := issuer.Issue(KindNRO, id.NewRun(), 1, sig.Sum([]byte("x")),
		WithRecipients("urn:org:b"), WithService("svc"), WithTxn(id.NewTxn()))
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]Token, 202)
	for i := range fresh {
		fresh[i] = Token{Kind: tok.Kind, Run: tok.Run, Txn: tok.Txn, Step: tok.Step, Issuer: tok.Issuer,
			Recipients: tok.Recipients, Service: tok.Service, Digest: tok.Digest, IssuedAt: tok.IssuedAt,
			Nonce: tok.Nonce, Signature: tok.Signature}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := fresh[i].TBSDigest(); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 1 {
		t.Fatalf("a fresh token's TBSDigest allocates %v times, want 1 (its memo)", allocs)
	}
}
