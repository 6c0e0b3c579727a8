package sig

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"nonrep/internal/canon"
)

func allAlgorithms() []Algorithm {
	return []Algorithm{AlgEd25519, AlgECDSAP256, AlgRSAPSS2048, AlgForwardSecure}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	t.Parallel()
	for _, alg := range allAlgorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			signer, err := Generate(alg, "key-"+alg.String())
			if err != nil {
				t.Fatalf("Generate(%v): %v", alg, err)
			}
			if signer.Algorithm() != alg {
				t.Fatalf("Algorithm() = %v, want %v", signer.Algorithm(), alg)
			}
			d := Sum([]byte("the request payload"))
			s, err := signer.Sign(d)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if s.KeyID != signer.KeyID() {
				t.Errorf("signature KeyID = %q, want %q", s.KeyID, signer.KeyID())
			}
			if err := signer.PublicKey().Verify(d, s); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

func TestVerifyRejectsTamperedDigest(t *testing.T) {
	t.Parallel()
	for _, alg := range allAlgorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			signer, err := Generate(alg, "k")
			if err != nil {
				t.Fatal(err)
			}
			d := Sum([]byte("original"))
			s, err := signer.Sign(d)
			if err != nil {
				t.Fatal(err)
			}
			other := Sum([]byte("tampered"))
			if err := signer.PublicKey().Verify(other, s); err == nil {
				t.Fatal("Verify accepted signature over different digest")
			}
		})
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	t.Parallel()
	for _, alg := range allAlgorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			signer, err := Generate(alg, "k")
			if err != nil {
				t.Fatal(err)
			}
			d := Sum([]byte("payload"))
			s, err := signer.Sign(d)
			if err != nil {
				t.Fatal(err)
			}
			s.Bytes[0] ^= 0xff
			if err := signer.PublicKey().Verify(d, s); err == nil {
				t.Fatal("Verify accepted corrupted signature")
			}
		})
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	t.Parallel()
	for _, alg := range allAlgorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			a, err := Generate(alg, "a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := Generate(alg, "b")
			if err != nil {
				t.Fatal(err)
			}
			d := Sum([]byte("payload"))
			s, err := a.Sign(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.PublicKey().Verify(d, s); err == nil {
				t.Fatal("Verify accepted signature from a different key")
			}
		})
	}
}

func TestVerifyRejectsAlgorithmMismatch(t *testing.T) {
	t.Parallel()
	ed, err := Generate(AlgEd25519, "ed")
	if err != nil {
		t.Fatal(err)
	}
	ec, err := Generate(AlgECDSAP256, "ec")
	if err != nil {
		t.Fatal(err)
	}
	d := Sum([]byte("payload"))
	s, err := ed.Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := ec.PublicKey().Verify(d, s); !errors.Is(err, ErrAlgorithmMismatch) {
		t.Fatalf("Verify = %v, want ErrAlgorithmMismatch", err)
	}
}

func TestPublicKeyMarshalRoundTrip(t *testing.T) {
	t.Parallel()
	for _, alg := range allAlgorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			signer, err := Generate(alg, "k")
			if err != nil {
				t.Fatal(err)
			}
			encoded := signer.PublicKey().Marshal()
			parsed, err := ParsePublicKey(alg, encoded)
			if err != nil {
				t.Fatalf("ParsePublicKey: %v", err)
			}
			d := Sum([]byte("payload"))
			s, err := signer.Sign(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := parsed.Verify(d, s); err != nil {
				t.Fatalf("parsed key Verify: %v", err)
			}
			if !bytes.Equal(parsed.Marshal(), encoded) {
				t.Error("re-marshalled public key differs")
			}
		})
	}
}

func TestParsePublicKeyRejectsGarbage(t *testing.T) {
	t.Parallel()
	for _, alg := range allAlgorithms() {
		if _, err := ParsePublicKey(alg, []byte{1, 2, 3}); err == nil {
			t.Errorf("ParsePublicKey(%v, garbage) succeeded", alg)
		}
	}
	if _, err := ParsePublicKey(Algorithm(99), nil); err == nil {
		t.Error("ParsePublicKey(unknown algorithm) succeeded")
	}
}

func TestAlgorithmStringParseRoundTrip(t *testing.T) {
	t.Parallel()
	for _, alg := range allAlgorithms() {
		got, err := ParseAlgorithm(alg.String())
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", alg.String(), err)
		}
		if got != alg {
			t.Errorf("ParseAlgorithm(%q) = %v, want %v", alg.String(), got, alg)
		}
	}
	if _, err := ParseAlgorithm("md5"); err == nil {
		t.Error("ParseAlgorithm accepted unknown algorithm")
	}
}

func TestDigestTextRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(data []byte) bool {
		d := Sum(data)
		text, err := d.MarshalText()
		if err != nil {
			return false
		}
		var back Digest
		if err := back.UnmarshalText(text); err != nil {
			return false
		}
		return back == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDigestUnmarshalRejectsBadInput(t *testing.T) {
	t.Parallel()
	var d Digest
	if err := d.UnmarshalText([]byte("zz")); err == nil {
		t.Error("UnmarshalText accepted non-hex input")
	}
	if err := d.UnmarshalText([]byte("abcd")); err == nil {
		t.Error("UnmarshalText accepted short input")
	}
}

func TestSumDeterministicAndSensitive(t *testing.T) {
	t.Parallel()
	f := func(a, b []byte) bool {
		if Sum(a) != Sum(a) {
			return false
		}
		if bytes.Equal(a, b) {
			return Sum(a) == Sum(b)
		}
		return Sum(a) != Sum(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSumPairOrderSensitive(t *testing.T) {
	t.Parallel()
	a, b := Sum([]byte("a")), Sum([]byte("b"))
	if SumPair(a, b) == SumPair(b, a) {
		t.Fatal("SumPair is order-insensitive; hash chains would be forgeable")
	}
}

func TestSumCanonicalMatchesManualEncoding(t *testing.T) {
	t.Parallel()
	type payload struct {
		Op   string `json:"op"`
		Args []int  `json:"args"`
	}
	a, err := SumCanonical(payload{Op: "order", Args: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	b := MustSumCanonical(payload{Op: "order", Args: []int{1, 2}})
	if a != b {
		t.Fatal("SumCanonical differs between identical values")
	}
	c := MustSumCanonical(payload{Op: "order", Args: []int{2, 1}})
	if a == c {
		t.Fatal("SumCanonical ignored argument order")
	}
}

func TestIsZero(t *testing.T) {
	t.Parallel()
	var zero Digest
	if !zero.IsZero() {
		t.Error("zero digest not reported as zero")
	}
	if Sum([]byte("x")).IsZero() {
		t.Error("non-zero digest reported as zero")
	}
}

// TestAppendCanonicalMatchesMarshal holds the signature's direct
// canonical-JSON appender to canon.Marshal: every scheme's signatures
// (forward-secure ones fill the period, hint and path), batch
// signatures, and the nil, empty and hostile values encoding/json
// renders its own way.
func TestAppendCanonicalMatchesMarshal(t *testing.T) {
	var sigs []Signature
	for _, alg := range allAlgorithms() {
		signer, err := Generate(alg, "key-"+alg.String())
		if err != nil {
			t.Fatal(err)
		}
		s, err := signer.Sign(Sum([]byte("payload")))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := SignBatch(signer, []Digest{Sum([]byte("a")), Sum([]byte("b")), Sum([]byte("c"))})
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(append(sigs, s), batch...)
	}
	sigs = append(sigs,
		Signature{},
		Signature{Algorithm: 255, KeyID: "k\"\\\x00\x7f<>&\xff\xe2\x80\xa8", Bytes: []byte{}},
		Signature{Period: 1, PublicHint: []byte{}, Path: [][]byte{}, BatchRoot: []byte{}, BatchPath: [][]byte{}, BatchIndex: 0},
		Signature{Path: [][]byte{nil, {}, {1}}, BatchRoot: []byte{2}, BatchPath: [][]byte{nil}, BatchIndex: 1 << 31},
	)
	for _, s := range sigs {
		want, err := canon.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.AppendCanonical([]byte("x")); !bytes.Equal(got[1:], want) {
			t.Errorf("AppendCanonical differs from canon.Marshal:\n want %s\n  got %s", want, got[1:])
		}
	}
}
