package sig

import (
	"fmt"
	"testing"
)

func batchDigests(n int) []Digest {
	out := make([]Digest, n)
	for i := range out {
		out[i] = Sum([]byte(fmt.Sprintf("digest-%d", i)))
	}
	return out
}

func TestSignBatchEveryMemberVerifies(t *testing.T) {
	for _, alg := range []Algorithm{AlgEd25519, AlgECDSAP256, AlgForwardSecure} {
		for _, n := range []int{1, 2, 3, 7, 16} {
			t.Run(fmt.Sprintf("%v/n%d", alg, n), func(t *testing.T) {
				signer, err := Generate(alg, "batch-key")
				if err != nil {
					t.Fatal(err)
				}
				digests := batchDigests(n)
				sigs, err := SignBatch(signer, digests)
				if err != nil {
					t.Fatal(err)
				}
				if len(sigs) != n {
					t.Fatalf("got %d signatures, want %d", len(sigs), n)
				}
				pub := signer.PublicKey()
				for i, s := range sigs {
					if err := VerifyDigest(pub, digests[i], s); err != nil {
						t.Fatalf("member %d: %v", i, err)
					}
					if n == 1 && len(s.BatchPath) != 0 {
						t.Fatal("singleton batch should degenerate to a plain signature")
					}
					if len(s.BatchRoot) != 0 {
						t.Fatal("batch signature carries the root the verifier recomputes")
					}
					if n > 1 && len(s.BatchPath) == 0 {
						t.Fatal("batch signature missing inclusion path")
					}
				}
				// One signing operation: all members share identical bytes.
				for i := 1; i < n; i++ {
					if string(sigs[i].Bytes) != string(sigs[0].Bytes) {
						t.Fatal("batch members carry different signature bytes")
					}
				}
			})
		}
	}
}

func TestSignBatchRejectsTampering(t *testing.T) {
	signer, err := GenerateEd25519("batch-key")
	if err != nil {
		t.Fatal(err)
	}
	digests := batchDigests(4)
	sigs, err := SignBatch(signer, digests)
	if err != nil {
		t.Fatal(err)
	}
	pub := signer.PublicKey()

	// A digest not in the batch must not verify under any member signature.
	outsider := Sum([]byte("not in the batch"))
	for i := range sigs {
		if err := VerifyDigest(pub, outsider, sigs[i]); err == nil {
			t.Fatalf("member %d accepted a digest outside the batch", i)
		}
	}

	// A transplanted index must not verify.
	swapped := sigs[0]
	swapped.BatchIndex = 1
	if err := VerifyDigest(pub, digests[0], swapped); err == nil {
		t.Fatal("accepted signature with transplanted batch index")
	}

	// A corrupted path element must not verify.
	corrupt := sigs[2]
	corrupt.BatchPath = append([][]byte(nil), corrupt.BatchPath...)
	corrupt.BatchPath[0] = make([]byte, DigestSize)
	if err := VerifyDigest(pub, digests[2], corrupt); err == nil {
		t.Fatal("accepted signature with corrupted inclusion path")
	}

	// An out-of-tree index must be rejected, not silently truncated.
	oob := sigs[1]
	oob.BatchIndex = 1 << uint(len(oob.BatchPath))
	if _, err := SignedDigest(digests[1], oob); err == nil {
		t.Fatal("accepted out-of-tree batch index")
	}
}

// TestLegacyRootedBatchSignature pins the compatibility half of dropping
// the stored root: signatures written before SignBatch stopped setting
// BatchRoot — every batch token already in a vault, fixture or golden
// vector — verify unchanged, and a carried root is still held to the
// recomputed one.
func TestLegacyRootedBatchSignature(t *testing.T) {
	signer, err := GenerateEd25519("batch-key")
	if err != nil {
		t.Fatal(err)
	}
	digests := batchDigests(5)
	sigs, err := SignBatch(signer, digests)
	if err != nil {
		t.Fatal(err)
	}
	pub := signer.PublicKey()
	root := buildMerkle(digests).root()
	for i, s := range sigs {
		got, err := SignedDigest(digests[i], s)
		if err != nil || got != root {
			t.Fatalf("member %d: rootless signature resolves to %x (%v), want the batch root", i, got[:4], err)
		}
		legacy := s
		legacy.BatchRoot = root[:]
		if err := VerifyDigest(pub, digests[i], legacy); err != nil {
			t.Fatalf("member %d: legacy signature with its root: %v", i, err)
		}
		wrong := s
		wrong.BatchRoot = make([]byte, DigestSize)
		if _, err := SignedDigest(digests[i], wrong); err == nil {
			t.Fatalf("member %d: accepted a carried root the path does not reach", i)
		}
		if err := VerifyDigest(pub, digests[i], wrong); err == nil {
			t.Fatalf("member %d: verified under a wrong carried root", i)
		}
		short := s
		short.BatchRoot = root[:DigestSize-1]
		if _, err := SignedDigest(digests[i], short); err == nil {
			t.Fatalf("member %d: accepted a truncated root", i)
		}
	}
}

func TestForwardSecureSignFastPathAcrossEvolve(t *testing.T) {
	f, err := NewForwardSecure("fs", 4)
	if err != nil {
		t.Fatal(err)
	}
	d := Sum([]byte("payload"))
	pub := f.PublicKey()
	s0, err := f.Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Evolve(); err != nil {
		t.Fatal(err)
	}
	s1, err := f.Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Period != 1 {
		t.Fatalf("period after evolve = %d, want 1", s1.Period)
	}
	for _, s := range []Signature{s0, s1} {
		if err := pub.Verify(d, s); err != nil {
			t.Fatal(err)
		}
	}
	// Exhaust the key: the cached material must be destroyed.
	for f.Period() < f.Periods() {
		if err := f.Evolve(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Sign(d); err == nil {
		t.Fatal("exhausted key still signs")
	}
}

func TestSignBatchComposesWithForwardSecure(t *testing.T) {
	f, err := NewForwardSecure("fs-batch", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Evolve(); err != nil {
		t.Fatal(err)
	}
	digests := batchDigests(5)
	sigs, err := SignBatch(f, digests)
	if err != nil {
		t.Fatal(err)
	}
	pub := f.PublicKey()
	for i, s := range sigs {
		if s.Period != 1 {
			t.Fatalf("member %d period = %d, want 1", i, s.Period)
		}
		if err := VerifyDigest(pub, digests[i], s); err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
}
