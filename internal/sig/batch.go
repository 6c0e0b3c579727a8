// Aggregate (batch) signing: one signature over the Merkle root of many
// digests. The paper's section 6 names cryptographic computation as a
// principal cost of non-repudiation; Merkle aggregation amortises one
// signing operation over a whole batch of evidence tokens while keeping
// every token independently verifiable and adjudicable — the verifier
// recomputes the root from a token's digest and its inclusion path, then
// checks the shared signature over the root.
package sig

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// SignBatch signs all digests with a single signing operation: it builds a
// Merkle tree over the digests, signs the root once, and returns one
// Signature per digest, each carrying the shared root signature plus the
// digest's inclusion path. The root itself is not carried: the verifier
// recomputes it from the digest and the path, so storing it would spend
// 33 bytes per copy on a value nothing trusts. A batch of one degenerates
// to a plain Sign, so callers can route all signing through SignBatch
// unconditionally.
func SignBatch(s Signer, digests []Digest) ([]Signature, error) {
	switch len(digests) {
	case 0:
		return nil, fmt.Errorf("sig: empty signing batch")
	case 1:
		one, err := s.Sign(digests[0])
		if err != nil {
			return nil, err
		}
		return []Signature{one}, nil
	}
	tree := buildMerkle(digests)
	root := tree.root()
	base, err := s.Sign(root)
	if err != nil {
		return nil, err
	}
	out := make([]Signature, len(digests))
	for i := range digests {
		sig := base
		sig.BatchIndex = uint32(i)
		path := tree.path(uint32(i))
		raw := make([][]byte, len(path))
		for j := range path {
			raw[j] = path[j][:]
		}
		sig.BatchPath = raw
		out[i] = sig
	}
	return out, nil
}

// SignedDigest returns the digest the signature's Bytes actually cover:
// the digest itself for plain signatures, or the batch Merkle root —
// recomputed from d and the inclusion path — for batch signatures.
// Signatures from before SignBatch stopped storing the root carry one; it
// is still cross-checked against the recomputed root. An error means the
// inclusion proof is malformed or does not bind d to the carried root; a
// rootless proof that does not bind d yields a root the shared signature
// does not cover, so it fails at signature verification instead.
func SignedDigest(d Digest, s Signature) (Digest, error) {
	if len(s.BatchPath) == 0 && len(s.BatchRoot) == 0 {
		return d, nil
	}
	if len(s.BatchRoot) != 0 && len(s.BatchRoot) != DigestSize {
		return Digest{}, fmt.Errorf("%w: bad batch root length %d", ErrBadSignature, len(s.BatchRoot))
	}
	if len(s.BatchPath) >= 32 || s.BatchIndex>>len(s.BatchPath) != 0 {
		return Digest{}, fmt.Errorf("%w: batch index %d outside tree of depth %d", ErrBadSignature, s.BatchIndex, len(s.BatchPath))
	}
	node := d
	i := s.BatchIndex
	for _, raw := range s.BatchPath {
		if len(raw) != DigestSize {
			return Digest{}, fmt.Errorf("%w: bad batch path element", ErrBadSignature)
		}
		var sibling Digest
		copy(sibling[:], raw)
		if i%2 == 0 {
			node = SumPair(node, sibling)
		} else {
			node = SumPair(sibling, node)
		}
		i /= 2
	}
	if len(s.BatchRoot) != 0 && !bytes.Equal(s.BatchRoot, node[:]) {
		return Digest{}, fmt.Errorf("%w: batch inclusion path does not reach signed root", ErrBadSignature)
	}
	return node, nil
}

// VerifyDigest checks a signature over a digest, transparently handling
// batch signatures: the inclusion path is verified first, then the shared
// signature over the recomputed root. It is the verification entry point
// protocol code should use in place of PublicKey.Verify.
func VerifyDigest(key PublicKey, d Digest, s Signature) error {
	signed, err := SignedDigest(d, s)
	if err != nil {
		return err
	}
	return key.Verify(signed, s)
}

// MetaSum digests the signature material that determines the outcome of
// PublicKey.Verify over a given signed digest — algorithm, signature
// bytes, and the forward-secure per-period fields. Batch fields are
// excluded: inclusion paths are re-walked on every verification, so a
// cache keyed on (key, signed digest, MetaSum) is sound. It is the cache
// key component used by verified-signature caches. Every
// variable-length field is length-framed so distinct (Bytes, PublicHint,
// Path) splits cannot collide into one digest.
func (s *Signature) MetaSum() Digest {
	h := sha256.New()
	var word [4]byte
	writeFramed := func(b []byte) {
		binary.BigEndian.PutUint32(word[:], uint32(len(b)))
		h.Write(word[:])
		h.Write(b)
	}
	h.Write([]byte{byte(s.Algorithm)})
	binary.BigEndian.PutUint32(word[:], s.Period)
	h.Write(word[:])
	writeFramed(s.Bytes)
	writeFramed(s.PublicHint)
	binary.BigEndian.PutUint32(word[:], uint32(len(s.Path)))
	h.Write(word[:])
	for _, p := range s.Path {
		writeFramed(p)
	}
	var out Digest
	copy(out[:], h.Sum(nil))
	return out
}
