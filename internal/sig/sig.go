// Package sig implements the cryptographic primitives the paper's trusted
// interceptors require (section 3.5): a signature scheme whose signatures
// are "both verifiable and unforgeable", a secure (one-way and
// collision-resistant) hash function, and a secure pseudo-random generator
// for unique identifiers and random authenticators.
//
// Four signature schemes are provided: Ed25519, ECDSA over P-256, RSA-2048
// PSS, and a forward-secure key-evolving scheme (after Zhou, Bao and Deng,
// paper reference [25]) in which compromise of the current key does not
// allow forgery of signatures attributed to earlier periods.
package sig

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"

	"nonrep/internal/canon"
)

// Algorithm identifies a signature scheme.
type Algorithm uint8

// Supported signature algorithms.
const (
	AlgEd25519 Algorithm = iota + 1
	AlgECDSAP256
	AlgRSAPSS2048
	AlgForwardSecure
)

// String returns the conventional name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgEd25519:
		return "ed25519"
	case AlgECDSAP256:
		return "ecdsa-p256"
	case AlgRSAPSS2048:
		return "rsa-pss-2048"
	case AlgForwardSecure:
		return "forward-secure"
	default:
		return fmt.Sprintf("algorithm(%d)", uint8(a))
	}
}

// ParseAlgorithm resolves an algorithm name as produced by
// Algorithm.String.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "ed25519":
		return AlgEd25519, nil
	case "ecdsa-p256":
		return AlgECDSAP256, nil
	case "rsa-pss-2048":
		return AlgRSAPSS2048, nil
	case "forward-secure":
		return AlgForwardSecure, nil
	default:
		return 0, fmt.Errorf("sig: unknown algorithm %q", name)
	}
}

// DigestSize is the size in bytes of a Digest.
const DigestSize = sha256.Size

// Digest is a SHA-256 digest. Evidence signs digests of canonical
// encodings, never raw application payloads.
type Digest [DigestSize]byte

// Sum digests raw bytes.
func Sum(data []byte) Digest { return sha256.Sum256(data) }

// SumCanonical digests the canonical encoding of v (canon.Sum256).
func SumCanonical(v any) (Digest, error) {
	return canon.Sum256(v)
}

// MustSumCanonical is SumCanonical for values known to be encodable.
func MustSumCanonical(v any) Digest {
	d, err := canon.Sum256(v)
	if err != nil {
		panic(err)
	}
	return d
}

// SumPair digests the concatenation of two digests. It is the node
// combiner for hash chains and Merkle trees.
func SumPair(a, b Digest) Digest {
	var buf [2 * DigestSize]byte
	copy(buf[:DigestSize], a[:])
	copy(buf[DigestSize:], b[:])
	return sha256.Sum256(buf[:])
}

// IsZero reports whether d is the zero digest.
func (d Digest) IsZero() bool { return d == Digest{} }

// String returns the digest hex-encoded.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// MarshalText encodes the digest as hex for JSON and text encodings.
func (d Digest) MarshalText() ([]byte, error) {
	out := make([]byte, hex.EncodedLen(len(d)))
	hex.Encode(out, d[:])
	return out, nil
}

// UnmarshalText decodes a hex-encoded digest.
func (d *Digest) UnmarshalText(text []byte) error {
	raw, err := hex.DecodeString(string(text))
	if err != nil {
		return fmt.Errorf("sig: bad digest encoding: %w", err)
	}
	if len(raw) != DigestSize {
		return fmt.Errorf("sig: bad digest length %d", len(raw))
	}
	copy(d[:], raw)
	return nil
}

// Errors reported by signature verification.
var (
	// ErrBadSignature is returned when a signature does not verify.
	ErrBadSignature = errors.New("sig: signature verification failed")
	// ErrAlgorithmMismatch is returned when a signature's algorithm does
	// not match the verifying key.
	ErrAlgorithmMismatch = errors.New("sig: algorithm mismatch")
	// ErrKeyExpired is returned by a forward-secure signer whose signing
	// periods are exhausted.
	ErrKeyExpired = errors.New("sig: signing key expired")
)

// Signature is a detached signature over a Digest. The Period, PublicHint
// and Path fields are only populated by the forward-secure scheme: they
// carry the per-period verification key and its Merkle authentication path
// back to the committed root.
//
// The Batch* fields are only populated by aggregate (batch) signing
// (SignBatch): Bytes then covers the Merkle root over a batch of signed
// digests rather than the digest itself, and BatchPath/BatchIndex
// authenticate the individual digest's leaf position under that root.
// Every batch-signed digest therefore remains independently verifiable —
// VerifyDigest recomputes the root from the digest and its inclusion path
// before checking the one shared signature.
type Signature struct {
	Algorithm Algorithm `json:"alg"`
	KeyID     string    `json:"kid"`
	Bytes     []byte    `json:"sig"`

	Period     uint32   `json:"period,omitempty"`
	PublicHint []byte   `json:"pub,omitempty"`
	Path       [][]byte `json:"path,omitempty"`

	BatchRoot  []byte   `json:"batch_root,omitempty"`
	BatchPath  [][]byte `json:"batch_path,omitempty"`
	BatchIndex uint32   `json:"batch_index,omitempty"`
}

// AppendCanonical appends the signature's canonical JSON — the bytes
// canon.Marshal writes for it — to b, field by field.
func (s *Signature) AppendCanonical(b []byte) []byte {
	b = append(b, `{"alg":`...)
	b = strconv.AppendUint(b, uint64(s.Algorithm), 10)
	b = append(b, `,"kid":`...)
	b = canon.AppendJSONString(b, s.KeyID)
	b = append(b, `,"sig":`...)
	b = canon.AppendJSONBytes(b, s.Bytes)
	if s.Period != 0 {
		b = append(b, `,"period":`...)
		b = strconv.AppendUint(b, uint64(s.Period), 10)
	}
	if len(s.PublicHint) > 0 {
		b = append(b, `,"pub":`...)
		b = canon.AppendJSONBytes(b, s.PublicHint)
	}
	if len(s.Path) > 0 {
		b = append(b, `,"path":`...)
		b = appendJSONByteList(b, s.Path)
	}
	if len(s.BatchRoot) > 0 {
		b = append(b, `,"batch_root":`...)
		b = canon.AppendJSONBytes(b, s.BatchRoot)
	}
	if len(s.BatchPath) > 0 {
		b = append(b, `,"batch_path":`...)
		b = appendJSONByteList(b, s.BatchPath)
	}
	if s.BatchIndex != 0 {
		b = append(b, `,"batch_index":`...)
		b = strconv.AppendUint(b, uint64(s.BatchIndex), 10)
	}
	return append(b, '}')
}

// appendJSONByteList appends a non-empty [][]byte as a JSON array.
func appendJSONByteList(b []byte, list [][]byte) []byte {
	for i, p := range list {
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = canon.AppendJSONBytes(b, p)
	}
	return append(b, ']')
}

// Signer produces signatures bound to a long-lived key identifier.
type Signer interface {
	// KeyID names the key; certificates bind key identifiers to parties.
	KeyID() string
	// Algorithm reports the signature scheme.
	Algorithm() Algorithm
	// Sign signs a digest.
	Sign(d Digest) (Signature, error)
	// PublicKey returns the verification key.
	PublicKey() PublicKey
}

// PublicKey verifies signatures produced by the corresponding Signer.
type PublicKey interface {
	// Algorithm reports the signature scheme.
	Algorithm() Algorithm
	// Verify checks a signature over a digest, returning nil only when
	// the signature is valid.
	Verify(d Digest, s Signature) error
	// Marshal returns a self-contained encoding accepted by
	// ParsePublicKey.
	Marshal() []byte
}

// Generate creates a fresh signer for the given algorithm. The
// forward-secure scheme is created with DefaultPeriods signing periods; use
// NewForwardSecure directly to choose another lifetime.
func Generate(alg Algorithm, keyID string) (Signer, error) {
	switch alg {
	case AlgEd25519:
		return GenerateEd25519(keyID)
	case AlgECDSAP256:
		return GenerateECDSA(keyID)
	case AlgRSAPSS2048:
		return GenerateRSA(keyID)
	case AlgForwardSecure:
		return NewForwardSecure(keyID, DefaultPeriods)
	default:
		return nil, fmt.Errorf("sig: cannot generate key for %v", alg)
	}
}

// ParsePublicKey decodes a public key previously produced by
// PublicKey.Marshal for the given algorithm.
func ParsePublicKey(alg Algorithm, data []byte) (PublicKey, error) {
	switch alg {
	case AlgEd25519:
		return parseEd25519Public(data)
	case AlgECDSAP256:
		return parseECDSAPublic(data)
	case AlgRSAPSS2048:
		return parseRSAPublic(data)
	case AlgForwardSecure:
		return parseForwardSecurePublic(data)
	default:
		return nil, fmt.Errorf("sig: cannot parse public key for %v", alg)
	}
}
