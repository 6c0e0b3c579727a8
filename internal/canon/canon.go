// Package canon provides the canonical byte encoding used whenever a value
// is signed or digested. Non-repudiation evidence is only meaningful if all
// parties derive identical bytes from identical values (paper section 3.4:
// parameters and results "must be resolved to an agreed representation").
//
// The encoding is JSON with two rules that make it deterministic:
//
//   - only struct types with fixed field order, slices, strings, integers
//     and booleans appear in signed material (encoding/json emits struct
//     fields in declaration order and sorts map keys, so map use is safe
//     but discouraged in signed payloads);
//   - floating-point values must not appear in signed material.
//
// Marshal (encoding/json with HTML escaping off, trailing newline
// dropped) is the definition of the canonical bytes. The shapes the
// evidence hot path digests — a log record with its token, a token's and
// a time-stamp's to-be-signed projection, a signature — are also written
// by direct appenders in their own packages, built from the primitives in
// json.go, so hashing them costs no reflection. Marshal stays their
// oracle: an appender must emit Marshal's bytes for every value, and
// tests and a fuzzer hold it to that. Where Marshal fails — a time with a
// year outside 0–9999 or a zone offset of 24 hours or more, which RFC
// 3339 cannot write — the appender fails too, so such a value is no more
// signable or loggable than it was. Every other type (snapshots, claims,
// wire bodies) goes through Marshal alone.
package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
)

// encoder couples a reusable buffer with its JSON encoder so the signing
// hot path (one Marshal per token TBS, snapshot and wire message) does not
// allocate a fresh buffer-growth chain and encoder per call.
type encoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encoderPool = sync.Pool{New: func() any {
	e := &encoder{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetEscapeHTML(false)
	return e
}}

// Marshal returns the canonical encoding of v.
func Marshal(v any) ([]byte, error) {
	e := encoderPool.Get().(*encoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		encoderPool.Put(e)
		return nil, fmt.Errorf("canon: marshal %T: %w", v, err)
	}
	// Encoder appends a newline; the canonical form excludes it. The
	// result is copied out at exact size so the pooled buffer can be
	// reused immediately.
	b := bytes.TrimSuffix(e.buf.Bytes(), []byte{'\n'})
	out := make([]byte, len(b))
	copy(out, b)
	encoderPool.Put(e)
	return out, nil
}

// Sum256 returns the SHA-256 digest of the canonical encoding of v,
// computed over a pooled buffer rather than a copy of the encoding. The
// encoding itself still goes through encoding/json's reflection, which
// allocates; the shapes the hot path digests (token and time-stamp TBS,
// chained log records) have direct appenders (json.go) and do not reach
// Sum256.
func Sum256(v any) ([sha256.Size]byte, error) {
	e := encoderPool.Get().(*encoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		encoderPool.Put(e)
		return [sha256.Size]byte{}, fmt.Errorf("canon: marshal %T: %w", v, err)
	}
	d := sha256.Sum256(bytes.TrimSuffix(e.buf.Bytes(), []byte{'\n'}))
	encoderPool.Put(e)
	return d, nil
}

// MustMarshal is Marshal for values that are known to be encodable
// (typically middleware-defined struct types). It panics on failure, which
// indicates a programming error, not an input error.
func MustMarshal(v any) []byte {
	data, err := Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// Unmarshal decodes canonical bytes into v.
func Unmarshal(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("canon: unmarshal into %T: %w", v, err)
	}
	return nil
}
