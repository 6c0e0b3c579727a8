package sig

import (
	"math"

	"nonrep/internal/canon"
)

// Presence bits for the optional signature fields, as returned by
// BinaryFlags. The enclosing codec (an evidence or time-stamp token)
// folds them into its own presence bitmap, so an ordinary signature —
// algorithm, key id, bytes — spends no byte on the six fields it does
// not have.
const (
	flagPeriod = 1 << iota
	flagPublicHint
	flagPath
	flagBatchRoot
	flagBatchPath
	flagBatchIndex
	// flagNilBytes marks Bytes == nil: json:"sig" has no omitempty, so
	// nil projects to null and empty to "", and the two must survive.
	flagNilBytes

	// BinaryFlagBits is how many bits BinaryFlags uses.
	BinaryFlagBits = 7
)

// BinaryFlags reports which optional fields AppendBinary will write.
// The omitempty-tagged fields count as absent when empty — canonical
// JSON cannot tell an empty one from a nil one.
func (s *Signature) BinaryFlags() uint64 {
	var f uint64
	if s.Period != 0 {
		f |= flagPeriod
	}
	if len(s.PublicHint) > 0 {
		f |= flagPublicHint
	}
	if len(s.Path) > 0 {
		f |= flagPath
	}
	if len(s.BatchRoot) > 0 {
		f |= flagBatchRoot
	}
	if len(s.BatchPath) > 0 {
		f |= flagBatchPath
	}
	if s.BatchIndex != 0 {
		f |= flagBatchIndex
	}
	if s.Bytes == nil {
		f |= flagNilBytes
	}
	return f
}

// FixedBytesLen is the length of a signature run an evidence token
// (since segment format 9) or a time-stamp token (since format 10) writes
// raw, without a length: an Ed25519 signature's. Only a run of exactly
// this length travels so; any other is written with its length.
const FixedBytesLen = 64

// FixedBytes reports whether the signature's bytes have the length a
// token writes raw.
func (s *Signature) FixedBytes() bool { return len(s.Bytes) == FixedBytesLen }

// AppendBinaryBody appends the binary encoding of the signature but for
// its key id and algorithm, which the enclosing token writes apart (a key
// id is rooted at a party URI the token already carries) or takes from
// the token it leans on: the signature's bytes — raw when fixed is set,
// which the caller may set only where FixedBytes holds and must carry in
// its own flags — and the optional fields in canonical JSON order, those
// BinaryFlags reports absent skipped.
func (s *Signature) AppendBinaryBody(dst []byte, fixed bool) []byte {
	switch {
	case fixed:
		dst = append(dst, s.Bytes...)
	case s.Bytes != nil:
		dst = appendRun(dst, s.Bytes)
	}
	if s.Period != 0 {
		dst = canon.AppendUvarint(dst, uint64(s.Period))
	}
	if len(s.PublicHint) > 0 {
		dst = appendRun(dst, s.PublicHint)
	}
	if len(s.Path) > 0 {
		dst = appendByteSlices(dst, s.Path)
	}
	if len(s.BatchRoot) > 0 {
		dst = appendRun(dst, s.BatchRoot)
	}
	if len(s.BatchPath) > 0 {
		dst = appendByteSlices(dst, s.BatchPath)
	}
	if s.BatchIndex != 0 {
		dst = canon.AppendUvarint(dst, uint64(s.BatchIndex))
	}
	return dst
}

// DecodeBinary decodes the layout of segment formats 2 to 9's time-stamp
// tokens and formats 2 to 8's evidence tokens — the algorithm, then what
// AppendBinaryBody writes without fixed bytes — given the flags the
// enclosing codec carried; KeyID is the caller's to fill. All byte runs
// are copied: decoded signatures outlive the buffer they came from.
func (s *Signature) DecodeBinary(r *canon.BinReader, flags uint64) {
	s.Algorithm = Algorithm(r.Byte())
	s.DecodeBinaryBody(r, flags, false)
}

// DecodeBinaryBody decodes what AppendBinaryBody wrote, given the flags
// and fixed as the enclosing codec carried them; Algorithm and KeyID are
// the caller's to fill. Fixed bytes that flags call nil are refused.
func (s *Signature) DecodeBinaryBody(r *canon.BinReader, flags uint64, fixed bool) {
	switch {
	case fixed && flags&flagNilBytes != 0:
		r.Fail(canon.ErrBinary)
		return
	case fixed:
		s.Bytes = append(make([]byte, 0, FixedBytesLen), r.Raw(FixedBytesLen)...)
	case flags&flagNilBytes == 0:
		s.Bytes = decodeRun(r)
	}
	if flags&flagPeriod != 0 {
		s.Period = decodeUint32(r)
	}
	if flags&flagPublicHint != 0 {
		s.PublicHint = decodeRun(r)
	}
	if flags&flagPath != 0 {
		s.Path = decodeByteSlices(r)
	}
	if flags&flagBatchRoot != 0 {
		s.BatchRoot = decodeRun(r)
	}
	if flags&flagBatchPath != 0 {
		s.BatchPath = decodeByteSlices(r)
	}
	if flags&flagBatchIndex != 0 {
		s.BatchIndex = decodeUint32(r)
	}
}

// DecodeBinaryV1 decodes a signature from a version-1 frame, which
// wrote every field (key id included) with a presence marker each.
// Nothing writes this layout any more; segments that hold it stay
// readable.
func (s *Signature) DecodeBinaryV1(r *canon.BinReader) {
	s.Algorithm = Algorithm(r.Byte())
	s.KeyID = r.ValidString()
	s.Bytes = r.BytesCopy()
	s.Period = decodeUint32(r)
	s.PublicHint = r.BytesCopy()
	s.Path = decodeByteSlices(r)
	s.BatchRoot = r.BytesCopy()
	s.BatchPath = decodeByteSlices(r)
	s.BatchIndex = decodeUint32(r)
}

// appendRun appends a length-prefixed byte run whose presence the flags
// already carry.
func appendRun(dst, p []byte) []byte {
	dst = canon.AppendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

// decodeRun decodes a byte run into fresh, non-nil memory.
func decodeRun(r *canon.BinReader) []byte {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil
	}
	if n > uint64(r.Len()) {
		r.Fail(canon.ErrBinary)
		return nil
	}
	return append(make([]byte, 0, n), r.Raw(int(n))...)
}

func decodeUint32(r *canon.BinReader) uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Fail(canon.ErrBinary)
		return 0
	}
	return uint32(v)
}

func appendByteSlices(dst []byte, items [][]byte) []byte {
	dst = canon.AppendUvarint(dst, uint64(len(items)))
	for _, item := range items {
		dst = canon.AppendBytes(dst, item)
	}
	return dst
}

func decodeByteSlices(r *canon.BinReader) [][]byte {
	n := r.Uvarint()
	if n == 0 || r.Err() != nil {
		return nil
	}
	// Each element needs at least its presence byte, bounding the count
	// by the remaining input so a forged count cannot force a huge
	// allocation before truncation is noticed.
	if n > uint64(r.Len()) {
		r.Fail(canon.ErrBinary)
		return nil
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = r.BytesCopy()
	}
	return out
}
