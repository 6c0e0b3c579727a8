package stamp

import (
	"strings"

	"nonrep/internal/canon"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// Flag bits of a binary time-stamp token: the time's mode, whether the
// signature's bytes are sig.FixedBytesLen long and written without a
// length, then the signature's presence bits.
const (
	timeModeBits = 2
	timeModeMask = 1<<timeModeBits - 1
	flagSigBytes = 1 << timeModeBits
	sigFlagShift = timeModeBits + 1
)

// AppendBinary appends the binary encoding of the time-stamp token (the
// layout of segment format 10): one flags varint, then the fields in
// canonical JSON order with the digest as its raw 32 bytes, the time as
// nanoseconds, the key id as a suffix of the TSA's URI when it extends it
// and a 64-byte signature without its length.
func (t *Token) AppendBinary(dst []byte) ([]byte, error) {
	mode := canon.ModeOfTime(t.Time)
	flags := uint64(mode) | t.Signature.BinaryFlags()<<sigFlagShift
	fixed := t.Signature.FixedBytes()
	if fixed {
		flags |= flagSigBytes
	}
	dst = canon.AppendUvarint(dst, flags)
	dst = append(dst, t.Digest[:]...)
	dst, err := canon.AppendTime(dst, t.Time, mode, 0)
	if err != nil {
		return nil, err
	}
	dst = canon.AppendString(dst, string(t.TSA))
	dst = canon.AppendUvarint(dst, t.Serial)
	if kid := t.Signature.KeyID; t.TSA != "" && strings.HasPrefix(kid, string(t.TSA)) {
		dst = append(dst, 1)
		dst = canon.AppendString(dst, kid[len(t.TSA):])
	} else {
		dst = append(dst, 0)
		dst = canon.AppendString(dst, kid)
	}
	return t.Signature.AppendBinaryBody(append(dst, byte(t.Signature.Algorithm)), fixed), nil
}

// DecodeBinary decodes a time-stamp token AppendBinary wrote from r into
// t.
func (t *Token) DecodeBinary(r *canon.BinReader) {
	flags := r.Uvarint()
	if flags>>(sigFlagShift+sig.BinaryFlagBits) != 0 {
		r.Fail(canon.ErrBinary)
		return
	}
	t.decodeFields(r, flags)
	t.Signature.Algorithm = sig.Algorithm(r.Byte())
	t.Signature.DecodeBinaryBody(r, flags>>sigFlagShift, flags&flagSigBytes != 0)
}

// DecodeBinaryV9 decodes a time-stamp token of segment formats 2 to 9,
// whose signature's bytes always carry their length. Nothing writes this
// layout any more; segments that hold it stay readable.
func (t *Token) DecodeBinaryV9(r *canon.BinReader) {
	flags := r.Uvarint()
	if flags>>(timeModeBits+sig.BinaryFlagBits) != 0 {
		r.Fail(canon.ErrBinary)
		return
	}
	t.decodeFields(r, flags)
	t.Signature.DecodeBinary(r, flags>>timeModeBits)
}

// decodeFields decodes what both layouts write between the flags and the
// signature, the time in the mode flags give.
func (t *Token) decodeFields(r *canon.BinReader, flags uint64) {
	copy(t.Digest[:], r.Raw(sig.DigestSize))
	t.Time = r.Time(canon.TimeMode(flags&timeModeMask), 0)
	t.TSA = id.Party(r.ValidString())
	t.Serial = r.Uvarint()
	switch r.Byte() {
	case 0:
		t.Signature.KeyID = r.ValidString()
	case 1:
		t.Signature.KeyID = r.Suffixed(string(t.TSA))
	default:
		r.Fail(canon.ErrBinary)
	}
}

// DecodeBinaryV1 decodes a time-stamp token from a version-1 frame
// (text timestamp, self-contained signature). Nothing writes this
// layout any more.
func (t *Token) DecodeBinaryV1(r *canon.BinReader) {
	copy(t.Digest[:], r.Raw(sig.DigestSize))
	t.Time = r.Time(canon.TimeText, 0)
	t.TSA = id.Party(r.ValidString())
	t.Serial = r.Uvarint()
	t.Signature.DecodeBinaryV1(r)
}
