// Binary primitives for the machine-path encoding of records and
// envelopes. Canonical JSON (canon.Marshal) remains the signed form and
// the audit projection; the binary encoding is a transport and storage
// format whose decode must reproduce, byte for byte, the canonical JSON
// of the value it was encoded from. The primitives here are therefore
// deliberately dumb: varint-framed fields, raw byte runs, and
// timestamps and identifiers in compact forms that apply only when they
// round-trip exactly (a literal fallback otherwise), with no schema of
// their own — each package owns the field layout of its types.
package canon

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
	"unicode/utf8"
)

// ErrBinary is the base error for malformed binary encodings; decoders
// wrap it so callers can distinguish corrupt input from I/O failures.
var ErrBinary = errors.New("canon: malformed binary encoding")

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v in zig-zag signed varint encoding.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a nil-aware length-prefixed byte run: canonical
// JSON distinguishes a nil slice (null) from an empty one (""), so the
// binary form must too. The presence byte is 0 for nil, 1 otherwise.
func AppendBytes(b, p []byte) []byte {
	return append(AppendBytesHeader(b, p), p...)
}

// AppendBytesHeader appends what AppendBytes writes ahead of p's bytes —
// the presence byte and, for a non-nil run, its length — so a writer can
// send the run itself from where it lies instead of copying it.
func AppendBytesHeader(b, p []byte) []byte {
	if p == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	return binary.AppendUvarint(b, uint64(len(p)))
}

// AppendBool appends a bool as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// TimeMode says how a timestamp travels in a binary frame. The mode is
// chosen by the encoder (ModeOfTime) and carried in the enclosing
// frame's flag bits, so the common UTC case costs no byte of its own.
type TimeMode uint8

// Timestamp modes.
const (
	// TimeUTC is a zig-zag varint of Unix nanoseconds, rendered in UTC.
	TimeUTC TimeMode = iota
	// TimeZoned is TimeUTC followed by a zig-zag varint zone offset in
	// seconds east of UTC (a non-zero whole number of minutes).
	TimeZoned
	// TimeText is the length-prefixed RFC 3339 text the canonical JSON
	// form contains — the literal fallback for instants outside the
	// nanosecond range and zones the other modes cannot reproduce.
	TimeText
)

// Unix seconds whose nanosecond count fits an int64 with room for the
// sub-second part.
const (
	minNanoSec = math.MinInt64/int64(time.Second) + 1
	maxNanoSec = math.MaxInt64/int64(time.Second) - 1
)

// ModeOfTime picks the most compact mode that reproduces t's canonical
// JSON byte for byte: RFC 3339 renders an instant plus a zone offset in
// whole minutes, so an in-range instant with a zero or whole-minute
// offset is exactly (nanoseconds, offset); anything else travels as
// text.
func ModeOfTime(t time.Time) TimeMode {
	if sec := t.Unix(); sec < minNanoSec || sec > maxNanoSec {
		return TimeText
	}
	switch _, off := t.Zone(); {
	case off == 0:
		return TimeUTC
	case off%60 == 0 && off > -24*3600 && off < 24*3600:
		return TimeZoned
	default:
		return TimeText
	}
}

// AppendTime appends t in the given mode (as chosen by ModeOfTime). The
// nanosecond count is written relative to base — 0 for an absolute
// time, a neighbouring field's UnixNano for a delta; the subtraction
// wraps, and the decoder's addition wraps back. Only TimeText can fail
// (a year RFC 3339 cannot render).
func AppendTime(b []byte, t time.Time, mode TimeMode, base int64) ([]byte, error) {
	if mode == TimeText {
		text, err := t.MarshalText()
		if err != nil {
			return nil, fmt.Errorf("canon: binary time: %w", err)
		}
		b = binary.AppendUvarint(b, uint64(len(text)))
		return append(b, text...), nil
	}
	b = binary.AppendVarint(b, t.UnixNano()-base)
	if mode == TimeZoned {
		_, off := t.Zone()
		b = binary.AppendVarint(b, int64(off))
	}
	return b, nil
}

// Packed identifier tags: the low two bits of an identifier's leading
// uvarint; the remaining bits are the byte length that follows.
const (
	idLiteral = iota // the string itself
	idRun            // "run-" + lowercase hex of the bytes
	idTxn            // "txn-" + lowercase hex of the bytes
	idHex            // lowercase hex of the bytes
)

var idPrefix = [...]string{idRun: "run-", idTxn: "txn-", idHex: ""}

// AppendPackedID appends an identifier, packing the repo's generated
// shapes — "run-"/"txn-" + lowercase hex, and bare lowercase hex
// nonces — as a tag plus the raw bytes (half the text). Any other
// string (upper-case or odd-length hex, foreign schemes) is written
// literally, so decoding always reproduces s exactly. The encoding is a
// function of s alone: equal strings pack to equal bytes, which lets
// packed identifiers serve as sort keys.
func AppendPackedID(b []byte, s string) []byte {
	tag, digits := idHex, s
	switch {
	case strings.HasPrefix(s, "run-"):
		tag, digits = idRun, s[4:]
	case strings.HasPrefix(s, "txn-"):
		tag, digits = idTxn, s[4:]
	}
	n := len(digits) / 2
	start := len(b)
	b = binary.AppendUvarint(b, uint64(n)<<2|uint64(tag))
	ok := len(digits)%2 == 0
	for i := 0; ok && i < n; i++ {
		hi, lo := nibble[digits[2*i]], nibble[digits[2*i+1]]
		ok = hi|lo < 16
		b = append(b, hi<<4|lo)
	}
	if !ok {
		b = binary.AppendUvarint(b[:start], uint64(len(s))<<2|idLiteral)
		b = append(b, s...)
	}
	return b
}

// IsHex reports whether s is exactly n bytes' worth of lowercase hex
// digits: the shape AppendHex packs into n raw bytes with no header, the
// enclosing codec's flag saying the shape instead.
func IsHex(s string, n int) bool {
	if len(s) != 2*n {
		return false
	}
	for i := 0; i < len(s); i++ {
		if nibble[s[i]] > 15 {
			return false
		}
	}
	return true
}

// AppendHex appends the raw bytes the lowercase hex digits of s spell;
// s must satisfy IsHex.
func AppendHex(b []byte, s string) []byte {
	for i := 0; i+1 < len(s); i += 2 {
		b = append(b, nibble[s[i]]<<4|nibble[s[i+1]])
	}
	return b
}

// nibble maps a lowercase hex digit to its value and every other byte
// to 0xFF.
var nibble = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xFF
	}
	for i := 0; i < 16; i++ {
		t["0123456789abcdef"[i]] = byte(i)
	}
	return t
}()

// BinReader decodes the primitives appended above with a sticky error:
// callers chain field reads and check Err (or Done) once. Byte runs are
// returned as sub-slices of the input by Bytes — zero-copy for callers
// that own the buffer — or copied out by BytesCopy for decoded values
// that outlive it (records decoded from an mmapped segment must not
// alias pages that are later unmapped).
type BinReader struct {
	buf []byte
	off int
	err error
}

// NewBinReader returns a reader over data.
func NewBinReader(data []byte) BinReader { return BinReader{buf: data} }

// Err returns the first decode error.
func (r *BinReader) Err() error { return r.err }

// Len reports the bytes not yet consumed.
func (r *BinReader) Len() int { return len(r.buf) - r.off }

// Fail records an error (first one wins) and returns it.
func (r *BinReader) Fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}

func (r *BinReader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBinary, fmt.Sprintf(format, args...))
	}
}

// Done returns the sticky error, or an error if input remains: every
// frame must be consumed exactly.
func (r *BinReader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		r.failf("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// Uvarint decodes an unsigned varint.
func (r *BinReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.failf("truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint decodes a zig-zag signed varint.
func (r *BinReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.failf("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Int decodes a zig-zag varint that must fit an int.
func (r *BinReader) Int() int {
	v := r.Varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.failf("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Byte decodes one raw byte.
func (r *BinReader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Len() < 1 {
		r.failf("truncated byte at offset %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool decodes a one-byte bool; any value other than 0 or 1 is an error,
// keeping the encoding canonical.
func (r *BinReader) Bool() bool {
	b := r.Byte()
	if r.err == nil && b > 1 {
		r.failf("bool byte %d", b)
	}
	return b == 1
}

// Raw returns the next n bytes as a sub-slice of the input.
func (r *BinReader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Len() < n {
		r.failf("truncated run of %d bytes at offset %d", n, r.off)
		return nil
	}
	out := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// String decodes a length-prefixed string (the conversion copies).
func (r *BinReader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Len()) {
		r.failf("string of %d bytes exceeds %d remaining", n, r.Len())
		return ""
	}
	return string(r.Raw(int(n)))
}

// ValidString decodes a length-prefixed string and rejects invalid
// UTF-8: canonical JSON cannot represent such a string, so a binary
// value holding one has no canonical projection and must not decode.
func (r *BinReader) ValidString() string {
	s := r.String()
	if r.err == nil && !utf8.ValidString(s) {
		r.failf("string is not valid UTF-8")
		return ""
	}
	return s
}

// Suffixed decodes a length-prefixed suffix and returns root+suffix in
// one allocation — the read side of prefix sharing, where a frame
// writes a string that extends another of its own fields as a
// reference to that field plus the remainder.
func (r *BinReader) Suffixed(root string) string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Len()) {
		r.failf("string of %d bytes exceeds %d remaining", n, r.Len())
		return ""
	}
	raw := r.Raw(int(n))
	if !utf8.Valid(raw) {
		r.failf("string is not valid UTF-8")
		return ""
	}
	if len(raw) == 0 {
		return root
	}
	var sb strings.Builder
	sb.Grow(len(root) + len(raw))
	sb.WriteString(root)
	sb.Write(raw)
	return sb.String()
}

// Bytes decodes a nil-aware byte run as a sub-slice of the input.
func (r *BinReader) Bytes() []byte {
	switch r.Byte() {
	case 0:
		return nil
	case 1:
		n := r.Uvarint()
		if r.err != nil {
			return nil
		}
		if n > uint64(r.Len()) {
			r.failf("byte run of %d exceeds %d remaining", n, r.Len())
			return nil
		}
		return r.Raw(int(n))
	default:
		r.failf("byte-run presence marker")
		return nil
	}
}

// BytesCopy decodes a nil-aware byte run into fresh memory.
func (r *BinReader) BytesCopy() []byte {
	b := r.Bytes()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Time decodes a timestamp written by AppendTime in the given mode,
// relative to the same base.
func (r *BinReader) Time(mode TimeMode, base int64) time.Time {
	switch mode {
	case TimeUTC:
		return time.Unix(0, base+r.Varint()).UTC()
	case TimeZoned:
		nanos, off := base+r.Varint(), r.Varint()
		// Only offsets ModeOfTime would choose: anything else would
		// re-encode differently, and the frame would not be canonical.
		if r.err == nil && (off == 0 || off%60 != 0 || off <= -24*3600 || off >= 24*3600) {
			r.failf("zone offset %d", off)
		}
		if r.err != nil {
			return time.Time{}
		}
		return time.Unix(0, nanos).In(time.FixedZone("", int(off)))
	case TimeText:
		n := r.Uvarint()
		if r.err == nil && n > uint64(r.Len()) {
			r.failf("timestamp of %d bytes exceeds %d remaining", n, r.Len())
		}
		text := r.Raw(int(n))
		if r.err != nil {
			return time.Time{}
		}
		var t time.Time
		if err := t.UnmarshalText(text); err != nil {
			r.failf("timestamp %q: %v", text, err)
			return time.Time{}
		}
		return t
	default:
		r.failf("timestamp mode %d", mode)
		return time.Time{}
	}
}

// PackedID decodes an identifier written by AppendPackedID.
func (r *BinReader) PackedID() string {
	v := r.Uvarint()
	if r.err != nil {
		return ""
	}
	n, tag := v>>2, int(v&3)
	if n > uint64(r.Len()) {
		r.failf("identifier of %d bytes exceeds %d remaining", n, r.Len())
		return ""
	}
	raw := r.Raw(int(n))
	if tag == idLiteral {
		if !utf8.Valid(raw) {
			r.failf("identifier is not valid UTF-8")
			return ""
		}
		return string(raw)
	}
	prefix := idPrefix[tag]
	var small [64]byte // run, txn and nonce shapes fit: one allocation, the string
	out := small[:0]
	if need := len(prefix) + hex.EncodedLen(len(raw)); need > len(small) {
		out = make([]byte, 0, need)
	}
	out = append(out, prefix...)
	return string(hex.AppendEncode(out, raw))
}

// Hex decodes what AppendHex wrote for n bytes: their lowercase hex.
func (r *BinReader) Hex(n int) string {
	raw := r.Raw(n)
	if r.err != nil {
		return ""
	}
	var small [64]byte // nonce shapes fit: one allocation, the string
	out := small[:0]
	if need := hex.EncodedLen(n); need > len(small) {
		out = make([]byte, 0, need)
	}
	return string(hex.AppendEncode(out, raw))
}
