package evidence

import (
	"strings"

	"nonrep/internal/canon"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/stamp"
)

// Presence and mode bits of a binary token, packed into one leading
// varint together with the signature's own presence bits. The two
// fields almost every token has come first, so the common bitmap is a
// single byte.
const (
	flagRecipients = 1 << iota
	flagService
	flagTxn
	flagTimestamp

	issuedModeShift = 4 // two bits: the canon.TimeMode of IssuedAt
	sigFlagShift    = 6 // sig.BinaryFlagBits bits: the signature's presence bits
)

// kindCodes is the one-byte vocabulary of token kinds; index 0 is
// reserved for "literal string follows". Codes are part of the segment
// format: append, never renumber.
var kindCodes = [...]Kind{
	1: KindNRO, 2: KindNRR, 3: KindNROResp, 4: KindNRRResp,
	5: KindProposal, 6: KindDecision, 7: KindOutcome, 8: KindAck,
	9: KindSubstitute, 10: KindAbort, 11: KindPostmark,
	12: KindJobEnqueued, 13: KindJobAttempt, 14: KindJobDone,
	15: KindSubOpen, 16: KindSegShip, 17: KindGeoAppend,
}

func kindCode(k Kind) byte {
	for code := 1; code < len(kindCodes); code++ {
		if kindCodes[code] == k {
			return byte(code)
		}
	}
	return 0
}

// AppendBinary appends the binary encoding of the token. The signed
// form remains the canonical JSON of tokenTBS — binary is a carrier,
// and every compaction below is exact or not applied, so DecodeBinary
// reproduces a token whose canonical JSON (and hence TBSDigest and
// signature validity) is unchanged: the kind as a one-byte code, run,
// transaction and nonce packed to raw bytes when they are the generated
// hex shapes, IssuedAt as a nanosecond delta from base (the enclosing
// record's time; 0 when that is not in nanosecond form), service and
// key id as suffixes of the issuer or recipient URI they extend, and
// absent optional fields as cleared bits rather than empty markers.
func (t *Token) AppendBinary(dst []byte, base int64) ([]byte, error) {
	issuedMode := canon.ModeOfTime(t.IssuedAt)
	flags := uint64(issuedMode)<<issuedModeShift | t.Signature.BinaryFlags()<<sigFlagShift
	if len(t.Recipients) > 0 {
		flags |= flagRecipients
	}
	if t.Service != "" {
		flags |= flagService
	}
	if t.Txn != "" {
		flags |= flagTxn
	}
	if t.Timestamp != nil {
		flags |= flagTimestamp
	}
	dst = canon.AppendUvarint(dst, flags)

	code := kindCode(t.Kind)
	dst = append(dst, code)
	if code == 0 {
		dst = canon.AppendString(dst, string(t.Kind))
	}
	dst = canon.AppendPackedID(dst, string(t.Run))
	if t.Txn != "" {
		dst = canon.AppendPackedID(dst, string(t.Txn))
	}
	dst = canon.AppendVarint(dst, int64(t.Step))
	dst = canon.AppendString(dst, string(t.Issuer))
	if len(t.Recipients) > 0 {
		dst = canon.AppendUvarint(dst, uint64(len(t.Recipients)))
		for _, p := range t.Recipients {
			dst = canon.AppendString(dst, string(p))
		}
	}
	if t.Service != "" {
		dst = t.appendRooted(dst, string(t.Service))
	}
	dst = append(dst, t.Digest[:]...)
	dst, err := canon.AppendTime(dst, t.IssuedAt, issuedMode, base)
	if err != nil {
		return nil, err
	}
	dst = canon.AppendPackedID(dst, t.Nonce)
	dst = t.appendRooted(dst, t.Signature.KeyID)
	dst = t.Signature.AppendBinary(dst)
	if t.Timestamp != nil {
		return t.Timestamp.AppendBinary(dst)
	}
	return dst, nil
}

// maxRootRef is the highest party reference a rooted string can carry:
// one byte, 0 for "not rooted", 1 for the issuer, 2.. for recipients.
const maxRootRef = 255

// appendRooted writes s as (reference, suffix) when it extends one of
// the token's own party URIs — a service URI is rooted at its party's
// URI, key ids are party#key — and as (0, s) otherwise.
func (t *Token) appendRooted(dst []byte, s string) []byte {
	if t.Issuer != "" && strings.HasPrefix(s, string(t.Issuer)) {
		dst = append(dst, 1)
		return canon.AppendString(dst, s[len(t.Issuer):])
	}
	for i, p := range t.Recipients {
		if i+2 > maxRootRef {
			break
		}
		if p != "" && strings.HasPrefix(s, string(p)) {
			dst = append(dst, byte(i+2))
			return canon.AppendString(dst, s[len(p):])
		}
	}
	dst = append(dst, 0)
	return canon.AppendString(dst, s)
}

// decodeRooted reads what appendRooted wrote.
func (t *Token) decodeRooted(r *canon.BinReader) string {
	switch ref := int(r.Byte()); {
	case ref == 0:
		return r.ValidString()
	case ref == 1:
		return r.Suffixed(string(t.Issuer))
	case ref-2 < len(t.Recipients):
		return r.Suffixed(string(t.Recipients[ref-2]))
	default:
		r.Fail(canon.ErrBinary)
		return ""
	}
}

// DecodeBinary decodes a token from r into t, with the base AppendBinary
// was given. All variable-length data is copied out of the reader's
// buffer: decoded tokens escape into query results and protocol state
// that outlive the source buffer (which may be an mmapped segment).
func (t *Token) DecodeBinary(r *canon.BinReader, base int64) {
	flags := r.Uvarint()
	if flags>>(sigFlagShift+sig.BinaryFlagBits) != 0 {
		r.Fail(canon.ErrBinary)
		return
	}
	if code := int(r.Byte()); code == 0 {
		t.Kind = Kind(r.ValidString())
	} else if code < len(kindCodes) {
		t.Kind = kindCodes[code]
	} else {
		r.Fail(canon.ErrBinary)
		return
	}
	t.Run = id.Run(r.PackedID())
	if flags&flagTxn != 0 {
		t.Txn = id.Txn(r.PackedID())
	}
	t.Step = r.Int()
	t.Issuer = id.Party(r.ValidString())
	if flags&flagRecipients != 0 {
		t.Recipients = decodeParties(r)
	}
	if flags&flagService != 0 {
		t.Service = id.Service(t.decodeRooted(r))
	}
	copy(t.Digest[:], r.Raw(sig.DigestSize))
	t.IssuedAt = r.Time(canon.TimeMode(flags>>issuedModeShift&3), base)
	t.Nonce = r.PackedID()
	t.Signature.KeyID = t.decodeRooted(r)
	t.Signature.DecodeBinary(r, flags>>sigFlagShift)
	if flags&flagTimestamp != 0 {
		t.Timestamp = new(stamp.Token)
		t.Timestamp.DecodeBinary(r)
	}
}

func decodeParties(r *canon.BinReader) []id.Party {
	n := r.Uvarint()
	if n == 0 || r.Err() != nil {
		return nil
	}
	// Each party needs at least its length byte, bounding the count by
	// the remaining input.
	if n > uint64(r.Len()) {
		r.Fail(canon.ErrBinary)
		return nil
	}
	out := make([]id.Party, n)
	for i := range out {
		out[i] = id.Party(r.ValidString())
	}
	return out
}

// DecodeBinaryV1 decodes a token from a version-1 frame: every field
// written in full, in canonical JSON order, with text timestamps.
// Nothing writes this layout any more; segments that hold it stay
// readable.
func (t *Token) DecodeBinaryV1(r *canon.BinReader) {
	t.Kind = Kind(r.ValidString())
	t.Run = id.Run(r.ValidString())
	t.Txn = id.Txn(r.ValidString())
	t.Step = r.Int()
	t.Issuer = id.Party(r.ValidString())
	t.Recipients = decodeParties(r)
	t.Service = id.Service(r.ValidString())
	copy(t.Digest[:], r.Raw(sig.DigestSize))
	t.IssuedAt = r.Time(canon.TimeText, 0)
	t.Nonce = r.ValidString()
	t.Signature.DecodeBinaryV1(r)
	switch r.Byte() {
	case 0:
	case 1:
		ts := new(stamp.Token)
		ts.DecodeBinaryV1(r)
		t.Timestamp = ts
	default:
		r.Fail(canon.ErrBinary)
	}
}
