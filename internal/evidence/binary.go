package evidence

import (
	"bytes"
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

// Borrow bits: the fields a token takes from the token of a frame
// written shortly before it in the same file instead of spelling them
// out again — from its leader, the self-contained frame of its run that
// a follower frame leans on, or from a party source, the self-contained
// frame of another run a run's own self-contained frame leans on. A
// follower's run is always its leader's: that is what makes a frame a
// follower. Each bit is set only where the lender holds exactly the
// field's value, so decoding reproduces it byte for byte. The bits are
// part of the segment format.
const (
	// BorrowTxn: the transaction is the lender's.
	BorrowTxn = 1 << iota
	// BorrowIssuer: the issuer is a one-byte reference into the lender's
	// party list — 1 its issuer, 2.. its recipients.
	BorrowIssuer
	// BorrowRecipients: every recipient is such a reference.
	BorrowRecipients
	// BorrowService: the service is the lender's.
	BorrowService
	// BorrowDigest: the digest is the lender's.
	BorrowDigest
	// BorrowKeyID: the signature's key id is the lender's. Only a party
	// source lends it: a follower's signature is its own or its mate's,
	// whole.
	BorrowKeyID

	// PartyBits is how many low bits of a party mask are the token's, and
	// BorrowBits how many of a follower's borrow mask; the enclosing frame
	// owns the rest.
	PartyBits  = iota
	BorrowBits = PartyBits - 1
)

// Lenders are what a token's binary form leans on instead of writing it
// out; the zero value writes the self-contained form.
type Lenders struct {
	// Leader is the token of the frame a follower points back at, of the
	// token's run: the run is taken from it, and the fields Borrow names.
	Leader *Token
	// Source is the token of the frame a self-contained frame takes its
	// parties from: the run is written, and the fields Borrow names —
	// BorrowKeyID among them — are taken.
	Source *Token
	// Borrow is what t.BorrowFrom allowed of Leader or Source: at most
	// BorrowBits bits with a leader, PartyBits with a source.
	Borrow uint8
	// Mate is the token whose signature t.MatesWith accepted: the
	// signature is not written at all, key id included.
	Mate *Token
}

// lender is the token Borrow refers to, nil when there is none.
func (l *Lenders) lender() *Token {
	if l.Leader != nil {
		return l.Leader
	}
	return l.Source
}

// partyRef is p's reference in t's party list, 0 when it is not there
// (or too far down it for one byte).
func (t *Token) partyRef(p id.Party) byte {
	if p == t.Issuer {
		return 1
	}
	for i, q := range t.Recipients {
		if i+2 > maxRootRef {
			break
		}
		if p == q {
			return byte(i + 2)
		}
	}
	return 0
}

// partyAt reads a reference partyRef wrote.
func (t *Token) partyAt(r *canon.BinReader) id.Party {
	switch ref := int(r.Byte()); {
	case ref == 1:
		return t.Issuer
	case ref >= 2 && ref-2 < len(t.Recipients):
		return t.Recipients[ref-2]
	default:
		r.Fail(canon.ErrBinary)
		return ""
	}
}

// BorrowFrom reports which fields t may take from lender, BorrowKeyID
// included; a follower, whose lender is its leader, leaves that bit out.
func (t *Token) BorrowFrom(lender *Token) (borrow uint8) {
	if t.Txn != "" && t.Txn == lender.Txn {
		borrow |= BorrowTxn
	}
	if lender.partyRef(t.Issuer) != 0 {
		borrow |= BorrowIssuer
	}
	if len(t.Recipients) > 0 {
		borrow |= BorrowRecipients
		for _, p := range t.Recipients {
			if lender.partyRef(p) == 0 {
				borrow &^= BorrowRecipients
				break
			}
		}
	}
	if t.Service != "" && t.Service == lender.Service {
		borrow |= BorrowService
	}
	if t.Digest == lender.Digest {
		borrow |= BorrowDigest
	}
	if t.Signature.KeyID == lender.Signature.KeyID {
		borrow |= BorrowKeyID
	}
	return borrow
}

// MatesWith reports whether t's signature is the one mate's implies — t
// and mate are two leaves of one Merkle batch signature, siblings under
// the batch's tree, and t carries nothing mate does not determine: the
// same algorithm, key id and signature bytes, the sibling index
// (mate.BatchIndex ^ 1), and an inclusion path that starts with mate's
// TBS digest and continues as mate's. Such a token may be written
// borrowing its whole signature from mate (AppendBinary with mate), and
// DecodeBinary rebuilds it exactly; any other signature — a plain one, a
// shared one at another index, one with a root or forward-secure fields
// — is not mate's to lend.
func (t *Token) MatesWith(mate *Token) bool {
	rebuilt, ok := mateSignature(mate)
	return ok && sameSignature(&t.Signature, &rebuilt)
}

// mateSignature rebuilds the signature a token borrowing from mate
// carries; false when mate has no batch path to lend.
func mateSignature(mate *Token) (sig.Signature, bool) {
	m := &mate.Signature
	if len(m.BatchPath) == 0 {
		return sig.Signature{}, false
	}
	tbs, err := mate.TBSDigest()
	if err != nil {
		return sig.Signature{}, false
	}
	path := make([][]byte, len(m.BatchPath))
	path[0] = tbs[:]
	for j := 1; j < len(path); j++ {
		path[j] = bytes.Clone(m.BatchPath[j])
	}
	return sig.Signature{Algorithm: m.Algorithm, KeyID: m.KeyID, Bytes: bytes.Clone(m.Bytes),
		BatchPath: path, BatchIndex: m.BatchIndex ^ 1}, true
}

// sameSignature reports whether a and b project to the same canonical
// JSON: a nil byte run is null and an empty one "", except in the fields
// that omit both.
func sameSignature(a, b *sig.Signature) bool {
	return a.Algorithm == b.Algorithm && a.KeyID == b.KeyID && sameBytes(a.Bytes, b.Bytes) && a.Period == b.Period &&
		bytes.Equal(a.PublicHint, b.PublicHint) && sameRuns(a.Path, b.Path) && bytes.Equal(a.BatchRoot, b.BatchRoot) &&
		sameRuns(a.BatchPath, b.BatchPath) && a.BatchIndex == b.BatchIndex
}

func sameBytes(a, b []byte) bool { return (a == nil) == (b == nil) && bytes.Equal(a, b) }

func sameRuns(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBytes(a[i], b[i]) {
			return false
		}
	}
	return true
}

// AppendBinary appends the binary encoding of the token. The signed
// form remains the canonical JSON of its TBS fields — binary is a carrier,
// and every compaction below is exact or not applied, so DecodeBinary
// reproduces a token whose canonical JSON (and hence TBSDigest and
// signature validity) is unchanged: the kind as a one-byte code, run,
// transaction and nonce packed to raw bytes when they are the generated
// hex shapes, IssuedAt as a nanosecond delta from base (the enclosing
// record's time; 0 when that is not in nanosecond form), service and
// key id as suffixes of the issuer or recipient URI they extend, and
// absent optional fields as cleared bits rather than empty markers.
//
// With a leader — which must be of t's run — the run is not written, and
// with a leader or a source neither is any field lend.Borrow names; with
// a mate the signature is not written at all, key id included, and its
// presence bits are clear.
func (t *Token) AppendBinary(dst []byte, base int64, lend Lenders) ([]byte, error) {
	issuedMode := canon.ModeOfTime(t.IssuedAt)
	flags := uint64(issuedMode) << issuedModeShift
	if lend.Mate == nil {
		flags |= t.Signature.BinaryFlags() << sigFlagShift
	}
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
	lender, borrow := lend.lender(), lend.Borrow
	if lender == nil {
		borrow = 0
	}
	if lend.Leader == nil {
		dst = canon.AppendPackedID(dst, string(t.Run))
	}
	if t.Txn != "" && borrow&BorrowTxn == 0 {
		dst = canon.AppendPackedID(dst, string(t.Txn))
	}
	dst = canon.AppendVarint(dst, int64(t.Step))
	if borrow&BorrowIssuer != 0 {
		dst = append(dst, lender.partyRef(t.Issuer))
	} else {
		dst = canon.AppendString(dst, string(t.Issuer))
	}
	if len(t.Recipients) > 0 {
		dst = canon.AppendUvarint(dst, uint64(len(t.Recipients)))
		for _, p := range t.Recipients {
			if borrow&BorrowRecipients != 0 {
				dst = append(dst, lender.partyRef(p))
			} else {
				dst = canon.AppendString(dst, string(p))
			}
		}
	}
	if t.Service != "" && borrow&BorrowService == 0 {
		dst = t.appendRooted(dst, string(t.Service))
	}
	if borrow&BorrowDigest == 0 {
		dst = append(dst, t.Digest[:]...)
	}
	dst, err := canon.AppendTime(dst, t.IssuedAt, issuedMode, base)
	if err != nil {
		return nil, err
	}
	dst = canon.AppendPackedID(dst, t.Nonce)
	if lend.Mate == nil {
		if borrow&BorrowKeyID == 0 {
			dst = t.appendRooted(dst, t.Signature.KeyID)
		}
		dst = t.Signature.AppendBinary(dst)
	}
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

// DecodeBinary decodes a token from r into t, with the base and lenders
// AppendBinary was given. A borrow bit for a field the token does not
// have, or the lender has nothing to lend, or one a follower may not
// borrow, is refused, and so is a mate without a batch path or a token that
// borrows its signature yet says it has one of its own. All variable-length data is copied out of the reader's
// buffer: decoded tokens escape into query results and protocol state
// that outlive the source buffer (which may be an mmapped segment); what
// is borrowed is shared with the lender's token, strings both.
func (t *Token) DecodeBinary(r *canon.BinReader, base int64, lend Lenders) {
	flags := r.Uvarint()
	lender, borrow, mate := lend.lender(), lend.Borrow, lend.Mate
	bits := BorrowBits
	if lend.Leader == nil {
		bits = PartyBits
	}
	if flags>>(sigFlagShift+sig.BinaryFlagBits) != 0 || borrow>>bits != 0 || (lender == nil && borrow != 0) ||
		(lend.Leader != nil && lend.Source != nil) || (mate != nil && flags>>sigFlagShift != 0) ||
		(borrow&BorrowTxn != 0 && (flags&flagTxn == 0 || lender.Txn == "")) ||
		(borrow&BorrowRecipients != 0 && flags&flagRecipients == 0) ||
		(borrow&BorrowService != 0 && (flags&flagService == 0 || lender.Service == "")) {
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
	if lend.Leader != nil {
		t.Run = lend.Leader.Run
	} else {
		t.Run = id.Run(r.PackedID())
	}
	switch {
	case borrow&BorrowTxn != 0:
		t.Txn = lender.Txn
	case flags&flagTxn != 0:
		t.Txn = id.Txn(r.PackedID())
	}
	t.Step = r.Int()
	if borrow&BorrowIssuer != 0 {
		t.Issuer = lender.partyAt(r)
	} else {
		t.Issuer = id.Party(r.ValidString())
	}
	switch {
	case borrow&BorrowRecipients != 0:
		t.Recipients = decodeParties(r, lender)
	case flags&flagRecipients != 0:
		t.Recipients = decodeParties(r, nil)
	}
	switch {
	case borrow&BorrowService != 0:
		t.Service = lender.Service
	case flags&flagService != 0:
		t.Service = id.Service(t.decodeRooted(r))
	}
	if borrow&BorrowDigest != 0 {
		t.Digest = lender.Digest
	} else {
		copy(t.Digest[:], r.Raw(sig.DigestSize))
	}
	t.IssuedAt = r.Time(canon.TimeMode(flags>>issuedModeShift&3), base)
	t.Nonce = r.PackedID()
	if mate != nil {
		var ok bool
		if t.Signature, ok = mateSignature(mate); !ok {
			r.Fail(canon.ErrBinary)
			return
		}
	} else {
		if borrow&BorrowKeyID != 0 {
			t.Signature.KeyID = lender.Signature.KeyID
		} else {
			t.Signature.KeyID = t.decodeRooted(r)
		}
		t.Signature.DecodeBinary(r, flags>>sigFlagShift)
	}
	if flags&flagTimestamp != 0 {
		t.Timestamp = new(stamp.Token)
		t.Timestamp.DecodeBinary(r)
	}
}

// decodeParties reads a counted party list: strings, or with a lender
// one-byte references into its party list.
func decodeParties(r *canon.BinReader, lender *Token) []id.Party {
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
		if lender != nil {
			out[i] = lender.partyAt(r)
		} else {
			out[i] = id.Party(r.ValidString())
		}
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
	t.Recipients = decodeParties(r, nil)
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
