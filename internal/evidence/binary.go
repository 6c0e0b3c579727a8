package evidence

import (
	"bytes"
	"slices"
	"strings"

	"nonrep/internal/canon"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/stamp"
)

// Presence and mode bits of a binary token, packed into one leading
// varint together with the signature's own presence bits. The fields
// almost every token has come first — its recipients, its service, a
// generated nonce and a 64-byte signature — so the common bitmap is a
// single byte.
const (
	flagRecipients = 1 << iota
	flagService
	// flagNonce: the nonce is nonceLen bytes' worth of lowercase hex
	// digits, written as those bytes raw, without a header.
	flagNonce
	// flagSigBytes: the signature's bytes are sig.FixedBytesLen long,
	// written raw, without a length.
	flagSigBytes

	issuedModeShift = 4 // two bits: the canon.TimeMode of IssuedAt

	flagTxn       = 1 << 6
	flagTimestamp = 1 << 7
	sigFlagShift  = 8 // sig.BinaryFlagBits bits: the signature's presence bits

	// digestFormShift: two bits above the signature's, the DigestForm in
	// which the digest travels (since segment format 10). A token whose
	// digest is written out leaves them clear and pays nothing for them.
	digestFormShift = sigFlagShift + sig.BinaryFlagBits
	digestFormBits  = 2
)

// The bits of the token layout of segment formats 2 to 8, which had no
// fixed-shape fields: the transaction and time-stamp bits where the
// nonce and signature-bytes bits are now, the signature's presence bits
// from bit 6.
const (
	flagTxnV8       = 1 << 2
	flagTimestampV8 = 1 << 3
	sigFlagShiftV8  = 6
)

// nonceLen is the length of the nonces an Issuer generates, in bytes:
// 16 lowercase hex digits.
const nonceLen = 8

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
// frame of another run a run's own self-contained frame leans on; both
// are its lender. A follower's run is always its leader's: that is what
// makes a frame a follower. Each bit is set only where decoding
// reproduces the field byte for byte from the lender. One layout serves
// followers and plain frames alike; the bits are part of the segment
// format.
const (
	// BorrowTxn: the transaction is the lender's.
	BorrowTxn = 1 << iota
	partyLow
	partyHigh
	// BorrowService: the service is the lender's.
	BorrowService
	// BorrowDigest: the digest is the lender's.
	BorrowDigest
	// BorrowSigner: the signature's algorithm is the lender's, and its key
	// id is the token's issuer followed by the lender's key-id suffix —
	// what the lender's key id adds to the lender's issuer — so two
	// parties who name their keys alike share the rule. A token that
	// borrows its whole signature from a mate has none to take.
	BorrowSigner

	// MaskBits is how many low bits of a borrow mask are the token's; the
	// enclosing frame owns the rest.
	MaskBits = iota
)

// Party forms: bits 1 and 2 of a borrow mask, how the token's issuer and
// recipients travel.
const (
	// PartiesSpelled: each party is written out.
	PartiesSpelled = 0
	// PartiesReferenced: each party is a one-byte reference into the
	// lender's party list — 1 its issuer, 2.. its recipients — or 0 and
	// the party written out.
	PartiesReferenced = partyLow
	// PartiesSame: the issuer and recipients are the lender's.
	PartiesSame = partyHigh
	// PartiesMirrored: the lender has one recipient, the token's issuer,
	// and the token's one recipient is the lender's issuer.
	PartiesMirrored = partyLow | partyHigh

	// PartyMask selects the party form of a borrow mask.
	PartyMask = partyLow | partyHigh
)

// The borrow bits of segment formats 2 to 8 that the current layout does
// not keep: the issuer and the recipients borrowed apart, each party as a
// reference with no literal escape, and a party source's key id taken
// only when it is exactly the token's. BorrowTxn, BorrowService and
// BorrowDigest are the bits they were. A follower's mask had
// BorrowBitsV8 token bits, a party source's PartyBitsV8.
const (
	BorrowIssuerV8     = partyLow
	BorrowRecipientsV8 = partyHigh
	BorrowKeyIDV8      = BorrowSigner
	BorrowBitsV8       = 5
	PartyBitsV8        = 6
)

// DigestForm is how a token's binary form carries its digest where its
// lender does not lend it (BorrowDigest): written out, or left for the
// enclosing frame to derive from what the same file already holds (since
// segment format 10). Each derived form is set only where the derivation
// reproduces the digest byte for byte; the forms are part of the segment
// format.
type DigestForm uint8

// Digest forms.
const (
	// DigestWritten: the digest's 32 bytes are written.
	DigestWritten DigestForm = iota
	// DigestConsumed and DigestNotConsumed: the digest is the client's
	// receipt, with that consumption, of a response origin of the token's
	// run that the frame names (ReceiptOf); what is written is how far
	// before the frame that response origin's frame starts.
	DigestConsumed
	DigestNotConsumed
	// DigestNote: the digest is sig.Sum of the frame's note; nothing is
	// written.
	DigestNote
)

// Consumption is the consumption a receipt form says; 0 for the others.
func (f DigestForm) Consumption() Consumption {
	switch f {
	case DigestConsumed:
		return Consumed
	case DigestNotConsumed:
		return NotConsumed
	default:
		return 0
	}
}

// Derived is what decoding a token learns of a digest its binary form did
// not carry, for the enclosing frame to rebuild: the form, and for a
// receipt form how far before the frame its response origin's frame
// starts. The zero value is a digest that was written or lent.
type Derived struct {
	Form DigestForm
	Back uint64
}

// ReceiptOf is the digest of the client's receipt of resp, the response
// origin of run, with consumption c: that of ReceiptNote{run, resp's one
// recipient — the client —, resp's digest, c}, which a client's NRRResp
// and a TTP's substitute receipt carry. It is false when resp has not
// exactly one recipient.
func ReceiptOf(run id.Run, resp *Token, c Consumption) (sig.Digest, bool) {
	if len(resp.Recipients) != 1 {
		return sig.Digest{}, false
	}
	note := ReceiptNote{Run: run, Client: resp.Recipients[0], ResponseDigest: resp.Digest, Consumption: c}
	d, err := note.Digest()
	return d, err == nil
}

// DigestFrom reports the form in which t's digest may travel in a frame
// whose note is note — "" offers none — and that may name resp, a
// response origin of t's run (nil for none): DigestNote where the note's
// digest is t's, a receipt form where resp's receipt with that
// consumption is, DigestWritten otherwise.
func (t *Token) DigestFrom(note string, resp *Token) DigestForm {
	if note != "" && sig.Sum([]byte(note)) == t.Digest {
		return DigestNote
	}
	if resp != nil {
		for _, f := range [...]DigestForm{DigestConsumed, DigestNotConsumed} {
			if d, ok := ReceiptOf(t.Run, resp, f.Consumption()); ok && d == t.Digest {
				return f
			}
		}
	}
	return DigestWritten
}

// Lenders are what a token's binary form leans on instead of writing it
// out; the zero value writes the self-contained form.
type Lenders struct {
	// Leader is the token of the frame a follower points back at, of the
	// token's run: the run is taken from it, and the fields Borrow names.
	Leader *Token
	// Source is the token of the frame a self-contained frame takes its
	// parties from: the run is written, and the fields Borrow names are
	// taken.
	Source *Token
	// Borrow is what t.BorrowFrom allowed of Leader or Source, at most
	// MaskBits bits, BorrowSigner not with a mate.
	Borrow uint8
	// Mate is the token whose signature t.MatesWith accepted: the
	// signature is not written at all, key id included.
	Mate *Token
	// Digest is the form t.DigestFrom allowed where Borrow leaves the
	// digest to the token: a derived form writes, in place of the digest,
	// Digest.Back for a receipt and nothing for a note.
	Digest Derived
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

// partyAt reads a reference partyRef wrote; with literal, a reference of
// 0 says the party follows written out.
func (t *Token) partyAt(r *canon.BinReader, literal bool) id.Party {
	switch ref := int(r.Byte()); {
	case ref == 0 && literal:
		return id.Party(r.ValidString())
	case ref == 1:
		return t.Issuer
	case ref >= 2 && ref-2 < len(t.Recipients):
		return t.Recipients[ref-2]
	default:
		r.Fail(canon.ErrBinary)
		return ""
	}
}

// keySuffix is what t's key id adds to its issuer; false when the key id
// does not extend the issuer.
func (t *Token) keySuffix() (string, bool) {
	kid := t.Signature.KeyID
	if !strings.HasPrefix(kid, string(t.Issuer)) {
		return "", false
	}
	return kid[len(t.Issuer):], true
}

// BorrowFrom reports which fields t may take from lender, and in which
// form its parties travel. A frame whose token borrows its signature
// from a mate leaves BorrowSigner out.
func (t *Token) BorrowFrom(lender *Token) (borrow uint8) {
	if t.Txn != "" && t.Txn == lender.Txn {
		borrow |= BorrowTxn
	}
	borrow |= t.partiesFrom(lender)
	if t.Service != "" && t.Service == lender.Service {
		borrow |= BorrowService
	}
	if t.Digest == lender.Digest {
		borrow |= BorrowDigest
	}
	if own, ok := t.keySuffix(); ok && t.Signature.Algorithm == lender.Signature.Algorithm {
		if suffix, ok := lender.keySuffix(); ok && own == suffix {
			borrow |= BorrowSigner
		}
	}
	return borrow
}

// partiesFrom is the party form in which t's parties travel beside
// lender: the same or mirrored where they are, referenced where at least
// one of them is in lender's list, spelled out otherwise.
func (t *Token) partiesFrom(lender *Token) uint8 {
	switch {
	case t.Issuer == lender.Issuer && slices.Equal(t.Recipients, lender.Recipients):
		return PartiesSame
	case len(t.Recipients) == 1 && len(lender.Recipients) == 1 && t.Issuer == lender.Recipients[0] && t.Recipients[0] == lender.Issuer:
		return PartiesMirrored
	case lender.partyRef(t.Issuer) != 0:
		return PartiesReferenced
	}
	for _, p := range t.Recipients {
		if lender.partyRef(p) != 0 {
			return PartiesReferenced
		}
	}
	return PartiesSpelled
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

// AppendBinary appends the binary encoding of the token (segment
// format 10). The signed form remains the canonical JSON of its TBS fields
// — binary is a carrier, and every compaction below is exact or not
// applied, so DecodeBinary reproduces a token whose canonical JSON (and
// hence TBSDigest and signature validity) is unchanged: the kind as a
// one-byte code, run and transaction packed to raw bytes when they are
// the generated hex shapes, a generated nonce and a 64-byte signature as
// their raw bytes without a header, IssuedAt as a nanosecond delta from
// base (the enclosing record's time; 0 when that is not in nanosecond
// form), service and key id as suffixes of the issuer or recipient URI
// they extend, and absent optional fields as cleared bits rather than
// empty markers.
//
// With a leader — which must be of t's run — the run is not written, and
// with a leader or a source neither is any field lend.Borrow names; with
// a mate the signature is not written at all, key id included, and its
// presence bits are clear; a digest in a derived form (lend.Digest) is
// not written either, and a time-stamp's Ed25519 signature travels
// without its length.
func (t *Token) AppendBinary(dst []byte, base int64, lend Lenders) ([]byte, error) {
	lender, borrow := lend.lender(), lend.Borrow
	if lender == nil {
		borrow = 0
	}
	issuedMode := canon.ModeOfTime(t.IssuedAt)
	flags := uint64(issuedMode) << issuedModeShift
	if lend.Mate == nil {
		flags |= t.Signature.BinaryFlags() << sigFlagShift
		if t.Signature.FixedBytes() {
			flags |= flagSigBytes
		}
	}
	if len(t.Recipients) > 0 {
		flags |= flagRecipients
	}
	if t.Service != "" {
		flags |= flagService
	}
	nonce := canon.IsHex(t.Nonce, nonceLen)
	if nonce {
		flags |= flagNonce
	}
	if t.Txn != "" {
		flags |= flagTxn
	}
	if t.Timestamp != nil {
		flags |= flagTimestamp
	}
	derived := lend.Digest.Form
	if borrow&BorrowDigest != 0 {
		derived = DigestWritten
	}
	flags |= uint64(derived) << digestFormShift
	dst = canon.AppendUvarint(dst, flags)

	code := kindCode(t.Kind)
	dst = append(dst, code)
	if code == 0 {
		dst = canon.AppendString(dst, string(t.Kind))
	}
	if lend.Leader == nil {
		dst = canon.AppendPackedID(dst, string(t.Run))
	}
	if t.Txn != "" && borrow&BorrowTxn == 0 {
		dst = canon.AppendPackedID(dst, string(t.Txn))
	}
	dst = canon.AppendVarint(dst, int64(t.Step))
	if form := borrow & PartyMask; form == PartiesSpelled || form == PartiesReferenced {
		refs := lender // where parties are referenced
		if form == PartiesSpelled {
			refs = nil
		}
		dst = appendParty(dst, refs, t.Issuer)
		if len(t.Recipients) > 0 {
			dst = canon.AppendUvarint(dst, uint64(len(t.Recipients)))
			for _, p := range t.Recipients {
				dst = appendParty(dst, refs, p)
			}
		}
	}
	if t.Service != "" && borrow&BorrowService == 0 {
		dst = t.appendRooted(dst, string(t.Service))
	}
	switch {
	case borrow&BorrowDigest != 0, derived == DigestNote:
	case derived == DigestWritten:
		dst = append(dst, t.Digest[:]...)
	default:
		dst = canon.AppendUvarint(dst, lend.Digest.Back)
	}
	dst, err := canon.AppendTime(dst, t.IssuedAt, issuedMode, base)
	if err != nil {
		return nil, err
	}
	if nonce {
		dst = canon.AppendHex(dst, t.Nonce)
	} else {
		dst = canon.AppendPackedID(dst, t.Nonce)
	}
	if lend.Mate == nil {
		if borrow&BorrowSigner == 0 {
			dst = append(t.appendRooted(dst, t.Signature.KeyID), byte(t.Signature.Algorithm))
		}
		dst = t.Signature.AppendBinaryBody(dst, flags&flagSigBytes != 0)
	}
	if t.Timestamp != nil {
		return t.Timestamp.AppendBinary(dst)
	}
	return dst, nil
}

// appendParty writes p out, or with refs as its reference in refs' party
// list — 0 and p written out when it has none.
func appendParty(dst []byte, refs *Token, p id.Party) []byte {
	if refs != nil {
		ref := refs.partyRef(p)
		if dst = append(dst, ref); ref != 0 {
			return dst
		}
	}
	return canon.AppendString(dst, string(p))
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

// DecodeBinary decodes a token of segment format 10 from r into t, with
// the base and lenders AppendBinary was given but for lend.Digest: a
// digest the token did not carry is left zero and returned as Derived, for
// the frame to rebuild. A borrow bit for a field the token does not have,
// or the lender has nothing to lend, is refused, and so are parties the
// same as or mirroring a lender whose party list cannot give them, a
// signer taken from a lender whose key id does not extend its issuer, a
// mate without a batch path, a token that borrows its signature yet says
// it has one of its own, and a digest both lent and derived. All
// variable-length data is copied out of the reader's buffer: decoded
// tokens escape into query results and protocol state that outlive the
// source buffer (which may be an mmapped segment); what is borrowed is
// shared with the lender's token, strings both.
func (t *Token) DecodeBinary(r *canon.BinReader, base int64, lend Lenders) Derived {
	return t.decodeBinary(r, base, lend, layoutV10, false)
}

// DecodeBinaryHead decodes a token of segment format 10 up to and
// including its digest — kind, run, transaction, step, parties, service
// and digest, none of its signature — and leaves r there: what a reader
// needs of a response origin whose receipt it rebuilds. No mate is needed.
func (t *Token) DecodeBinaryHead(r *canon.BinReader, base int64, lend Lenders) Derived {
	return t.decodeBinary(r, base, lend, layoutV10, true)
}

// DecodeBinaryV9 decodes a token of segment format 9 — format 10's layout
// without digest forms, its time-stamp in the time-stamp layout of formats
// 2 to 9. Nothing writes this layout any more; segments that hold it stay
// readable.
func (t *Token) DecodeBinaryV9(r *canon.BinReader, base int64, lend Lenders) {
	t.decodeBinary(r, base, lend, layoutV9, false)
}

// DecodeBinaryV8 decodes a token of segment formats 2 to 8 — the layout
// without fixed-shape fields or party forms, whose borrow masks carry the
// V8 bits — with the base and lenders its frame gives. Nothing writes
// this layout any more; segments that hold it stay readable.
func (t *Token) DecodeBinaryV8(r *canon.BinReader, base int64, lend Lenders) {
	t.decodeBinary(r, base, lend, layoutV8, false)
}

// The token layouts of the segment formats.
const (
	layoutV8  = iota // formats 2 to 8
	layoutV9         // format 9
	layoutV10        // format 10, the one written
)

func (t *Token) decodeBinary(r *canon.BinReader, base int64, lend Lenders, layout int, head bool) (derived Derived) {
	flags := r.Uvarint()
	lender, borrow, mate := lend.lender(), lend.Borrow, lend.Mate
	txnBit, stampBit, shift, bits := uint64(flagTxn), uint64(flagTimestamp), sigFlagShift, MaskBits
	width := sigFlagShift + sig.BinaryFlagBits
	v8 := layout == layoutV8
	switch layout {
	case layoutV8:
		txnBit, stampBit, shift, bits = flagTxnV8, flagTimestampV8, sigFlagShiftV8, PartyBitsV8
		width = sigFlagShiftV8 + sig.BinaryFlagBits
		if lend.Leader != nil {
			bits = BorrowBitsV8
		}
	case layoutV10:
		width += digestFormBits
		derived.Form = DigestForm(flags >> digestFormShift)
	}
	parties := borrow & PartyMask
	if flags>>width != 0 || borrow>>bits != 0 || (lender == nil && borrow != 0) ||
		(lend.Leader != nil && lend.Source != nil) || (mate != nil && flags>>shift&(1<<sig.BinaryFlagBits-1) != 0) ||
		(borrow&BorrowTxn != 0 && (flags&txnBit == 0 || lender.Txn == "")) ||
		(borrow&BorrowService != 0 && (flags&flagService == 0 || lender.Service == "")) ||
		(borrow&BorrowDigest != 0 && derived.Form != DigestWritten) {
		r.Fail(canon.ErrBinary)
		return derived
	}
	if v8 {
		if borrow&BorrowRecipientsV8 != 0 && flags&flagRecipients == 0 {
			r.Fail(canon.ErrBinary)
			return derived
		}
	} else if (mate != nil && flags&flagSigBytes != 0) || (mate != nil && borrow&BorrowSigner != 0) ||
		(parties == PartiesSame && (flags&flagRecipients != 0) != (len(lender.Recipients) > 0)) ||
		(parties == PartiesMirrored && (flags&flagRecipients == 0 || len(lender.Recipients) != 1)) {
		r.Fail(canon.ErrBinary)
		return derived
	}
	if code := int(r.Byte()); code == 0 {
		t.Kind = Kind(r.ValidString())
	} else if code < len(kindCodes) {
		t.Kind = kindCodes[code]
	} else {
		r.Fail(canon.ErrBinary)
		return derived
	}
	if lend.Leader != nil {
		t.Run = lend.Leader.Run
	} else {
		t.Run = id.Run(r.PackedID())
	}
	switch {
	case borrow&BorrowTxn != 0:
		t.Txn = lender.Txn
	case flags&txnBit != 0:
		t.Txn = id.Txn(r.PackedID())
	}
	t.Step = r.Int()
	switch {
	case v8:
		t.decodePartiesV8(r, flags, lender, borrow)
	case parties == PartiesSame:
		t.Issuer, t.Recipients = lender.Issuer, slices.Clone(lender.Recipients)
	case parties == PartiesMirrored:
		t.Issuer, t.Recipients = lender.Recipients[0], []id.Party{lender.Issuer}
	case parties == PartiesReferenced:
		t.Issuer = lender.partyAt(r, true)
		if flags&flagRecipients != 0 {
			t.Recipients = decodeParties(r, lender, true)
		}
	default:
		t.Issuer = id.Party(r.ValidString())
		if flags&flagRecipients != 0 {
			t.Recipients = decodeParties(r, nil, false)
		}
	}
	switch {
	case borrow&BorrowService != 0:
		t.Service = lender.Service
	case flags&flagService != 0:
		t.Service = id.Service(t.decodeRooted(r))
	}
	switch {
	case borrow&BorrowDigest != 0:
		t.Digest = lender.Digest
	case derived.Form == DigestWritten:
		copy(t.Digest[:], r.Raw(sig.DigestSize))
	case derived.Form != DigestNote:
		if derived.Back = r.Uvarint(); derived.Back == 0 {
			r.Fail(canon.ErrBinary)
		}
	}
	if head {
		return derived
	}
	t.IssuedAt = r.Time(canon.TimeMode(flags>>issuedModeShift&3), base)
	if !v8 && flags&flagNonce != 0 {
		t.Nonce = r.Hex(nonceLen)
	} else {
		t.Nonce = r.PackedID()
	}
	switch {
	case mate != nil:
		var ok bool
		if t.Signature, ok = mateSignature(mate); !ok {
			r.Fail(canon.ErrBinary)
			return derived
		}
	case v8:
		if borrow&BorrowKeyIDV8 != 0 {
			t.Signature.KeyID = lender.Signature.KeyID
		} else {
			t.Signature.KeyID = t.decodeRooted(r)
		}
		t.Signature.DecodeBinary(r, flags>>shift)
	default:
		if borrow&BorrowSigner != 0 {
			suffix, ok := lender.keySuffix()
			switch {
			case !ok:
				r.Fail(canon.ErrBinary)
				return derived
			case t.Issuer == lender.Issuer:
				t.Signature.KeyID = lender.Signature.KeyID // the same string, shared
			default:
				t.Signature.KeyID = string(t.Issuer) + suffix
			}
			t.Signature.Algorithm = lender.Signature.Algorithm
		} else {
			t.Signature.KeyID = t.decodeRooted(r)
			t.Signature.Algorithm = sig.Algorithm(r.Byte())
		}
		t.Signature.DecodeBinaryBody(r, flags>>shift&(1<<sig.BinaryFlagBits-1), flags&flagSigBytes != 0)
	}
	if flags&stampBit != 0 {
		t.Timestamp = new(stamp.Token)
		if layout == layoutV10 {
			t.Timestamp.DecodeBinary(r)
		} else {
			t.Timestamp.DecodeBinaryV9(r)
		}
	}
	return derived
}

// decodePartiesV8 reads the parties of a token of formats 2 to 8: the
// issuer and the recipients each spelled out or, where borrow says so,
// references into the lender's party list.
func (t *Token) decodePartiesV8(r *canon.BinReader, flags uint64, lender *Token, borrow uint8) {
	if borrow&BorrowIssuerV8 != 0 {
		t.Issuer = lender.partyAt(r, false)
	} else {
		t.Issuer = id.Party(r.ValidString())
	}
	switch {
	case borrow&BorrowRecipientsV8 != 0:
		t.Recipients = decodeParties(r, lender, false)
	case flags&flagRecipients != 0:
		t.Recipients = decodeParties(r, nil, false)
	}
}

// decodeParties reads a counted party list: strings, or with a lender
// one-byte references into its party list — with literal, 0 and the
// party written out where it has no reference.
func decodeParties(r *canon.BinReader, lender *Token, literal bool) []id.Party {
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
			out[i] = lender.partyAt(r, literal)
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
	t.Recipients = decodeParties(r, nil, false)
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
