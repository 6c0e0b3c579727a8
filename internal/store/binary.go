// Binary record encoding — the machine path for segment files, replica
// tails and record pushes.
//
// A binary segment is a 4-byte header ("NRS" + format version) followed
// by length-prefixed record frames: uvarint body length, then the
// record body. Canonical JSON remains the signed form: Record.Hash is
// still the digest of the record's canonical JSON with Hash zeroed, so
// a record decoded from a binary frame re-projects to exactly the
// canonical bytes it was encoded from and the hash chain is
// encoding-independent.
//
// Version 10 (the only version written) spends bytes only on what a
// record does not share with its neighbourhood and cannot be re-derived:
// Prev and seq are elided when the frame directly follows its
// predecessor, Hash is never stored — it is a function of the rest of the
// record, and the decoder computes it exactly as Chainer.Next did — times
// are nanosecond varints, generated identifiers are raw bytes (a
// generated nonce and an Ed25519 signature — a time-stamp's too — without
// even a header), a token's digest that the file's other bytes determine
// is rebuilt from them, kind,
// direction and the protocols' fixed log notes are one-byte codes, a note
// that is canonical JSON is a structured tree (jsonnote.go), and strings
// that extend one of the frame's own party URIs are written as suffixes.
// A frame ends in a CRC-32C of its body, which is what catches bit rot
// and torn writes where no seal pins the derived hash yet (the unsealed
// tail, a push in flight). Every compaction of a field is exact or not
// applied — where decoding would not reproduce the field byte for byte,
// the field is written literally.
//
// The records of one run say the same run, parties, service and often
// digest over again, in one write and across the writes of the same file
// (a vault commit, a push, a replica tail append), and the runs of one
// file mostly say the same parties, service and key id. A frame is
// therefore either plain — it spells out its run — or a follower of a
// leader: the newest plain frame of its run among the last leaderRing
// plain frames of the file, which it names by the distance in bytes from
// its own start back to the leader's. A plain frame may in turn take its
// issuer, recipients, service, signer and time from a party source: a
// plain frame among the same last leaderRing that spells them out itself,
// named the same way. A follower never points at a follower and a party
// source never takes its parties from another; the first frame of every
// file and push spells everything out. A follower may also borrow its
// whole signature from its mate — the frame directly before it, the
// leader or a follower of the same leader, which wrote its own — when the
// two are sibling leaves of one batch signature
// (evidence.Token.MatesWith), as a batch signer's receipt and response
// origin are. A token's digest may be derived rather than written
// (evidence.DigestForm): the digest of the frame's own note, or — in a
// follower — the client's receipt of a response origin, evidence.ReceiptOf
// the newest nro-resp follower of the same leader, which stores its own
// digest and which the frame names by its distance back as well. The
// invariant of the format:
//
//	A frame decodes given its predecessor's hash and seq, its leader —
//	the one frame `back` bytes before it in the same file — the leader's
//	party source (or its own, when it is plain), and, when it says so,
//	its mate and the head of the response origin it names.
//
// There is no table per segment and no state per vault: a sequential
// scan keeps the last leaderRing plain frames it decoded, with the newest
// response origin that follows each, and the frame before the one it
// decodes; a keyed read parses at most four more frames out of the same
// mapping — the leader, the leader's party source, the mate the segment
// index locates and the head of a named response origin, up to its
// digest, which needs nothing but the leader (a plain frame: its party
// source). A plain frame's body is
//
//	flags · [seq · Prev] · source back · [party mask] · At · direction ·
//	note · token · [note tree] · CRC-32C
//
// where a source back of 0 says the frame spells everything out and has
// no party mask, and a follower's is
//
//	flags (bit 7 set) · [seq · Prev] · back · borrow mask · At ·
//	direction · note · token · [note tree] · CRC-32C
//
// A follower's borrow mask and a plain frame's party mask are one byte of
// one layout, saying field by field what is taken from the lender — the
// leader, the party source — instead of written. Bits 0-5 are the
// token's: evidence.BorrowTxn (the transaction); bits 1-2 the party form
// (evidence.PartiesSpelled, PartiesReferenced: the issuer and each
// recipient a one-byte reference into the lender's party list, 0 and the
// party written out where it has none, PartiesSame: the lender's parties,
// PartiesMirrored: the lender's issuer and sole recipient swapped);
// BorrowService and BorrowDigest (the service, the digest); BorrowSigner
// (the signature's algorithm is the lender's, and its key id the token's
// issuer followed by what the lender's key id adds to the lender's
// issuer). Bit 6 is the frame's maskAt: At is a nanosecond delta from the
// lender's At, possible when both travel in the same zone mode. Bit 7,
// maskSig, a follower's only: the token writes no signature, and the
// decoder rebuilds it from the mate's — the same key id, algorithm and
// bytes, the sibling index, a path of the mate's TBS digest and the rest
// of the mate's. A follower's run is always its leader's. A field whose
// bit is clear is written as a frame that spells it out writes it.
//
// A note is absent, a one-byte code — 1 to 27 index noteWords, 0 says a
// structured tree follows the token, whose run, parties and (in a
// follower) leader digest the tree may refer to — or a length-prefixed
// string.
//
// Version 9 is version 10 with every digest that is not lent written out
// and every time-stamp's signature with its length. Version 8 is version
// 9 with the token layout of versions 2 to 8 —
// every nonce and signature with a header, every signer written out
// (a party source's key id taken only when it is exactly the token's),
// every party as a reference or a string — and masks of their own: a
// follower's bits 0-4 and a party source's 0-5 are the token's (bit 1
// the issuer as a reference, bit 2 every recipient as one, bit 5 a party
// source's key id), a follower's bit 5 and a party source's bit 6 say the
// At delta, a follower's bit 6 the mate's signature. Version 7 is version
// 8 with every seq written and no party sources: a plain frame spells out
// its parties and has no source back. Version 6
// is version 7 with a leader ring of one: a follower points exactly at
// the last plain frame (and the writer started every write with a plain
// frame). Version 5 is version 6 without signature mates, version 4 is
// version 5 without structured notes, version 3 is version 4 without
// followers, version 2 is version 3 with the hash stored and the notes
// spelled out (two more flag bits clear), so one body decoder reads all
// nine. They, version-1 segments (every field in full, text timestamps)
// and legacy JSON-lines segments (first byte '{') remain readable
// forever; a stored hash is held to the derived one at decode, so
// whatever the format, a decoded record's Hash is the digest of its
// content and a reader has only linkage left to check
// (ChainVerifier.Advance).
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"strings"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// Encoding identifies the on-disk or on-wire encoding of record data.
type Encoding uint8

// Segment encodings.
const (
	// EncUnknown marks data whose encoding is not yet determined (an
	// empty file, for instance).
	EncUnknown Encoding = iota
	// EncJSON is canonical JSON lines, the legacy segment format and
	// the audit projection.
	EncJSON
	// EncBinary is the current length-prefixed binary frame format.
	EncBinary
	// EncBinaryV1 is the version-1 binary frame format: read, never
	// written.
	EncBinaryV1
	// EncBinaryV2 is the version-2 binary frame format (stored hashes,
	// literal notes): read, never written.
	EncBinaryV2
	// EncBinaryV3 is the version-3 binary frame format (every frame
	// self-contained): read, never written.
	EncBinaryV3
	// EncBinaryV4 is the version-4 binary frame format (notes that are
	// JSON spelled out): read, never written.
	EncBinaryV4
	// EncBinaryV5 is the version-5 binary frame format (every signature
	// written in full): read, never written.
	EncBinaryV5
	// EncBinaryV6 is the version-6 binary frame format (a follower leans
	// on the last plain frame only): read, never written.
	EncBinaryV6
	// EncBinaryV7 is the version-7 binary frame format (every plain frame
	// spells out its parties, every frame its seq): read, never written.
	EncBinaryV7
	// EncBinaryV8 is the version-8 binary frame format (every token writes
	// its signer, its parties as references and its fixed-shape fields with
	// headers): read, never written.
	EncBinaryV8
	// EncBinaryV9 is the version-9 binary frame format (every digest that
	// is not lent written out, every stamp signature with its length):
	// read, never written.
	EncBinaryV9
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case EncJSON:
		return "json"
	case EncBinary:
		return "binary"
	case EncBinaryV1:
		return "binary-v1"
	case EncBinaryV2:
		return "binary-v2"
	case EncBinaryV3:
		return "binary-v3"
	case EncBinaryV4:
		return "binary-v4"
	case EncBinaryV5:
		return "binary-v5"
	case EncBinaryV6:
		return "binary-v6"
	case EncBinaryV7:
		return "binary-v7"
	case EncBinaryV8:
		return "binary-v8"
	case EncBinaryV9:
		return "binary-v9"
	default:
		return "unknown"
	}
}

// HeaderLen is the length of the header that opens a segment file of
// this encoding — where its first record starts.
func (e Encoding) HeaderLen() int64 {
	if e.framed() {
		return SegmentHeaderLen
	}
	return 0
}

// framed reports whether the encoding is one of the binary frame formats.
func (e Encoding) framed() bool {
	return e == EncBinary || e == EncBinaryV1 || e == EncBinaryV2 || e == EncBinaryV3 || e == EncBinaryV4 || e == EncBinaryV5 || e == EncBinaryV6 || e == EncBinaryV7 || e == EncBinaryV8 || e == EncBinaryV9
}

// structuredNotes reports whether the encoding's frames may store a note
// as a structured tree (since version 5).
func (e Encoding) structuredNotes() bool {
	return e.mates() || e == EncBinaryV5
}

// mates reports whether the encoding's followers may borrow a signature
// from their mate (since version 6).
func (e Encoding) mates() bool {
	return e.ring() == leaderRing || e == EncBinaryV6
}

// ring is how many of a file's latest plain frames a follower of the
// encoding may lean on: leaderRing since version 7, the last one before.
func (e Encoding) ring() int {
	if e.sources() || e == EncBinaryV7 {
		return leaderRing
	}
	return 1
}

// sources reports whether the encoding's plain frames may take their
// parties from a party source, and its frames that elide Prev elide
// their seq too (since version 8).
func (e Encoding) sources() bool { return e.lending() || e == EncBinaryV8 }

// lending reports whether the encoding's tokens take their signer and
// their parties in a party form from their lender, under one mask layout
// for followers and plain frames (since version 9).
func (e Encoding) lending() bool { return e == EncBinary || e == EncBinaryV9 }

// masks are the frame's own bits of a follower's borrow mask and of a
// plain frame's party mask under the encoding: since version 9 one
// layout serves both, the token's bits below the at and signature bits.
func (e Encoding) masks() frameMasks {
	if e.lending() {
		return frameMasks{followAt: maskAt, sig: maskSig, sourceAt: maskAt}
	}
	return frameMasks{followAt: borrowAtV8, sig: borrowSigV8, sourceAt: partyAtV8}
}

// frameMasks are the frame's own mask bits of an encoding: a follower's
// at and signature bits, a party source's at bit.
type frameMasks struct{ followAt, sig, sourceAt uint8 }

// frameFlags is the set of frame flag bits the encoding knows; a frame
// under its header that sets any other is refused.
func (e Encoding) frameFlags() byte {
	switch e {
	case EncBinaryV2:
		return frameV2Bits
	case EncBinaryV3:
		return frameV2Bits | frameV3Bits
	default:
		return frameV2Bits | frameV3Bits | frameFollower
	}
}

// Binary segment format constants.
const (
	// SegmentVersion is the binary segment format version written into
	// the header's fourth byte.
	SegmentVersion = 10
	// segmentVersion1 to segmentVersion9 are the superseded formats,
	// still decoded.
	segmentVersion1 = 1
	segmentVersion2 = 2
	segmentVersion3 = 3
	segmentVersion4 = 4
	segmentVersion5 = 5
	segmentVersion6 = 6
	segmentVersion7 = 7
	segmentVersion8 = 8
	segmentVersion9 = 9
	// leaderRing is how many of a file's latest plain frames a follower may
	// lean on (since version 7) and a plain frame may take its parties
	// from (since version 8): a scan refuses a frame that names any other.
	// Part of the format, not a tuning knob.
	leaderRing = 16
	// SegmentHeaderLen is the length of the binary segment header.
	SegmentHeaderLen = 4
	// MaxRecordFrame bounds a single record frame; a declared length
	// beyond it is corruption, not a large record.
	MaxRecordFrame = 1 << 30
)

// SegmentHeader returns the 4-byte header that opens every binary
// segment file and every pushed run of record frames.
func SegmentHeader() [SegmentHeaderLen]byte {
	return [SegmentHeaderLen]byte{'N', 'R', 'S', SegmentVersion}
}

// ErrSegmentVersion is returned when a binary segment header carries an
// unsupported format version.
var ErrSegmentVersion = errors.New("store: unsupported binary segment version")

// DetectEncoding classifies segment data by its header: binary segments
// open with 'N' (the "NRS" header, whose fourth byte tells versions 1
// to 9 from the current one), JSON segments with '{'. Empty data is
// EncUnknown — the caller chooses. Detection is per FILE, never per
// record: a binary frame body may well start with '{'.
func DetectEncoding(data []byte) Encoding {
	switch {
	case len(data) == 0:
		return EncUnknown
	case data[0] != 'N':
		return EncJSON
	case len(data) >= SegmentHeaderLen && data[3] == segmentVersion1:
		return EncBinaryV1
	case len(data) >= SegmentHeaderLen && data[3] == segmentVersion2:
		return EncBinaryV2
	case len(data) >= SegmentHeaderLen && data[3] == segmentVersion3:
		return EncBinaryV3
	case len(data) >= SegmentHeaderLen && data[3] == segmentVersion4:
		return EncBinaryV4
	case len(data) >= SegmentHeaderLen && data[3] == segmentVersion5:
		return EncBinaryV5
	case len(data) >= SegmentHeaderLen && data[3] == segmentVersion6:
		return EncBinaryV6
	case len(data) >= SegmentHeaderLen && data[3] == segmentVersion7:
		return EncBinaryV7
	case len(data) >= SegmentHeaderLen && data[3] == segmentVersion8:
		return EncBinaryV8
	case len(data) >= SegmentHeaderLen && data[3] == segmentVersion9:
		return EncBinaryV9
	default:
		return EncBinary
	}
}

// Record frame flag bits (the first body byte of a frame of version 2
// or later).
const (
	// framePrev: the frame carries Prev explicitly. Cleared when Prev is
	// the Hash of the frame just before it, which the decoder already
	// holds; since version 8 the frame then omits its seq too, the seq of
	// the frame just before it plus one (a frame whose seq is not carries
	// both).
	framePrev  = 1 << 0
	frameToken = 1 << 1
	frameNote  = 1 << 2
	// Bits 3-4: the canon.TimeMode of At.
	frameAtShift = 3
	// frameNoteCode (with frameNote): the note is one byte, an index
	// into noteWords, not a string. Since version 3; since version 5 a
	// code of 0 says the note is a structured tree after the token.
	frameNoteCode = 1 << 5
	// frameDerived: the frame stores no Hash — the decoder derives it —
	// and ends in the CRC-32C of the body before it. Since version 3;
	// every frame this build writes has it set.
	frameDerived = 1 << 6
	// frameFollower: the frame borrows from its leader — a back-distance
	// and a borrow mask follow seq and Prev. Since version 4.
	frameFollower = 1 << 7

	frameV2Bits = framePrev | frameToken | frameNote | 3<<frameAtShift
	frameV3Bits = frameNoteCode | frameDerived
	frameCRCLen = 4

	// maskAt and maskSig are the frame's own bits of a borrow mask, above
	// the token's. maskAt: At is written relative to the lender's At.
	// maskSig, a follower's only: the token's signature is its mate's
	// sibling (evidence.Token.MatesWith) and is not written.
	maskAt  = 1 << evidence.MaskBits
	maskSig = maskAt << 1

	// The frame's own mask bits of versions 6 to 8, above the token's: a
	// follower's at and signature bits, and a party source's at bit (since
	// version 8). (A bit above them is nobody's: the token decoder
	// refuses it.)
	borrowAtV8  = 1 << evidence.BorrowBitsV8
	borrowSigV8 = borrowAtV8 << 1
	partyAtV8   = 1 << evidence.PartyBitsV8
)

// castagnoli is the CRC-32C table (hardware-assisted where the CPU has
// the instruction).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// noteWords is the vocabulary of log notes that travel as a one-byte
// code: the fixed strings the invocation, relay, fair-exchange, EPM and
// sharing protocols log, status and consumption variants included. A
// note's code is its index plus one. The table is part of the segment
// format: APPEND ONLY — never reorder, edit or remove an entry. A note
// not listed travels as a structured tree when it is a journalled JSON
// body and literally otherwise (free text, a note naming a party), so a
// protocol may reword its notes at the cost of bytes, never of fidelity.
var noteWords = [...]string{
	"request origin",
	"request receipt",
	"response origin",
	"voluntary receipt",
	"response origin (ok)",
	"response origin (failed)",
	"response origin (timeout)",
	"response origin (aborted)",
	"response origin (not-executed)",
	"response receipt (consumed)",
	"response receipt (not-consumed)",
	"ttp decision",
	"relayed request origin",
	"relayed request receipt",
	"relayed response origin",
	"relayed response receipt",
	"resolve evidence",
	"substitute receipt",
	"abort evidence",
	"abort affidavit",
	"epm postmark",
	"decision (accept=true)",
	"decision (accept=false)",
	"outcome (agreed=true)",
	"outcome (agreed=false)",
	"ack (applied=true)",
	"ack (applied=false)",
}

// noteCodes inverts noteWords.
var noteCodes = func() map[string]byte {
	m := make(map[string]byte, len(noteWords))
	for i, w := range noteWords {
		m[w] = byte(i + 1)
	}
	return m
}()

// Direction codes; 0 means a literal string follows.
const (
	dirGenerated = 1
	dirReceived  = 2
)

// RecordEncoder appends binary record frames, reusing one scratch
// buffer across calls so the group-commit hot path allocates nothing
// per record. It elides each frame's Prev and seq when they chain to the
// frame it appended immediately before, writes a frame as a follower of
// the newest plain frame of the same run among the last leaderRing plain
// frames it appended — in this write or an earlier one to the same file —
// and lets a follower borrow its signature from the frame directly before
// it — its mate — when that is the leader or a follower of it and the two
// are siblings of one batch signature. A frame that leads its run takes
// its parties, service, key id and time from a party source among those
// plain frames, one that spells them out itself, when one shares its
// parties. One encoder therefore serves one contiguous run of frames — a
// segment file's appends, one push — and the first frame of every run is
// explicit and spells out its parties. A token's digest that is the
// digest of its frame's note, or — in a follower — the receipt of the
// newest response origin that follows the same leader and stores its
// digest, is rebuilt rather than written.
//
// A frame stores the record's content, not its Hash: rec.Hash must be
// the record's chained hash (what Chainer.Next, NextRecord and every
// decoder set), because that is what decoding the frame yields. Not safe
// for concurrent use.
type RecordEncoder struct {
	scratch []byte
	last    sig.Digest
	lastSeq uint64
	chained bool
	// pos is where the next frame starts, in bytes appended since Reset.
	pos int64
	// ring holds the plain frames a follower may lean on.
	ring frameRing
	// mate is the frame appended last, when it wrote its signature in
	// full, and mateLead where its leader starts (its own start when it
	// leads): the only frame a follower of that leader may borrow a
	// signature from.
	mate     *Record
	mateLead int64
}

// Reset starts a new run: the next frame carries its Prev explicitly and
// is plain, and no frame appended so far lends anything. Call it whenever
// the next frame will not directly follow the previous one in the same
// file or message.
func (e *RecordEncoder) Reset() { *e = RecordEncoder{scratch: e.scratch} }

// Cut forgets every frame appended so far as a leader, party source,
// mate or response origin: the next frame is plain and spells out its
// parties, whatever its run, and leads the frames after it. Call it when
// frames it appended were dropped rather than written — no later frame
// may lean on one that never reached the file.
func (e *RecordEncoder) Cut() {
	e.ring.clear()
	e.mate = nil
}

// AppendRecord appends rec as a length-prefixed binary frame.
func (e *RecordEncoder) AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	elide := e.chained && rec.Prev == e.last && rec.Seq == e.lastSeq+1
	start := e.pos
	var lean leaning
	leadAt := start
	var lead *ringFrame
	if elide && rec.Token != nil {
		// A frame that names recipients does not follow a leader that names
		// none — a party's record to itself, such as a journal record that
		// opens a durable run: it leads the run from here on, so that the
		// frames after it borrow their parties and service from it.
		if f := e.ring.of(rec.Token.Run); f != nil && (len(f.rec.Token.Recipients) > 0 || len(rec.Token.Recipients) == 0) {
			lead, lean.lead, leadAt = f, f.rec, f.at
		}
	}
	switch {
	case lean.lead != nil:
		lean.back = uint64(start - leadAt)
		if mate := e.mate; mate != nil && e.mateLead == leadAt && rec.Token.MatesWith(mate.Token) {
			lean.mate = mate
		}
		if lead.resp != nil {
			lean.resp, lean.respBack = lead.resp, uint64(start-lead.respAt)
		}
	case rec.Token != nil:
		if src, at := e.ring.sourceFor(rec.Token); src != nil {
			lean.source, lean.back = src, uint64(start-at)
		}
	}
	body, form, err := appendRecordBody(e.scratch[:0], rec, elide, lean)
	if err != nil {
		return nil, err
	}
	e.scratch = body
	e.last, e.lastSeq, e.chained = rec.Hash, rec.Seq, true
	switch {
	case lean.lead == nil:
		e.ring.push(rec, start, leaderRing, lean.source != nil)
	case rec.Token.Kind == evidence.KindNROResp:
		lead.respond(rec, start, form)
	}
	e.mate = nil
	if lean.mate == nil && rec.Token != nil {
		e.mate, e.mateLead = rec, leadAt
	}
	n := len(dst)
	dst = append(canon.AppendUvarint(dst, uint64(len(body))), body...)
	e.pos += int64(len(dst) - n)
	return dst, nil
}

// leaning is what a frame leans on instead of writing it out: a
// follower's leader or a plain frame's party source, back bytes before
// it, a follower's mate, and the response origin of a follower's leader,
// respBack bytes before it, whose receipt its digest may be. The zero
// value is a frame that spells out everything.
type leaning struct {
	lead, source *Record
	back         uint64
	mate         *Record
	resp         *Record
	respBack     uint64
}

// frameRing holds the latest plain frames of a file — at most the
// encoding's ring size — with where each starts: the frames a follower
// may lean on, and those of them that spell out their parties the frames
// a plain frame may take its parties from. A plain frame that cannot
// lead takes its place without a record.
type frameRing struct {
	frames        [leaderRing]ringFrame
	n, next, size int
}

type ringFrame struct {
	rec *Record
	at  int64
	// sourced: the frame took its parties from a party source, so it
	// lends them to none.
	sourced bool
	// resp is the newest response origin that follows the frame, starting
	// at respAt, when its digest is stored: the one frame a receipt that
	// follows it may rebuild its digest from. nil when there is none, or
	// the newest derived its own digest.
	resp   *Record
	respAt int64
}

// respond records rec, a response origin that follows the frame starting
// at at, its digest in form, as the newest.
func (f *ringFrame) respond(rec *Record, at int64, form DigestForm) {
	f.resp, f.respAt = rec, at
	if form != DigestStored && form != DigestLent {
		f.resp = nil
	}
}

// push adds the plain frame starting at at, rec nil when it cannot lead,
// displacing the oldest of size.
func (r *frameRing) push(rec *Record, at int64, size int, sourced bool) {
	if rec != nil && rec.Token == nil {
		rec = nil
	}
	r.size = size
	r.frames[r.next] = ringFrame{rec: rec, at: at, sourced: sourced}
	r.next = (r.next + 1) % size
	r.n = min(r.n+1, size)
}

// newest returns the i-th newest frame held, i from 1 to r.n.
func (r *frameRing) newest(i int) *ringFrame {
	return &r.frames[(r.next-i+r.size)%r.size]
}

// of returns the newest frame of run held; nil when there is none.
func (r *frameRing) of(run id.Run) *ringFrame {
	for i := 1; i <= r.n; i++ {
		if f := r.newest(i); f.rec != nil && f.rec.Token.Run == run {
			return f
		}
	}
	return nil
}

// sourceFor returns the frame held that lends tok the most of its
// parties — the same or mirrored before referenced — then its service
// and signer; the newest of those that lend as much — and where it
// starts; nil when none lends a party.
func (r *frameRing) sourceFor(tok *evidence.Token) (*Record, int64) {
	var best *ringFrame
	bestScore := 0
	for i := 1; i <= r.n; i++ {
		f := r.newest(i)
		if f.rec == nil || f.sourced {
			continue
		}
		b := tok.BorrowFrom(f.rec.Token)
		parties := 0
		switch b & evidence.PartyMask {
		case evidence.PartiesSpelled:
			continue
		case evidence.PartiesReferenced:
			parties = 1
		default:
			parties = 2
		}
		score := 4*parties + bits.OnesCount8(b&(evidence.BorrowService|evidence.BorrowSigner))
		if score > bestScore {
			best, bestScore = f, score
		}
	}
	if best == nil {
		return nil, 0
	}
	return best.rec, best.at
}

// at returns the frame held that starts at at; nil when there is none.
func (r *frameRing) at(at int64) *ringFrame {
	for i := 0; i < r.n; i++ {
		if f := &r.frames[i]; f.at == at {
			return f
		}
	}
	return nil
}

func (r *frameRing) clear() { r.n, r.next = 0, 0 }

// AppendRecordBinary appends rec as a stand-alone length-prefixed
// binary frame (Prev explicit, plain).
func AppendRecordBinary(dst []byte, rec *Record) ([]byte, error) {
	var e RecordEncoder
	return e.AppendRecord(dst, rec)
}

// AppendFrameRun appends a self-describing run of record frames — the
// segment header, then one frame per record, as one write — the form
// record batches take on the wire and in replica tail files.
// DecodeSegmentData (or DecodeFrameRun) reads it back.
func AppendFrameRun(dst []byte, recs []*Record) ([]byte, error) {
	hdr := SegmentHeader()
	dst = append(dst, hdr[:]...)
	var e RecordEncoder
	var err error
	for _, rec := range recs {
		if dst, err = e.AppendRecord(dst, rec); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendRecordBody appends rec's frame body: a plain frame, which with
// a source takes its parties from it, or with a lead a follower of it,
// which with a mate borrows its signature from that and with a response
// origin may rebuild its digest from that's. It says in which form the
// frame stores its token's digest.
func appendRecordBody(dst []byte, rec *Record, elidePrev bool, lean leaning) ([]byte, DigestForm, error) {
	start := len(dst)
	atMode := canon.ModeOfTime(rec.At)
	flags := byte(atMode)<<frameAtShift | frameDerived
	if !elidePrev {
		flags |= framePrev
	}
	if rec.Token != nil {
		flags |= frameToken
	}
	lend := evidence.Lenders{Leader: tokenOf(lean.lead), Source: tokenOf(lean.source), Mate: tokenOf(lean.mate)}
	// mask is a follower's or a plain frame's borrow mask, lender the
	// frame it borrows from.
	var mask uint8
	var lender *Record
	var atBase int64
	switch {
	case lean.lead != nil:
		flags |= frameFollower
		lender, lend.Borrow = lean.lead, rec.Token.BorrowFrom(lend.Leader)
		if lean.mate != nil {
			lend.Borrow &^= evidence.BorrowSigner
			mask |= maskSig
		}
	case lean.source != nil:
		lender, lend.Borrow = lean.source, rec.Token.BorrowFrom(lend.Source)
	}
	mask |= lend.Borrow
	if lender != nil && atMode != canon.TimeText && atMode == canon.ModeOfTime(lender.At) {
		mask |= maskAt
		atBase = lender.At.UnixNano()
	}
	var noteCode byte
	var tree []byte // a structured note: code 0, the tree after the token
	if rec.Note != "" {
		flags |= frameNote
		if noteCode = noteCodes[rec.Note]; noteCode == 0 && rec.Token != nil {
			tree = encodeNote(rec.Note, &noteScope{tok: rec.Token, lead: lend.Leader, base: tokenTimeBase(rec.At, atMode)})
		}
		if noteCode != 0 || tree != nil {
			flags |= frameNoteCode
		}
	}
	form := DigestStored
	switch {
	case rec.Token == nil:
	case lend.Borrow&evidence.BorrowDigest != 0:
		form = DigestLent
	default:
		// A coded note is one of the protocols' fixed words, which no
		// token's digest covers: only a note written out is offered.
		note := rec.Note
		if noteCode != 0 {
			note = ""
		}
		lend.Digest.Form = rec.Token.DigestFrom(note, tokenOf(lean.resp))
		form = digestForm(lend.Digest.Form)
		if form == DigestReceipt {
			lend.Digest.Back = lean.respBack
		}
	}
	dst = append(dst, flags)
	if !elidePrev {
		dst = canon.AppendUvarint(dst, rec.Seq)
		dst = append(dst, rec.Prev[:]...)
	}
	switch {
	case lender != nil:
		dst = append(canon.AppendUvarint(dst, lean.back), mask)
	case rec.Token != nil:
		dst = append(dst, 0) // a plain frame without a party source
	}
	dst, err := canon.AppendTime(dst, rec.At, atMode, atBase)
	if err != nil {
		return nil, 0, err
	}
	switch rec.Direction {
	case Generated:
		dst = append(dst, dirGenerated)
	case Received:
		dst = append(dst, dirReceived)
	default:
		dst = append(dst, 0)
		dst = canon.AppendString(dst, string(rec.Direction))
	}
	switch {
	case flags&frameNoteCode != 0:
		dst = append(dst, noteCode)
	case rec.Note != "":
		dst = canon.AppendString(dst, rec.Note)
	}
	if rec.Token != nil {
		if dst, err = rec.Token.AppendBinary(dst, tokenTimeBase(rec.At, atMode), lend); err != nil {
			return nil, 0, err
		}
	}
	dst = append(dst, tree...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli)), form, nil
}

// tokenOf is rec's token, nil for no record.
func tokenOf(rec *Record) *evidence.Token {
	if rec == nil {
		return nil
	}
	return rec.Token
}

// tokenTimeBase is what a frame's token writes IssuedAt relative to:
// the record's own time when that travels as nanoseconds.
func tokenTimeBase(at time.Time, mode canon.TimeMode) int64 {
	if mode == canon.TimeText {
		return 0
	}
	return at.UnixNano()
}

// leads reports whether a frame with these flags can lead followers: a
// plain frame with a token, under a checksum.
func leads(flags byte) bool {
	return flags&(frameFollower|frameToken|frameDerived) == frameToken|frameDerived
}

// NoteForm is how a frame stores its record's note.
type NoteForm uint8

// Note forms.
const (
	// NoteNone: the record has no note.
	NoteNone NoteForm = iota
	// NoteCoded: one byte of the protocols' fixed vocabulary (noteWords).
	NoteCoded
	// NoteStructured: the structured tree of a JSON note.
	NoteStructured
	// NoteLiteral: the note's text.
	NoteLiteral

	noteForms = iota
)

// PartyForm is how a frame's token stores its issuer and recipients.
type PartyForm uint8

// Party forms.
const (
	// PartiesSpelled: written out — every frame that leans on no other,
	// and every frame whose lender knows none of its parties.
	PartiesSpelled PartyForm = iota
	// PartiesReferenced: one-byte references into the lender's party list,
	// a party the list lacks written out.
	PartiesReferenced
	// PartiesSame: the lender's, not written (since version 9).
	PartiesSame
	// PartiesMirrored: the lender's with issuer and sole recipient swapped,
	// not written (since version 9).
	PartiesMirrored

	partyForms = iota
)

// partyForm reads the party form off a token's borrow bits.
func partyForm(borrow uint8, enc Encoding) PartyForm {
	if !enc.lending() {
		if borrow&(evidence.BorrowIssuerV8|evidence.BorrowRecipientsV8) != 0 {
			return PartiesReferenced
		}
		return PartiesSpelled
	}
	switch borrow & evidence.PartyMask {
	case evidence.PartiesReferenced:
		return PartiesReferenced
	case evidence.PartiesSame:
		return PartiesSame
	case evidence.PartiesMirrored:
		return PartiesMirrored
	default:
		return PartiesSpelled
	}
}

// DigestForm is how a frame stores its token's digest.
type DigestForm uint8

// Digest forms.
const (
	// DigestStored: the digest's bytes are written.
	DigestStored DigestForm = iota
	// DigestLent: the digest is the lender's, not written.
	DigestLent
	// DigestReceipt: the digest is the client's receipt of a response
	// origin of its leader that the frame names, rebuilt from it (since
	// version 10).
	DigestReceipt
	// DigestNote: the digest is the note's, rebuilt from it (since
	// version 10).
	DigestNote

	digestForms = iota
)

// digestForm is the frame's form of a token's own digest form.
func digestForm(f evidence.DigestForm) DigestForm {
	switch f {
	case evidence.DigestWritten:
		return DigestStored
	case evidence.DigestNote:
		return DigestNote
	default:
		return DigestReceipt
	}
}

// frameInfo is what decoding a frame learns about its shape beyond the
// record: its flags, whether a follower borrowed its signature from its
// mate, whether a plain frame took its parties from a party source, how
// its token's parties travel and whether it took its signer from its
// lender, how it stores its token's digest, its note's form and the bytes
// the note takes.
type frameInfo struct {
	flags     byte
	mateSig   bool
	sourced   bool
	signer    bool
	parties   PartyForm
	digest    DigestForm
	note      NoteForm
	noteBytes int
}

// chainLink is what a frame that elides its Prev is completed with: the
// seq and Hash of the record before it.
type chainLink struct {
	seq  uint64
	hash sig.Digest
}

// leaderFunc finds the frame a follower or a plain frame names: the plain
// record whose frame starts back bytes before it — a follower's leader,
// or a plain frame's party source.
type leaderFunc func(back uint64) (*Record, error)

// mateFunc finds a follower's mate: the record whose frame directly
// precedes it, with what that frame says of its shape, when it is the
// follower's leader or a follower of the same leader, and fails
// otherwise.
type mateFunc func() (*Record, frameInfo, error)

// responseFunc finds the response origin a follower's receipt names: the
// token of the frame back bytes before it, a follower of the same leader
// of kind nro-resp that stores its digest, and fails otherwise.
type responseFunc func(back uint64) (*evidence.Token, error)

// frameLenders find what a frame leans on: its leader if it is a
// follower, its party source if it is a plain frame that names one, its
// mate if it borrows a signature, and the response origin its digest is
// the receipt of. Each is nil where a frame stands alone.
type frameLenders struct {
	leader, source leaderFunc
	mate           mateFunc
	response       responseFunc
}

// decodeRecordBody decodes one record body of version 2 to 10; prev is
// the record before it, needed only when the frame elides its Prev, and
// lend finds what the frame leans on, needed only when it does. With head
// set it decodes a version-10 frame only up to its token's digest — no
// mate, no signature, no note tree — for a reader that needs a response
// origin's recipients and digest, and refuses one whose digest is derived.
// A version-2 frame (enc EncBinaryV2, or a frame under a later header
// with the version-3 flag bits clear) ends in its stored Hash,
// which is returned in the record for the caller to hold to the derived
// one; a frame with frameDerived set ends in a checksum instead,
// verified here. What the frame says of its own shape is returned beside
// the record. All variable-length data is copied, so decoded records
// never alias the input buffer (which may be an mmapped segment that is
// later unmapped).
func decodeRecordBody(body []byte, enc Encoding, prev *chainLink, lend frameLenders, head bool) (rec *Record, info frameInfo, err error) {
	if len(body) == 0 {
		return nil, info, fmt.Errorf("store: %w: empty record frame", canon.ErrBinary)
	}
	flags := body[0]
	if flags&^enc.frameFlags() != 0 || flags&(frameNote|frameNoteCode) == frameNoteCode ||
		(flags&frameFollower != 0 && flags&(frameToken|frameDerived) != frameToken|frameDerived) {
		return nil, info, fmt.Errorf("store: %w: record frame flags %#x", canon.ErrBinary, flags)
	}
	info.flags = flags
	if flags&frameDerived != 0 {
		n := len(body) - frameCRCLen
		if n < 1 || crc32.Checksum(body[:n], castagnoli) != binary.LittleEndian.Uint32(body[n:]) {
			return nil, info, fmt.Errorf("store: %w: record frame checksum", canon.ErrBinary)
		}
		body = body[:n]
	}
	r := canon.NewBinReader(body[1:])
	rec = new(Record)
	if flags&framePrev != 0 || !enc.sources() {
		rec.Seq = r.Uvarint()
	}
	switch {
	case flags&framePrev != 0:
		copy(rec.Prev[:], r.Raw(sig.DigestSize))
	case prev == nil:
		return nil, info, fmt.Errorf("store: %w: frame elides Prev but has no predecessor", canon.ErrBinary)
	default:
		rec.Prev = prev.hash
		if enc.sources() {
			rec.Seq = prev.seq + 1
		}
	}
	atMode := canon.TimeMode(flags >> frameAtShift & 3)
	var tokLend evidence.Lenders
	// lender is the frame whose At the frame's may be relative to, which
	// the bit atBit of mask says it is.
	var lender *Record
	var mask, atBit uint8
	own := enc.masks()
	switch {
	case flags&frameFollower != 0:
		back := r.Uvarint()
		mask = r.Byte()
		if r.Err() != nil || lend.leader == nil {
			return nil, info, fmt.Errorf("store: %w: follower frame without its leader", canon.ErrBinary)
		}
		if lender, err = lend.leader(back); err != nil {
			return nil, info, err
		}
		tokLend.Leader, tokLend.Borrow = lender.Token, mask&^(own.followAt|own.sig)
		info.mateSig, atBit = mask&own.sig != 0, own.followAt
		if info.mateSig && !head {
			if !enc.mates() || lend.mate == nil {
				return nil, info, fmt.Errorf("store: %w: frame borrows a signature without its mate", canon.ErrBinary)
			}
			// The mate is the leader or a follower of it, so a frame with a
			// token of the leader's run; what a mate without a batch path
			// cannot lend, the token decoder refuses.
			m, minfo, err := lend.mate()
			if err != nil {
				return nil, info, err
			}
			if minfo.mateSig {
				return nil, info, fmt.Errorf("store: %w: frame borrows a signature from a frame that borrowed its own", canon.ErrBinary)
			}
			tokLend.Mate = m.Token
		}
	case enc.sources() && flags&frameToken != 0:
		back := r.Uvarint()
		if back == 0 {
			break
		}
		mask = r.Byte()
		if r.Err() != nil || flags&frameDerived == 0 || lend.source == nil {
			return nil, info, fmt.Errorf("store: %w: plain frame without its party source", canon.ErrBinary)
		}
		if lender, err = lend.source(back); err != nil {
			return nil, info, err
		}
		tokLend.Source, tokLend.Borrow = lender.Token, mask&^own.sourceAt
		info.sourced, atBit = true, own.sourceAt
	}
	info.parties = partyForm(tokLend.Borrow, enc)
	info.signer = enc.lending() && tokLend.Borrow&evidence.BorrowSigner != 0
	var atBase int64
	if mask&atBit != 0 {
		if atMode == canon.TimeText || atMode != canon.ModeOfTime(lender.At) {
			return nil, info, fmt.Errorf("store: %w: frame borrows a time of another mode", canon.ErrBinary)
		}
		atBase = lender.At.UnixNano()
	}
	rec.At = r.Time(atMode, atBase)
	switch r.Byte() {
	case dirGenerated:
		rec.Direction = Generated
	case dirReceived:
		rec.Direction = Received
	case 0:
		rec.Direction = Direction(r.ValidString())
	default:
		r.Fail(canon.ErrBinary)
	}
	noteAt := r.Len()
	switch {
	case flags&frameNoteCode != 0:
		switch code := r.Byte(); {
		case code >= 1 && int(code) <= len(noteWords):
			rec.Note, info.note = noteWords[code-1], NoteCoded
		case code == 0 && enc.structuredNotes() && flags&(frameToken|frameDerived) == frameToken|frameDerived:
			info.note = NoteStructured
		default:
			r.Fail(canon.ErrBinary)
		}
	case flags&frameNote != 0:
		rec.Note, info.note = r.ValidString(), NoteLiteral
	}
	info.noteBytes = noteAt - r.Len()
	if tokLend.Borrow&evidence.BorrowDigest != 0 {
		info.digest = DigestLent
	}
	var derived evidence.Derived
	if flags&frameToken != 0 && r.Err() == nil {
		base := tokenTimeBase(rec.At, atMode)
		rec.Token = new(evidence.Token)
		switch {
		case head:
			if derived = rec.Token.DecodeBinaryHead(&r, base, tokLend); derived.Form != evidence.DigestWritten {
				return nil, info, fmt.Errorf("store: %w: response origin derives its digest", canon.ErrBinary)
			}
			if err := r.Err(); err != nil {
				return nil, info, fmt.Errorf("store: decode binary record: %w", err)
			}
			return rec, info, nil
		case enc == EncBinary:
			derived = rec.Token.DecodeBinary(&r, base, tokLend)
		case enc == EncBinaryV9:
			rec.Token.DecodeBinaryV9(&r, base, tokLend)
		default:
			rec.Token.DecodeBinaryV8(&r, base, tokLend)
		}
		if derived.Form != evidence.DigestWritten {
			info.digest = digestForm(derived.Form)
		}
		if info.digest == DigestReceipt && r.Err() == nil {
			if lend.response == nil || flags&frameFollower == 0 {
				return nil, info, fmt.Errorf("store: %w: receipt frame without the response origin it names", canon.ErrBinary)
			}
			resp, err := lend.response(derived.Back)
			if err != nil {
				return nil, info, err
			}
			var ok bool
			if rec.Token.Digest, ok = evidence.ReceiptOf(rec.Token.Run, resp, derived.Form.Consumption()); !ok {
				return nil, info, fmt.Errorf("store: %w: response origin names no sole client", canon.ErrBinary)
			}
		}
		if info.note == NoteStructured && r.Err() == nil {
			info.noteBytes += r.Len()
			rec.Note = decodeNote(&r, &noteScope{tok: rec.Token, lead: tokLend.Leader, base: base})
		}
		if info.digest == DigestNote && r.Err() == nil {
			if rec.Note == "" {
				return nil, info, fmt.Errorf("store: %w: frame derives its digest from a note it has not", canon.ErrBinary)
			}
			rec.Token.Digest = sig.Sum([]byte(rec.Note))
		}
	}
	if flags&frameDerived == 0 {
		copy(rec.Hash[:], r.Raw(sig.DigestSize))
	}
	if err := r.Done(); err != nil {
		return nil, info, fmt.Errorf("store: decode binary record: %w", err)
	}
	return rec, info, nil
}

// decodeRecordBodyV1 decodes one version-1 record body: plain, its hash
// stored, its note literal.
func decodeRecordBodyV1(body []byte) (*Record, frameInfo, error) {
	r := canon.NewBinReader(body)
	rec := new(Record)
	rec.Seq = r.Uvarint()
	copy(rec.Prev[:], r.Raw(sig.DigestSize))
	rec.At = r.Time(canon.TimeText, 0)
	rec.Direction = Direction(r.ValidString())
	noteAt := r.Len()
	rec.Note = r.ValidString()
	info := frameInfo{note: NoteLiteral, noteBytes: noteAt - r.Len()}
	switch r.Byte() {
	case 0:
	case 1:
		tok := new(evidence.Token)
		tok.DecodeBinaryV1(&r)
		rec.Token = tok
	default:
		r.Fail(canon.ErrBinary)
	}
	copy(rec.Hash[:], r.Raw(sig.DigestSize))
	if err := r.Done(); err != nil {
		return nil, info, fmt.Errorf("store: decode binary record: %w", err)
	}
	return rec, info, nil
}

// sealHash is the last step of every record decoder. It gives the
// record the Hash its content implies — the digest of its canonical JSON
// with Hash zeroed, exactly what Chainer.Next computed when the record
// was written — and, where the encoding stored a hash in rec.Hash (every
// format before version 3), refuses a record whose stored hash is not
// that. It also refuses a record without a token: no writer produces one
// (NextRecord will not), and every reader indexes records by their
// token's fields. scratch is the caller's buffer for the canonical JSON,
// kept across a scan so it grows once; nil for a one-off decode, which
// builds the JSON on its own stack.
func sealHash(rec *Record, stored bool, scratch *[]byte) error {
	if rec.Token == nil {
		return fmt.Errorf("store: decode record %d: no token", rec.Seq)
	}
	var h sig.Digest
	var err error
	if scratch != nil {
		h, *scratch, err = chainHash(rec, *scratch)
	} else {
		var buf [1024]byte
		h, _, err = chainHash(rec, buf[:0])
	}
	if err != nil {
		return err
	}
	if stored && rec.Hash != h {
		return fmt.Errorf("%w: record %d hash", ErrChainBroken, rec.Seq)
	}
	rec.Hash = h
	return nil
}

// frameBody returns the body of the length-prefixed frame at the start
// of data and the frame's total length; (nil, 0, nil) when the frame
// runs past the end of data.
func frameBody(data []byte) ([]byte, int64, error) {
	n, w := uvarint(data)
	if w == 0 {
		return nil, 0, nil // truncated length prefix: possibly torn
	}
	if w < 0 || n > MaxRecordFrame {
		return nil, 0, fmt.Errorf("store: %w: record frame length", canon.ErrBinary)
	}
	if uint64(len(data)-w) < n {
		return nil, 0, nil // frame extends past the tail: possibly torn
	}
	return data[w : uint64(w)+n], int64(w) + int64(n), nil
}

// decodeFrame decodes one frame of a binary encoding and seals the
// record's Hash (sealHash); prev is the record before it when known, lend
// finds what the frame leans on where it may lean, scratch is sealHash's
// buffer or nil. What the frame says of its shape is returned.
func decodeFrame(data []byte, enc Encoding, prev *chainLink, lend frameLenders, scratch *[]byte) (*Record, int64, frameInfo, error) {
	body, frameLen, err := frameBody(data)
	if body == nil {
		return nil, 0, frameInfo{}, err
	}
	var rec *Record
	var info frameInfo
	if enc == EncBinaryV1 {
		rec, info, err = decodeRecordBodyV1(body)
	} else {
		rec, info, err = decodeRecordBody(body, enc, prev, lend, false)
	}
	if err == nil {
		err = sealHash(rec, info.flags&frameDerived == 0, scratch)
	}
	if err != nil {
		return nil, 0, frameInfo{}, err
	}
	return rec, frameLen, info, nil
}

// uvarint is binary.Uvarint with the (value, width) convention local to
// this file: width 0 means truncated, negative means overflow.
func uvarint(data []byte) (uint64, int) {
	var v uint64
	var s uint
	for i, b := range data {
		if i == 9 && b > 1 {
			return 0, -1
		}
		if b < 0x80 {
			return v | uint64(b)<<s, i + 1
		}
		v |= uint64(b&0x7f) << s
		s += 7
		if i == 9 {
			return 0, -1
		}
	}
	return 0, 0
}

// A SlotReader decodes records out of one segment's data by their slots —
// the keyed-read path, handed a (possibly mmapped) segment and each
// record's slot from the segment's index — and remembers the last few plain frames it parsed
// for followers and plain frames to lean on, so that the records of one
// index window parse each leader and party source once. Not safe for
// concurrent use.
type SlotReader struct {
	data []byte
	enc  Encoding
	// plain holds the plain frames parsed last, next the slot to fill.
	plain [4]plainFrame
	next  int
}

// errSourceSourced refuses a party source that takes its own parties
// from another.
var errSourceSourced = fmt.Errorf("store: %w: party source takes its parties from another", canon.ErrBinary)

// plainFrame is a plain frame a SlotReader parsed: where it starts and
// ends, its record, and whether it took its parties from a party source.
type plainFrame struct {
	at, end int64
	rec     *Record
	sourced bool
}

// NewSlotReader returns a reader of data, a whole segment in the given
// encoding.
func NewSlotReader(data []byte, enc Encoding) *SlotReader {
	return &SlotReader{data: data, enc: enc}
}

// Decode decodes the record at data[start:end]. seq is the record's seq
// and prev the Hash of the record before it in the segment (from the
// sealed index's windows and hash array), which a frame that elides its
// Prev — and since version 8 its seq — is completed with, and which the
// record's own Hash is then derived from, for the caller to compare with
// the hash the seal pins at its position; prev is nil for a segment's
// first record. prevStart is where that record's frame starts (from the
// index's offsets; negative for none), the mate a frame that borrows its
// signature names. A follower frame costs one more frame parse and
// checksum — its leader's, found in data at the distance the follower
// names, which must be a plain frame ending at or before start (which of
// the file's plain frames it may be, a scan checks, not this read) — and
// one more when the leader takes its parties from a party source, and,
// when it borrows its signature, one for its mate unless that is the
// leader; a plain frame that names a party source costs its source's
// parse; a receipt that names a response origin costs that frame's head,
// up to its digest. A leader or source the reader parsed for an earlier
// slot is not parsed again. No second digest: what a frame took from the
// frames it leans on, or rebuilt from them, is authenticated with it, by
// the hash the caller compares.
func (s *SlotReader) Decode(start, end int64, seq uint64, prev *sig.Digest, prevStart int64) (*Record, error) {
	data, enc := s.data, s.enc
	if start < 0 || end < start || end > int64(len(data)) {
		return nil, fmt.Errorf("store: %w: record slot outside the segment", canon.ErrBinary)
	}
	slot := data[start:end]
	switch {
	case enc == EncJSON:
		rec := new(Record)
		if err := canon.Unmarshal(bytes.TrimRight(slot, "\r\n"), rec); err != nil {
			return nil, err
		}
		if err := sealHash(rec, true, nil); err != nil {
			return nil, err
		}
		return rec, nil
	case !enc.framed():
		return nil, fmt.Errorf("store: decode record: unknown encoding")
	}
	var lead *Record
	leadAt := int64(-1)
	lend := frameLenders{
		leader: func(back uint64) (rec *Record, err error) {
			lead, leadAt, err = s.plainAt(start, back, true)
			return lead, err
		},
		source: func(back uint64) (*Record, error) {
			rec, _, err := s.plainAt(start, back, false)
			return rec, err
		},
	}
	lend.mate = func() (*Record, frameInfo, error) {
		switch {
		case prevStart < enc.HeaderLen() || prevStart < leadAt || prevStart >= start:
			return nil, frameInfo{}, fmt.Errorf("store: %w: frame borrows a signature from before its leader", canon.ErrBinary)
		case prevStart == leadAt:
			return lead, frameInfo{}, nil
		}
		// Other than the leader, the mate is a follower of it.
		m, info, _, err := s.frameAt(prevStart, start, true, false, frameLenders{leader: func(back uint64) (*Record, error) {
			if back != uint64(prevStart-leadAt) {
				return nil, fmt.Errorf("store: %w: signature mate follows another leader", canon.ErrBinary)
			}
			return lead, nil
		}})
		if err == nil && info.flags&frameFollower == 0 {
			err = fmt.Errorf("store: %w: signature mate is a plain frame after the leader", canon.ErrBinary)
		}
		return m, info, err
	}
	lend.response = func(back uint64) (*evidence.Token, error) { return s.responseAt(start, back, lead, leadAt) }
	var link *chainLink
	if prev != nil {
		link = &chainLink{seq: seq - 1, hash: *prev}
	}
	rec, frameLen, _, err := decodeFrame(slot, enc, link, lend, nil)
	if err != nil {
		return nil, err
	}
	if rec == nil || frameLen != int64(len(slot)) {
		return nil, fmt.Errorf("store: %w: record frame does not fill its slot", canon.ErrBinary)
	}
	return rec, nil
}

// responseAt parses the head of the response origin back bytes before the
// frame that starts at from, a follower of the leader lead, which starts
// at leadAt: the token whose receipt that frame's digest is. The response
// origin must lie between the leader and the frame, follow the same
// leader, be of kind nro-resp and store its digest; its recipients and
// digest come before any signature field, so its mate is not parsed.
func (s *SlotReader) responseAt(from int64, back uint64, lead *Record, leadAt int64) (*evidence.Token, error) {
	if back == 0 || back >= uint64(from-leadAt) {
		return nil, fmt.Errorf("store: %w: receipt names no frame after its leader", canon.ErrBinary)
	}
	at := from - int64(back)
	rec, info, _, err := s.frameAt(at, from, false, true, frameLenders{leader: func(back uint64) (*Record, error) {
		if back != uint64(at-leadAt) {
			return nil, fmt.Errorf("store: %w: response origin follows another leader", canon.ErrBinary)
		}
		return lead, nil
	}})
	switch {
	case err != nil:
		return nil, err
	case info.flags&frameFollower == 0 || rec.Token.Kind != evidence.KindNROResp:
		return nil, fmt.Errorf("store: %w: receipt names a frame that is no response origin of its leader", canon.ErrBinary)
	}
	return rec.Token, nil
}

// frameAt parses the frame at data[at:], which must end by to — exactly
// there when whole is set — and says where it ends; with head set, only
// up to its token's digest (decodeRecordBody). Only its own bytes and what
// lend finds are needed: its Prev and seq are not looked at.
func (s *SlotReader) frameAt(at, to int64, whole, head bool, lend frameLenders) (*Record, frameInfo, int64, error) {
	body, n, err := frameBody(s.data[at:to])
	if err != nil {
		return nil, frameInfo{}, 0, err
	}
	if body == nil || (whole && n != to-at) {
		return nil, frameInfo{}, 0, fmt.Errorf("store: %w: frame reference points at no frame", canon.ErrBinary)
	}
	rec, info, err := decodeRecordBody(body, s.enc, new(chainLink), lend, head)
	return rec, info, at + n, err
}

// plainAt parses the plain frame back bytes before the frame that starts
// at from, and says where it starts: a follower's leader, whose party
// source it looks up in turn, or a party source, which may not name one.
// A frame that wants a leader is not one.
func (s *SlotReader) plainAt(from int64, back uint64, leader bool) (*Record, int64, error) {
	if back == 0 || from < s.enc.HeaderLen() || back > uint64(from-s.enc.HeaderLen()) {
		return nil, 0, fmt.Errorf("store: %w: frame points outside the segment", canon.ErrBinary)
	}
	at := from - int64(back)
	for i := range s.plain {
		if f := &s.plain[i]; f.rec != nil && f.at == at && f.end <= from {
			if f.sourced && !leader {
				return nil, 0, errSourceSourced
			}
			return f.rec, at, nil
		}
	}
	source := func(uint64) (*Record, error) { return nil, errSourceSourced }
	if leader {
		source = func(back uint64) (*Record, error) {
			rec, _, err := s.plainAt(at, back, false)
			return rec, err
		}
	}
	rec, info, end, err := s.frameAt(at, from, false, false, frameLenders{source: source})
	if err != nil {
		return nil, 0, err
	}
	if !leads(info.flags) {
		return nil, 0, fmt.Errorf("store: %w: frame points at a frame that cannot lead", canon.ErrBinary)
	}
	s.plain[s.next] = plainFrame{at: at, end: end, rec: rec, sourced: info.sourced}
	s.next = (s.next + 1) % len(s.plain)
	return rec, at, nil
}

// FrameEnd returns where the record that starts at data[start:] ends in
// the given encoding: past the length its frame's uvarint prefix names,
// or past its line's newline for JSON. It reads nothing else of the
// record, so a keyed read finds a record's slot by walking from a frame
// boundary it knows; a record that runs past data is an error, never a
// torn tail — data is a sealed segment.
func FrameEnd(data []byte, start int64, enc Encoding) (int64, error) {
	if start < 0 || start >= int64(len(data)) {
		return 0, fmt.Errorf("store: %w: record slot outside the segment", canon.ErrBinary)
	}
	rest := data[start:]
	switch {
	case enc == EncJSON:
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return 0, fmt.Errorf("store: %w: record line runs past the segment", canon.ErrBinary)
		}
		return start + int64(nl) + 1, nil
	case enc.framed():
		_, n, err := frameBody(rest)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, fmt.Errorf("store: %w: record frame runs past the segment", canon.ErrBinary)
		}
		return start + n, nil
	default:
		return 0, fmt.Errorf("store: record frame: unknown encoding")
	}
}

// DecodeSegmentData streams the well-formed record prefix of a segment
// file's contents to fn along with each record's frame length, first
// detecting the encoding. It returns the detected encoding, the byte
// length of the well-formed prefix (header included for binary
// segments), and whether a torn final frame — the footprint of a crash
// mid-write — was dropped. The semantics mirror ReadJSONLines: writers
// append and flush whole frames before acknowledging, so an incomplete
// final frame was never acknowledged and is torn even if its bytes
// parse so far, while a complete frame that fails to decode is
// corruption and yields an error. Empty data reads as empty with
// EncUnknown.
//
// Every record handed to fn carries the Hash its content implies — the
// scan pays the one canonical digest per record a verifying reader used
// to pay in ChainVerifier.Check — and each frame that elides its Prev
// has been chained to the frame before it, so what is left for a reader
// to check is where the run attaches (ChainVerifier.Advance).
func DecodeSegmentData(data []byte, fn func(*Record, int64) error) (Encoding, int64, bool, error) {
	switch enc := DetectEncoding(data); {
	case enc == EncUnknown:
		return EncUnknown, 0, false, nil
	case enc.framed():
		prefix, torn, err := scanBinarySegment(data, enc, func(rec *Record, n int64, _ frameInfo) error { return fn(rec, n) })
		return enc, prefix, torn, err
	default:
		prefix, torn, err := scanJSONSegment(data, fn)
		return EncJSON, prefix, torn, err
	}
}

// DecodeFrameRun decodes a pushed run of record frames in full: the
// header-prefixed form AppendFrameRun writes, or — from a peer running
// a build that predates it — a bare run of version-1 frames. A run is a
// complete message, so a torn tail is an error here, not a recovery.
func DecodeFrameRun(data []byte, fn func(*Record) error) error {
	var torn bool
	var err error
	if len(data) > 0 && data[0] == 'N' {
		_, _, torn, err = DecodeSegmentData(data, func(rec *Record, _ int64) error { return fn(rec) })
	} else {
		_, torn, err = scanFrames(data, 0, EncBinaryV1, func(rec *Record, _ int64, _ frameInfo) error { return fn(rec) })
	}
	if err == nil && torn {
		err = fmt.Errorf("store: %w: truncated record frame", canon.ErrBinary)
	}
	return err
}

func scanBinarySegment(data []byte, enc Encoding, fn func(*Record, int64, frameInfo) error) (int64, bool, error) {
	header := SegmentHeader()
	if len(data) < SegmentHeaderLen {
		if bytes.HasPrefix(header[:], data) {
			return 0, true, nil // torn header: segment created, crash before first flush
		}
		return 0, false, fmt.Errorf("store: %w: bad segment header", canon.ErrBinary)
	}
	if !bytes.Equal(data[:3], header[:3]) {
		return 0, false, fmt.Errorf("store: %w: bad segment header", canon.ErrBinary)
	}
	if v := data[3]; v < segmentVersion1 || v > SegmentVersion {
		return 0, false, fmt.Errorf("%w %d", ErrSegmentVersion, v)
	}
	return scanFrames(data, SegmentHeaderLen, enc, fn)
}

// scanFrames walks the frames of data from offset start, handing each
// frame the record before it and the plain frame it names among the last
// the encoding's ring holds — a follower's leader, which must be there,
// or a plain frame's party source, which must be there and spell out its
// own parties — and, as a follower's mate, the frame before it when that
// is the leader or a follower of it; one scratch buffer serves the whole
// scan. fn learns each frame's length and shape.
func scanFrames(data []byte, start int64, enc Encoding, fn func(*Record, int64, frameInfo) error) (int64, bool, error) {
	prefix := start
	var prev *chainLink
	var link chainLink
	size := enc.ring()
	var ring frameRing
	var last *Record
	var lastInfo frameInfo
	// leadAt is where the frame decoded leans, lastLead where the frame
	// before it did (each its own start when plain).
	var leadAt, lastLead int64
	// held is the plain frame back bytes before the frame decoded, when
	// the ring holds one.
	held := func(back uint64) *ringFrame {
		if back == 0 || back > uint64(prefix) {
			return nil
		}
		if f := ring.at(prefix - int64(back)); f != nil && f.rec != nil {
			return f
		}
		return nil
	}
	lend := frameLenders{
		leader: func(back uint64) (*Record, error) {
			f := held(back)
			if f == nil {
				return nil, fmt.Errorf("store: %w: follower frame does not point at a plain frame it may lean on", canon.ErrBinary)
			}
			leadAt = f.at
			return f.rec, nil
		},
		source: func(back uint64) (*Record, error) {
			f := held(back)
			if f == nil || f.sourced {
				return nil, fmt.Errorf("store: %w: plain frame does not point at a party source it may take its parties from", canon.ErrBinary)
			}
			return f.rec, nil
		},
		mate: func() (*Record, frameInfo, error) {
			if last == nil || lastLead != leadAt {
				return nil, frameInfo{}, fmt.Errorf("store: %w: frame borrows a signature from a frame that does not follow its leader", canon.ErrBinary)
			}
			return last, lastInfo, nil
		},
		response: func(back uint64) (*evidence.Token, error) {
			if f := ring.at(leadAt); f != nil && f.resp != nil && back <= uint64(prefix) && prefix-int64(back) == f.respAt {
				return f.resp.Token, nil
			}
			return nil, fmt.Errorf("store: %w: receipt does not name the newest response origin of its leader", canon.ErrBinary)
		},
	}
	var scratch []byte
	for prefix < int64(len(data)) {
		leadAt = prefix
		rec, frameLen, info, err := decodeFrame(data[prefix:], enc, prev, lend, &scratch)
		if err != nil {
			return prefix, false, err
		}
		if rec == nil {
			return prefix, true, nil // incomplete final frame
		}
		if err := fn(rec, frameLen, info); err != nil {
			return prefix, false, err
		}
		switch {
		case leads(info.flags):
			ring.push(rec, prefix, size, info.sourced)
		case info.flags&frameFollower == 0:
			ring.push(nil, prefix, size, false)
		case rec.Token.Kind == evidence.KindNROResp:
			if f := ring.at(leadAt); f != nil {
				f.respond(rec, prefix, info.digest)
			}
		}
		last, lastInfo, lastLead = rec, info, leadAt
		link = chainLink{seq: rec.Seq, hash: rec.Hash}
		prev = &link
		prefix += frameLen
	}
	return prefix, false, nil
}

// FrameCount is what a walk over a segment's frames finds: how many
// there are, how many of them follow a leader and how many of those
// borrow their signature from a mate, how many plain frames take their
// parties from a party source, what those take, and what the frames of
// each token kind take, their notes apart.
type FrameCount struct {
	// Frames counts the frames (JSON lines in a JSON segment) decoded.
	Frames int
	// Followers counts the follower frames and FollowerBytes the bytes
	// they take, length prefixes included.
	Followers     int
	FollowerBytes int64
	// SigBorrowers counts the followers that borrow their signature from
	// their mate, and SigBorrowerBytes the bytes they take.
	SigBorrowers     int
	SigBorrowerBytes int64
	// PartyBorrowers counts the plain frames that take their parties from
	// a party source, and PartyBorrowerBytes the bytes they take.
	PartyBorrowers     int
	PartyBorrowerBytes int64
	// Plain and Follow say what the plain frames and the followers take
	// from their lenders: their signer, their parties.
	Plain, Follow Lending
	// Digests counts the frames by how they store their token's digest,
	// indexed by DigestForm: written, lent, rebuilt as the receipt of a
	// response origin, rebuilt from the note.
	Digests [digestForms]int
	// Kinds breaks the frames down by their token's kind.
	Kinds map[evidence.Kind]*KindCount
}

// Lending is what the frames of one type take from the frame they lean on
// — a plain frame's party source, a follower's leader.
type Lending struct {
	// Signers counts the frames whose token takes its signer, key id and
	// algorithm, from its lender (since version 9).
	Signers int
	// Parties counts the frames by how their token's parties travel,
	// indexed by PartyForm: a plain frame without a party source spells
	// them out.
	Parties [partyForms]int
}

func (l *Lending) add(o Lending) {
	l.Signers += o.Signers
	for form, n := range o.Parties {
		l.Parties[form] += n
	}
}

// KindCount is what the frames of one token kind take.
type KindCount struct {
	Records int
	// FrameBytes is the bytes the frames take, length prefixes included.
	FrameBytes int64
	// NoteBytes is the bytes their notes take stored, by NoteForm.
	NoteBytes [noteForms]int64
}

// Add counts o's frames into c.
func (c *FrameCount) Add(o FrameCount) {
	c.Frames += o.Frames
	c.Followers += o.Followers
	c.FollowerBytes += o.FollowerBytes
	c.SigBorrowers += o.SigBorrowers
	c.SigBorrowerBytes += o.SigBorrowerBytes
	c.PartyBorrowers += o.PartyBorrowers
	c.PartyBorrowerBytes += o.PartyBorrowerBytes
	c.Plain.add(o.Plain)
	c.Follow.add(o.Follow)
	for form, n := range o.Digests {
		c.Digests[form] += n
	}
	for kind, k := range o.Kinds {
		sum := c.kind(kind)
		sum.Records += k.Records
		sum.FrameBytes += k.FrameBytes
		for form, n := range k.NoteBytes {
			sum.NoteBytes[form] += n
		}
	}
}

// kind returns the count of one kind's frames, adding it if new.
func (c *FrameCount) kind(kind evidence.Kind) *KindCount {
	if c.Kinds == nil {
		c.Kinds = make(map[evidence.Kind]*KindCount)
	}
	k := c.Kinds[kind]
	if k == nil {
		k = new(KindCount)
		c.Kinds[kind] = k
	}
	return k
}

// CountFrames decodes the records of a segment and counts what their
// frames take — what sharing and note coding look like from outside.
// Frames of the formats before version 4 are all plain, before version 5
// no note is structured, before version 6 no signature is borrowed,
// before version 8 no plain frame names a party source; the
// lines of a JSON segment count as plain frames whose notes are not
// measured. The walk stops at the first torn or undecodable frame and
// returns the error that stopped it — none for a torn final frame, which
// only the caller, knowing how many records the segment holds, can tell
// from the end of the data: the count covers the frames before it.
func CountFrames(data []byte) (FrameCount, error) {
	var c FrameCount
	count := func(rec *Record, n int64, info frameInfo) error {
		c.Frames++
		lending := &c.Plain
		if info.flags&frameFollower != 0 {
			c.Followers++
			c.FollowerBytes += n
			lending = &c.Follow
		}
		switch {
		case info.sourced:
			c.PartyBorrowers++
			c.PartyBorrowerBytes += n
		case info.mateSig:
			c.SigBorrowers++
			c.SigBorrowerBytes += n
		}
		if info.signer {
			lending.Signers++
		}
		lending.Parties[info.parties]++
		c.Digests[info.digest]++
		k := c.kind(rec.Token.Kind)
		k.Records++
		k.FrameBytes += n
		k.NoteBytes[info.note] += int64(info.noteBytes)
		return nil
	}
	var err error
	switch enc := DetectEncoding(data); {
	case enc == EncUnknown:
	case enc.framed():
		_, _, err = scanBinarySegment(data, enc, count)
	default:
		_, _, err = scanJSONSegment(data, func(rec *Record, n int64) error { return count(rec, n, frameInfo{}) })
	}
	return c, err
}

// scanJSONSegment is ReadJSONLines over in-memory data, byte-for-byte
// the same recovery semantics so mmapped reads of legacy segments agree
// with the streaming reader that wrote their indexes.
func scanJSONSegment(data []byte, fn func(*Record, int64) error) (int64, bool, error) {
	var prefix int64
	var scratch []byte
	for int(prefix) < len(data) {
		rest := data[prefix:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return prefix, len(bytes.TrimSpace(rest)) > 0, nil
		}
		line := rest[: nl+1 : nl+1]
		if body := bytes.TrimRight(line, "\r\n"); len(body) > 0 {
			rec := new(Record)
			if err := canon.Unmarshal(body, rec); err != nil {
				return prefix, false, fmt.Errorf("store: corrupt segment line: %w", err)
			}
			if err := sealHash(rec, true, &scratch); err != nil {
				return prefix, false, err
			}
			if err := fn(rec, int64(len(line))); err != nil {
				return prefix, false, err
			}
		}
		prefix += int64(len(line))
	}
	return prefix, false, nil
}

// Chainer extends a record hash chain one record at a time, keeping one
// scratch buffer for the records' canonical JSON across the groups it
// chains. It is the group-commit counterpart of NextRecord; the records
// it produces are identical. Not safe for concurrent use.
type Chainer struct {
	seq     uint64
	prev    sig.Digest
	scratch []byte
}

// NewChainer returns a chainer positioned after (lastSeq, lastHash).
func NewChainer(lastSeq uint64, lastHash sig.Digest) *Chainer {
	return &Chainer{seq: lastSeq, prev: lastHash}
}

// Reset repositions the chainer after (lastSeq, lastHash).
func (c *Chainer) Reset(lastSeq uint64, lastHash sig.Digest) {
	c.seq, c.prev = lastSeq, lastHash
}

// Next builds and chains the next record, exactly as NextRecord does.
func (c *Chainer) Next(at time.Time, dir Direction, tok *evidence.Token, note string) (*Record, error) {
	if err := checkEntry(dir, tok); err != nil {
		return nil, err
	}
	rec := &Record{
		Seq:       c.seq + 1,
		Prev:      c.prev,
		At:        at,
		Direction: dir,
		Note:      strings.ToValidUTF8(note, "�"),
		Token:     tok,
	}
	h, scratch, err := chainHash(rec, c.scratch)
	c.scratch = scratch
	if err != nil {
		return nil, err
	}
	rec.Hash = h
	c.seq, c.prev = rec.Seq, rec.Hash
	return rec, nil
}

// Position reports the sequence number and hash of the last record.
func (c *Chainer) Position() (uint64, sig.Digest) { return c.seq, c.prev }
