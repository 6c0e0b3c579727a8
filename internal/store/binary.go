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
// Version 3 (the only version written) spends bytes only on what a
// record does not share with its neighbourhood and cannot be re-derived:
// Prev is elided when the frame directly follows its predecessor, Hash
// is never stored — it is a function of the rest of the record, and the
// decoder computes it exactly as Chainer.Next did — times are nanosecond
// varints, generated identifiers are raw bytes, kind, direction and the
// protocols' fixed log notes are one-byte codes, and strings that extend
// one of the frame's own party URIs are written as suffixes. A frame
// ends in a CRC-32C of its body, which is what catches bit rot and torn
// writes where no seal pins the derived hash yet (the unsealed tail, a
// push in flight). Every compaction of a field is exact or not applied —
// where decoding would not reproduce the field byte for byte, the field
// is written literally — and a frame decodes given nothing but its
// predecessor's hash: there is no cross-record state.
//
// Version 2 is version 3 with the hash stored and the notes spelled out
// (two flag bits clear), so one body decoder reads both. Version-2 and
// version-1 segments (every field in full, text timestamps) and legacy
// JSON-lines segments (first byte '{') remain readable forever; a stored
// hash is held to the derived one at decode, so whatever the format,
// a decoded record's Hash is the digest of its content and a reader has
// only linkage left to check (ChainVerifier.Advance).
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
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
	return e == EncBinary || e == EncBinaryV1 || e == EncBinaryV2
}

// Binary segment format constants.
const (
	// SegmentVersion is the binary segment format version written into
	// the header's fourth byte.
	SegmentVersion = 3
	// segmentVersion1 and segmentVersion2 are the superseded formats,
	// still decoded.
	segmentVersion1 = 1
	segmentVersion2 = 2
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
// and 2 from the current one), JSON segments with '{'. Empty data is
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
	default:
		return EncBinary
	}
}

// Record frame flag bits (the first body byte of a version-2 or
// version-3 frame).
const (
	// framePrev: the frame carries Prev explicitly. Cleared when Prev is
	// the Hash of the frame just before it, which the decoder already
	// holds.
	framePrev  = 1 << 0
	frameToken = 1 << 1
	frameNote  = 1 << 2
	// Bits 3-4: the canon.TimeMode of At.
	frameAtShift = 3
	// frameNoteCode (with frameNote): the note is one byte, an index
	// into noteWords, not a string. Version 3 only.
	frameNoteCode = 1 << 5
	// frameDerived: the frame stores no Hash — the decoder derives it —
	// and ends in the CRC-32C of the body before it. Version 3 only;
	// every frame this build writes has it set.
	frameDerived = 1 << 6

	frameBits   = 7
	frameV3Bits = frameNoteCode | frameDerived
	frameCRCLen = 4
)

// castagnoli is the CRC-32C table (hardware-assisted where the CPU has
// the instruction).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// noteWords is the vocabulary of log notes that travel as a one-byte
// code: the fixed strings the invocation, relay, fair-exchange, EPM and
// sharing protocols log, status and consumption variants included. A
// note's code is its index plus one. The table is part of the segment
// format: APPEND ONLY — never reorder, edit or remove an entry. A note
// not listed (free text, a note naming a party, a journalled JSON body)
// travels literally, so a protocol may reword its notes at the cost of
// bytes, never of fidelity.
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
// per record, and eliding each frame's Prev when it is the Hash of the
// frame this encoder appended immediately before. One encoder therefore
// serves one contiguous run of frames — a segment file's appends, one
// push — and the first frame of every run is explicit.
//
// A frame stores the record's content, not its Hash: rec.Hash must be
// the record's chained hash (what Chainer.Next, NextRecord and every
// decoder set), because that is what decoding the frame yields. Not safe
// for concurrent use.
type RecordEncoder struct {
	scratch []byte
	last    sig.Digest
	chained bool
}

// Reset starts a new run: the next frame carries its Prev explicitly.
// Call it whenever the next frame will not directly follow the previous
// one in the same file or message.
func (e *RecordEncoder) Reset() { e.chained = false }

// AppendRecord appends rec as a length-prefixed binary frame.
func (e *RecordEncoder) AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	body, err := appendRecordBody(e.scratch[:0], rec, e.chained && rec.Prev == e.last)
	if err != nil {
		return nil, err
	}
	e.scratch = body
	e.last, e.chained = rec.Hash, true
	dst = canon.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...), nil
}

// AppendRecordBinary appends rec as a stand-alone length-prefixed
// binary frame (Prev explicit).
func AppendRecordBinary(dst []byte, rec *Record) ([]byte, error) {
	var e RecordEncoder
	return e.AppendRecord(dst, rec)
}

// AppendFrameRun appends a self-describing run of record frames — the
// segment header, then one frame per record — the form record batches
// take on the wire and in replica tail files. DecodeSegmentData (or
// DecodeFrameRun) reads it back.
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

func appendRecordBody(dst []byte, rec *Record, elidePrev bool) ([]byte, error) {
	start := len(dst)
	atMode := canon.ModeOfTime(rec.At)
	flags := byte(atMode)<<frameAtShift | frameDerived
	if !elidePrev {
		flags |= framePrev
	}
	if rec.Token != nil {
		flags |= frameToken
	}
	var noteCode byte
	if rec.Note != "" {
		flags |= frameNote
		if noteCode = noteCodes[rec.Note]; noteCode != 0 {
			flags |= frameNoteCode
		}
	}
	dst = append(dst, flags)
	dst = canon.AppendUvarint(dst, rec.Seq)
	if !elidePrev {
		dst = append(dst, rec.Prev[:]...)
	}
	dst, err := canon.AppendTime(dst, rec.At, atMode, 0)
	if err != nil {
		return nil, err
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
	case noteCode != 0:
		dst = append(dst, noteCode)
	case rec.Note != "":
		dst = canon.AppendString(dst, rec.Note)
	}
	if rec.Token != nil {
		if dst, err = rec.Token.AppendBinary(dst, tokenTimeBase(rec.At, atMode)); err != nil {
			return nil, err
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli)), nil
}

// tokenTimeBase is what a frame's token writes IssuedAt relative to:
// the record's own time when that travels as nanoseconds.
func tokenTimeBase(at time.Time, mode canon.TimeMode) int64 {
	if mode == canon.TimeText {
		return 0
	}
	return at.UnixNano()
}

// decodeRecordBody decodes one version-2 or version-3 record body; prev
// is the Hash of the frame before it, needed only when the frame elides
// its Prev. A version-2 frame (enc EncBinaryV2, or a frame under the
// current header with the version-3 flag bits clear) ends in its stored
// Hash, which is returned in the record for the caller to hold to the
// derived one (stored true); a frame with frameDerived set ends in a
// checksum instead, verified here. All variable-length data is copied,
// so decoded records never alias the input buffer (which may be an
// mmapped segment that is later unmapped).
func decodeRecordBody(body []byte, enc Encoding, prev *sig.Digest) (rec *Record, stored bool, err error) {
	if len(body) == 0 {
		return nil, false, fmt.Errorf("store: %w: empty record frame", canon.ErrBinary)
	}
	flags := body[0]
	if flags>>frameBits != 0 || (enc == EncBinaryV2 && flags&frameV3Bits != 0) ||
		flags&(frameNote|frameNoteCode) == frameNoteCode {
		return nil, false, fmt.Errorf("store: %w: record frame flags %#x", canon.ErrBinary, flags)
	}
	if flags&frameDerived != 0 {
		n := len(body) - frameCRCLen
		if n < 1 || crc32.Checksum(body[:n], castagnoli) != binary.LittleEndian.Uint32(body[n:]) {
			return nil, false, fmt.Errorf("store: %w: record frame checksum", canon.ErrBinary)
		}
		body = body[:n]
	}
	r := canon.NewBinReader(body[1:])
	rec = new(Record)
	rec.Seq = r.Uvarint()
	switch {
	case flags&framePrev != 0:
		copy(rec.Prev[:], r.Raw(sig.DigestSize))
	case prev != nil:
		rec.Prev = *prev
	default:
		return nil, false, fmt.Errorf("store: %w: frame elides Prev but has no predecessor", canon.ErrBinary)
	}
	atMode := canon.TimeMode(flags >> frameAtShift & 3)
	rec.At = r.Time(atMode, 0)
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
	switch {
	case flags&frameNoteCode != 0:
		if code := r.Byte(); code >= 1 && int(code) <= len(noteWords) {
			rec.Note = noteWords[code-1]
		} else {
			r.Fail(canon.ErrBinary)
		}
	case flags&frameNote != 0:
		rec.Note = r.ValidString()
	}
	if flags&frameToken != 0 && r.Err() == nil {
		rec.Token = new(evidence.Token)
		rec.Token.DecodeBinary(&r, tokenTimeBase(rec.At, atMode))
	}
	stored = flags&frameDerived == 0
	if stored {
		copy(rec.Hash[:], r.Raw(sig.DigestSize))
	}
	if err := r.Done(); err != nil {
		return nil, false, fmt.Errorf("store: decode binary record: %w", err)
	}
	return rec, stored, nil
}

// decodeRecordBodyV1 decodes one version-1 record body.
func decodeRecordBodyV1(body []byte) (*Record, error) {
	r := canon.NewBinReader(body)
	rec := new(Record)
	rec.Seq = r.Uvarint()
	copy(rec.Prev[:], r.Raw(sig.DigestSize))
	rec.At = r.Time(canon.TimeText, 0)
	rec.Direction = Direction(r.ValidString())
	rec.Note = r.ValidString()
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
		return nil, fmt.Errorf("store: decode binary record: %w", err)
	}
	return rec, nil
}

// sealHash is the last step of every record decoder. It gives the
// record the Hash its content implies — the digest of its canonical JSON
// with Hash zeroed, exactly what Chainer.Next computed when the record
// was written — and, where the encoding stored a hash in rec.Hash (every
// format before version 3), refuses a record whose stored hash is not
// that. It also refuses a record without a token: no writer produces one
// (NextRecord will not), and every reader indexes records by their
// token's fields. dig is the caller's digest engine, nil for a one-off
// decode (which borrows a pooled one): a scan keeps its own because the
// pool is emptied by every collection, and a scan — it allocates each
// record it decodes — sees many; tail replay measures 15% slower on the
// pool.
func sealHash(rec *Record, stored bool, dig *canon.Digester) error {
	if rec.Token == nil {
		return fmt.Errorf("store: decode record %d: no token", rec.Seq)
	}
	was := rec.Hash
	rec.Hash = sig.Digest{}
	var h sig.Digest
	var err error
	if dig != nil {
		h, err = dig.Sum256(rec)
	} else {
		h, err = canon.Sum256(rec)
	}
	if err != nil {
		return err
	}
	if stored && was != h {
		return fmt.Errorf("%w: record %d hash", ErrChainBroken, rec.Seq)
	}
	rec.Hash = h
	return nil
}

// DecodeRecordFrame decodes the stand-alone length-prefixed record
// frame at the start of data, returning the record and the frame's
// total length. A frame that runs past the end of data returns
// (nil, 0, nil): the caller decides whether a short tail is a torn
// write or truncation. A frame that elides its Prev is not stand-alone
// and is refused; runs of frames go through DecodeSegmentData.
func DecodeRecordFrame(data []byte) (*Record, int64, error) {
	return decodeFrame(data, EncBinary, nil, nil)
}

// decodeFrame decodes one frame of a binary encoding and seals the
// record's Hash (sealHash); prev is the preceding frame's Hash when
// known, dig the caller's digest engine or nil.
func decodeFrame(data []byte, enc Encoding, prev *sig.Digest, dig *canon.Digester) (*Record, int64, error) {
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
	body := data[w : uint64(w)+n]
	var rec *Record
	var err error
	stored := true
	if enc == EncBinaryV1 {
		rec, err = decodeRecordBodyV1(body)
	} else {
		rec, stored, err = decodeRecordBody(body, enc, prev)
	}
	if err == nil {
		err = sealHash(rec, stored, dig)
	}
	if err != nil {
		return nil, 0, err
	}
	return rec, int64(w) + int64(n), nil
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

// DecodeRecordData decodes exactly one record occupying all of data, in
// the given encoding — the keyed-read path, handed a [offset, next
// offset) sub-slice of a (possibly mmapped) segment. prev is the Hash
// of the record before it in the segment (from the sealed index's hash
// array), which a frame that elides its Prev is completed with — and
// which the record's own Hash is then derived from, for the caller to
// compare with the hash the seal pins at its position; nil for a
// segment's first record.
func DecodeRecordData(data []byte, enc Encoding, prev *sig.Digest) (*Record, error) {
	switch {
	case enc == EncJSON:
		rec := new(Record)
		if err := canon.Unmarshal(bytes.TrimRight(data, "\r\n"), rec); err != nil {
			return nil, err
		}
		if err := sealHash(rec, true, nil); err != nil {
			return nil, err
		}
		return rec, nil
	case enc.framed():
		rec, frameLen, err := decodeFrame(data, enc, prev, nil)
		if err != nil {
			return nil, err
		}
		if rec == nil || frameLen != int64(len(data)) {
			return nil, fmt.Errorf("store: %w: record frame does not fill its slot", canon.ErrBinary)
		}
		return rec, nil
	default:
		return nil, fmt.Errorf("store: decode record: unknown encoding")
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
		prefix, torn, err := scanBinarySegment(data, enc, fn)
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
	each := func(rec *Record, _ int64) error { return fn(rec) }
	var torn bool
	var err error
	if len(data) > 0 && data[0] == 'N' {
		_, _, torn, err = DecodeSegmentData(data, each)
	} else {
		_, torn, err = scanFrames(data, 0, EncBinaryV1, each)
	}
	if err == nil && torn {
		err = fmt.Errorf("store: %w: truncated record frame", canon.ErrBinary)
	}
	return err
}

func scanBinarySegment(data []byte, enc Encoding, fn func(*Record, int64) error) (int64, bool, error) {
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
	if v := data[3]; v != SegmentVersion && v != segmentVersion2 && v != segmentVersion1 {
		return 0, false, fmt.Errorf("%w %d", ErrSegmentVersion, v)
	}
	return scanFrames(data, SegmentHeaderLen, enc, fn)
}

// scanFrames walks the frames of data from offset start, handing each
// frame the hash of the one before it; one digest engine serves the
// whole scan.
func scanFrames(data []byte, start int64, enc Encoding, fn func(*Record, int64) error) (int64, bool, error) {
	prefix := start
	var prev *sig.Digest
	dig := canon.NewDigester()
	for prefix < int64(len(data)) {
		rec, frameLen, err := decodeFrame(data[prefix:], enc, prev, dig)
		if err != nil {
			return prefix, false, err
		}
		if rec == nil {
			return prefix, true, nil // incomplete final frame
		}
		if err := fn(rec, frameLen); err != nil {
			return prefix, false, err
		}
		prev = &rec.Hash
		prefix += frameLen
	}
	return prefix, false, nil
}

// scanJSONSegment is ReadJSONLines over in-memory data, byte-for-byte
// the same recovery semantics so mmapped reads of legacy segments agree
// with the streaming reader that wrote their indexes.
func scanJSONSegment(data []byte, fn func(*Record, int64) error) (int64, bool, error) {
	var prefix int64
	dig := canon.NewDigester()
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
			if err := sealHash(rec, true, dig); err != nil {
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

// Chainer extends a record hash chain one record at a time, sharing one
// digest engine across the group so a batched commit pays for encoder
// machinery once per group rather than once per record. It is the
// group-commit counterpart of NextRecord; the records it produces are
// identical. Not safe for concurrent use.
type Chainer struct {
	seq  uint64
	prev sig.Digest
	dig  *canon.Digester
}

// NewChainer returns a chainer positioned after (lastSeq, lastHash).
func NewChainer(lastSeq uint64, lastHash sig.Digest) *Chainer {
	return &Chainer{seq: lastSeq, prev: lastHash, dig: canon.NewDigester()}
}

// Reset repositions the chainer after (lastSeq, lastHash).
func (c *Chainer) Reset(lastSeq uint64, lastHash sig.Digest) {
	c.seq, c.prev = lastSeq, lastHash
}

// Next builds and chains the next record, exactly as NextRecord does.
func (c *Chainer) Next(at time.Time, dir Direction, tok *evidence.Token, note string) (*Record, error) {
	if tok == nil {
		return nil, errors.New("store: nil token")
	}
	rec := &Record{
		Seq:       c.seq + 1,
		Prev:      c.prev,
		At:        at,
		Direction: dir,
		Note:      strings.ToValidUTF8(note, "�"),
		Token:     tok,
	}
	h, err := c.dig.Sum256(rec)
	if err != nil {
		return nil, err
	}
	rec.Hash = h
	c.seq, c.prev = rec.Seq, rec.Hash
	return rec, nil
}

// Position reports the sequence number and hash of the last record.
func (c *Chainer) Position() (uint64, sig.Digest) { return c.seq, c.prev }
