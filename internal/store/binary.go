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
// Version 2 (the only version written) spends bytes only on what a
// record does not share with its neighbourhood: Prev is elided when the
// frame directly follows its predecessor, times are nanosecond varints,
// generated identifiers are raw bytes, kind and direction are one-byte
// codes, and strings that extend one of the frame's own party URIs are
// written as suffixes. Every compaction is exact or not applied — where
// decoding would not reproduce the field byte for byte, the field is
// written literally — and a frame decodes given nothing but its
// predecessor's hash: there is no cross-record state. Version 1
// segments (every field in full, text timestamps) and legacy JSON-lines
// segments (first byte '{') remain readable forever.
package store

import (
	"bytes"
	"errors"
	"fmt"
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
	default:
		return "unknown"
	}
}

// HeaderLen is the length of the header that opens a segment file of
// this encoding — where its first record starts.
func (e Encoding) HeaderLen() int64 {
	if e == EncBinary || e == EncBinaryV1 {
		return SegmentHeaderLen
	}
	return 0
}

// Binary segment format constants.
const (
	// SegmentVersion is the binary segment format version written into
	// the header's fourth byte.
	SegmentVersion = 2
	// segmentVersion1 is the superseded format, still decoded.
	segmentVersion1 = 1
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
// open with 'N' (the "NRS" header, whose fourth byte tells version 1
// from the current one), JSON segments with '{'. Empty data is
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
	default:
		return EncBinary
	}
}

// Record frame flag bits (the first body byte of a version-2 frame).
const (
	// framePrev: the frame carries Prev explicitly. Cleared when Prev is
	// the Hash of the frame just before it, which the decoder already
	// holds.
	framePrev = 1 << iota
	frameToken
	frameNote

	frameAtShift = 3 // two bits: the canon.TimeMode of At
	frameBits    = 5
)

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
// push — and the first frame of every run is explicit. Not safe for
// concurrent use.
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
	atMode := canon.ModeOfTime(rec.At)
	flags := byte(atMode) << frameAtShift
	if !elidePrev {
		flags |= framePrev
	}
	if rec.Token != nil {
		flags |= frameToken
	}
	if rec.Note != "" {
		flags |= frameNote
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
	if rec.Note != "" {
		dst = canon.AppendString(dst, rec.Note)
	}
	if rec.Token != nil {
		if dst, err = rec.Token.AppendBinary(dst, tokenTimeBase(rec.At, atMode)); err != nil {
			return nil, err
		}
	}
	return append(dst, rec.Hash[:]...), nil
}

// tokenTimeBase is what a frame's token writes IssuedAt relative to:
// the record's own time when that travels as nanoseconds.
func tokenTimeBase(at time.Time, mode canon.TimeMode) int64 {
	if mode == canon.TimeText {
		return 0
	}
	return at.UnixNano()
}

// decodeRecordBody decodes one version-2 record body; prev is the Hash
// of the frame before it, needed only when the frame elides its Prev.
// All variable-length data is copied, so decoded records never alias
// the input buffer (which may be an mmapped segment that is later
// unmapped).
func decodeRecordBody(body []byte, prev *sig.Digest) (*Record, error) {
	r := canon.NewBinReader(body)
	rec := new(Record)
	flags := r.Byte()
	if flags>>frameBits != 0 {
		r.Fail(canon.ErrBinary)
	}
	rec.Seq = r.Uvarint()
	switch {
	case flags&framePrev != 0:
		copy(rec.Prev[:], r.Raw(sig.DigestSize))
	case prev != nil:
		rec.Prev = *prev
	default:
		return nil, fmt.Errorf("store: %w: frame elides Prev but has no predecessor", canon.ErrBinary)
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
	if flags&frameNote != 0 {
		rec.Note = r.ValidString()
	}
	if flags&frameToken != 0 && r.Err() == nil {
		rec.Token = new(evidence.Token)
		rec.Token.DecodeBinary(&r, tokenTimeBase(rec.At, atMode))
	}
	copy(rec.Hash[:], r.Raw(sig.DigestSize))
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("store: decode binary record: %w", err)
	}
	return rec, nil
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

// DecodeRecordFrame decodes the stand-alone length-prefixed record
// frame at the start of data, returning the record and the frame's
// total length. A frame that runs past the end of data returns
// (nil, 0, nil): the caller decides whether a short tail is a torn
// write or truncation. A frame that elides its Prev is not stand-alone
// and is refused; runs of frames go through DecodeSegmentData.
func DecodeRecordFrame(data []byte) (*Record, int64, error) {
	return decodeFrame(data, EncBinary, nil)
}

// decodeFrame decodes one frame of a binary encoding; prev is the
// preceding frame's Hash when known.
func decodeFrame(data []byte, enc Encoding, prev *sig.Digest) (*Record, int64, error) {
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
	if enc == EncBinaryV1 {
		rec, err = decodeRecordBodyV1(body)
	} else {
		rec, err = decodeRecordBody(body, prev)
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
// array), which a frame that elides its Prev is completed with; nil for
// a segment's first record.
func DecodeRecordData(data []byte, enc Encoding, prev *sig.Digest) (*Record, error) {
	switch enc {
	case EncJSON:
		rec := new(Record)
		if err := canon.Unmarshal(bytes.TrimRight(data, "\r\n"), rec); err != nil {
			return nil, err
		}
		return rec, nil
	case EncBinary, EncBinaryV1:
		rec, frameLen, err := decodeFrame(data, enc, prev)
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
func DecodeSegmentData(data []byte, fn func(*Record, int64) error) (Encoding, int64, bool, error) {
	switch enc := DetectEncoding(data); enc {
	case EncUnknown:
		return EncUnknown, 0, false, nil
	case EncBinary, EncBinaryV1:
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
	if v := data[3]; v != SegmentVersion && v != segmentVersion1 {
		return 0, false, fmt.Errorf("%w %d", ErrSegmentVersion, v)
	}
	return scanFrames(data, SegmentHeaderLen, enc, fn)
}

// scanFrames walks the frames of data from offset start, handing each
// frame the hash of the one before it.
func scanFrames(data []byte, start int64, enc Encoding, fn func(*Record, int64) error) (int64, bool, error) {
	prefix := start
	var prev *sig.Digest
	for prefix < int64(len(data)) {
		rec, frameLen, err := decodeFrame(data[prefix:], enc, prev)
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
