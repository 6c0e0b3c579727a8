package store

import (
	"nonrep/internal/canon"
	"nonrep/internal/sig"
)

// AppendFollower appends rec's frame as a follower of lead, whose frame
// starts back bytes before this one, borrowing its signature from mate
// when mate is not nil — whatever lead and mate hold: the hostile
// followers a RecordEncoder never writes.
func AppendFollower(dst []byte, rec, lead *Record, back uint64, mate *Record) ([]byte, error) {
	return AppendReceipt(dst, rec, lead, back, mate, nil, 0)
}

// AppendReceipt is AppendFollower for a frame that may also rebuild its
// digest as the receipt of resp, whose frame starts respBack bytes before
// this one — whatever resp holds, where it starts and whom it follows.
func AppendReceipt(dst []byte, rec, lead *Record, back uint64, mate, resp *Record, respBack uint64) ([]byte, error) {
	body, _, err := appendRecordBody(nil, rec, true, leaning{lead: lead, back: back, mate: mate, resp: resp, respBack: respBack})
	if err != nil {
		return nil, err
	}
	return append(canon.AppendUvarint(dst, uint64(len(body))), body...), nil
}

// AppendPartyBorrower appends rec's frame as a plain frame that takes its
// parties from source, whose frame starts back bytes before this one —
// whatever source holds: the hostile party references a RecordEncoder
// never writes. The frame elides its Prev and seq.
func AppendPartyBorrower(dst []byte, rec, source *Record, back uint64) ([]byte, error) {
	body, _, err := appendRecordBody(nil, rec, true, leaning{source: source, back: back})
	if err != nil {
		return nil, err
	}
	return append(canon.AppendUvarint(dst, uint64(len(body))), body...), nil
}

// DecodeRecordFrame decodes the stand-alone length-prefixed record frame
// at the start of data, returning the record and the frame's total
// length: (nil, 0, nil) when the frame runs past the end of data, an error
// when it elides its Prev or follows a leader.
func DecodeRecordFrame(data []byte) (*Record, int64, error) {
	rec, n, _, err := decodeFrame(data, EncBinary, nil, frameLenders{}, nil)
	return rec, n, err
}

// DecodeRecordData decodes the one record that occupies data[start:end]:
// SlotReader.Decode on a reader of its own.
func DecodeRecordData(data []byte, start, end int64, enc Encoding, seq uint64, prev *sig.Digest, prevStart int64) (*Record, error) {
	return NewSlotReader(data, enc).Decode(start, end, seq, prev, prevStart)
}

// AppendRecordJSON is the record's direct canonical-JSON appender.
func AppendRecordJSON(dst []byte, rec *Record) ([]byte, error) {
	return rec.appendJSON(dst, rec.Hash)
}

// ChainHash is the chained hash the write and read paths derive.
func ChainHash(rec *Record) (sig.Digest, error) {
	h, _, err := chainHash(rec, nil)
	return h, err
}
