package store

import "nonrep/internal/canon"

// AppendFollower appends rec's frame as a follower of lead, whose frame
// starts back bytes before this one, borrowing its signature from mate
// when mate is not nil — whatever lead and mate hold: the hostile
// followers a RecordEncoder never writes.
func AppendFollower(dst []byte, rec, lead *Record, back uint64, mate *Record) ([]byte, error) {
	body, err := appendRecordBody(nil, rec, true, lead, back, mate)
	if err != nil {
		return nil, err
	}
	return append(canon.AppendUvarint(dst, uint64(len(body))), body...), nil
}
