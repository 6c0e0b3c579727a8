package vault

import (
	"errors"
	"fmt"
	"io"
	"os"

	"nonrep/internal/store"
)

// SegmentSize is the space one segment takes — the evidence-space
// overhead of section 6, per segment file.
type SegmentSize struct {
	Segment uint64
	// FirstSeq is the sequence number of the segment's first record.
	FirstSeq uint64
	// Sealed is false for the unsealed tail, which has no index.
	Sealed bool
	// Format is the segment file's record encoding ("json", "binary-v1"
	// to "binary-v9", or "binary" for the current format, version 10).
	Format  string
	Records int
	// SegmentBytes is the size of the segment file's record data.
	SegmentBytes int64
	// FrameCount counts the records stored as follower frames — frames
	// that borrow their run, parties, service, digest or time from a plain
	// frame of their run before them in the file (in versions 4 to 6, the
	// one leading their write) — and those of them that borrow
	// their signature from the frame before them, and the plain frames
	// that take their parties, service, key id and time from a party
	// source (since version 8), with the bytes those take, says per frame
	// type what the frames take from the frame they lean on, counts how
	// the frames store their tokens' digests — written, lent, rebuilt as a
	// receipt of a response origin or from the note (since version 10) —
	// and breaks the frames down by token kind, notes apart. The rest of Records are
	// plain frames (or JSON lines) in PlainBytes, which with the file's
	// header make up SegmentBytes.
	store.FrameCount
	PlainBytes int64
	// IndexFormat is "binary" (version 4: one hash pinned and one offset
	// stored per window of records counted from the vault's sequence
	// numbers), "binary-v3" (one hash per window counted from the
	// segment's first record, one offset per record), "binary-v2" (one
	// hash and one offset per record), "json" (a legacy index) or "" when
	// there is no index file; IndexBytes is its size.
	IndexFormat string
	IndexBytes  int64
	// PinBytes and OffsetBytes are what a binary index's pinned chained
	// hashes and its offsets take. Both are 0 for a legacy JSON index,
	// whose hex pins and offsets are not measured, and for a segment
	// without an index.
	PinBytes, OffsetBytes int64
}

// Sizes reports, for every sealed segment and the tail, the format it
// is stored in, the bytes its records and its index take on disk, how
// many of its frames share with a leader or a mate, and what each token
// kind and its notes take. A segment of which fewer records decode than
// it holds — a damaged file — is an error, not a smaller count; bytes
// past the records the vault wrote to its tail are not looked at.
func (v *Vault) Sizes() ([]SegmentSize, error) {
	v.mu.Lock()
	sealed := make([]*segmentIndex, len(v.sealed))
	copy(sealed, v.sealed)
	tail := SegmentSize{
		Segment:      v.active.number,
		Records:      len(v.active.records),
		SegmentBytes: v.active.size,
	}
	v.mu.Unlock()

	// frames fills in what the segment file itself says: its format, its
	// size where the caller does not know better, its followers and kinds.
	frames := func(s *SegmentSize) error {
		data, release, err := mapFile(segPath(v.dir, s.Segment))
		if os.IsNotExist(err) { // a pruned replica segment has no data file
			s.Format = store.EncUnknown.String()
			return nil
		}
		if err != nil {
			return err
		}
		defer release()
		if s.Sealed {
			s.SegmentBytes = int64(len(data))
		} else if s.SegmentBytes < int64(len(data)) {
			data = data[:s.SegmentBytes] // a zero tail past the records the vault wrote
		}
		enc := store.DetectEncoding(data)
		s.Format = enc.String()
		count, err := store.CountFrames(data)
		if count.Frames < s.Records {
			if err == nil {
				err = errors.New("torn frame")
			}
			return fmt.Errorf("vault: segment %d: %d of %d records decode: %w", s.Segment, count.Frames, s.Records, err)
		}
		s.FrameCount = count
		s.PlainBytes = s.SegmentBytes - enc.HeaderLen() - s.FollowerBytes
		return nil
	}
	out := make([]SegmentSize, 0, len(sealed)+1)
	for _, idx := range sealed {
		s := SegmentSize{Segment: idx.Entry.Segment, Sealed: true, Records: idx.count}
		if err := frames(&s); err != nil {
			return nil, err
		}
		head, size, err := fileHead(idxPath(v.dir, s.Segment))
		switch {
		case os.IsNotExist(err): // a read-only vault serves a lost index from memory
		case err != nil:
			return nil, err
		case len(head) > 0 && head[0] == '{':
			s.IndexFormat, s.IndexBytes = "json", size
		case len(head) > 3:
			s.IndexFormat, s.IndexBytes = fmt.Sprintf("binary-v%d", head[3]), size
			if string(head) == indexLayouts[indexFormatAligned].magic {
				s.IndexFormat = "binary"
			}
			s.PinBytes, s.OffsetBytes = int64(len(idx.hashes)), int64(len(idx.offsets))
		}
		out = append(out, s)
	}
	if tail.Records > 0 {
		if err := frames(&tail); err != nil {
			return nil, err
		}
		out = append(out, tail)
	}
	return out, nil
}

// fileHead returns a file's first bytes (enough to tell its format) and
// its size.
func fileHead(path string) ([]byte, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("vault: stat %s: %w", path, err)
	}
	head := make([]byte, store.SegmentHeaderLen)
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, 0, fmt.Errorf("vault: read %s: %w", path, err)
	}
	return head[:n], fi.Size(), nil
}
