package vault

import (
	"fmt"
	"io"
	"os"

	"nonrep/internal/store"
)

// SegmentSize is the space one segment takes — the evidence-space
// overhead of section 6, per segment file.
type SegmentSize struct {
	Segment uint64
	// Sealed is false for the unsealed tail, which has no index.
	Sealed bool
	// Format is the segment file's record encoding ("json", "binary-v1"
	// to "binary-v4", or "binary" for the current format).
	Format  string
	Records int
	// SegmentBytes is the size of the segment file's record data.
	SegmentBytes int64
	// FrameCount counts the records stored as follower frames — frames
	// that borrow their run, parties, service, digest or time from the
	// plain frame leading their write — with the bytes those take, and
	// breaks the frames down by token kind, notes apart. The rest of
	// Records are plain frames (or JSON lines) in PlainBytes, which with
	// the file's header make up SegmentBytes.
	store.FrameCount
	PlainBytes int64
	// IndexFormat is "binary", "json" (a legacy index) or "" when there
	// is no index file; IndexBytes is its size.
	IndexFormat string
	IndexBytes  int64
}

// Sizes reports, for every sealed segment and the tail, the format it
// is stored in, the bytes its records and its index take on disk, how
// many of its frames share with a leader, and what each token kind and
// its notes take.
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
		s.FrameCount = store.CountFrames(data)
		s.PlainBytes = s.SegmentBytes - enc.HeaderLen() - s.FollowerBytes
		return nil
	}
	out := make([]SegmentSize, 0, len(sealed)+1)
	for _, idx := range sealed {
		s := SegmentSize{Segment: idx.Entry.Segment, Sealed: true, Records: idx.count}
		if err := frames(&s); err != nil {
			return nil, err
		}
		if head, size, err := fileHead(idxPath(v.dir, s.Segment)); err == nil && len(head) > 0 {
			s.IndexFormat, s.IndexBytes = "binary", size
			if head[0] == '{' {
				s.IndexFormat = "json"
			}
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
