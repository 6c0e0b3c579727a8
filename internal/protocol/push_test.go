package protocol

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"nonrep/internal/store"
)

// TestDecodeRecordPush: feed and geo pushes share one decoder. It takes
// the header-prefixed frame runs this build sends and the bare
// version-1 frame runs a peer on an older build sends (the store
// package's checked-in version-1 segment, header stripped), and refuses
// a batch that is truncated, misannounced or not chain-continuous.
func TestDecodeRecordPush(t *testing.T) {
	t.Parallel()
	v1, err := os.ReadFile(filepath.Join("..", "store", "testdata", "v1", "golden-v1.seg"))
	if err != nil {
		t.Fatal(err)
	}
	legacy := v1[store.SegmentHeaderLen:]
	var recs []*store.Record
	if err := store.DecodeFrameRun(legacy, func(rec *store.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	current, err := store.AppendFrameRun(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	// A push is one write, and the fixture's records one run: all but the
	// first travel as followers — and the last, the only one naming
	// recipients, which its run's leader names none of, so it leads anew.
	if count, err := store.CountFrames(current); err != nil || count.Followers != len(recs)-2 {
		t.Fatalf("push of %d records of one run carries %d followers, err %v", len(recs), count.Followers, err)
	}
	for name, frames := range map[string][]byte{"bare version-1 frames": legacy, "current frame run": current} {
		got, err := decodeRecordPush("test push", recs[0].Seq, len(recs), frames)
		if err != nil || len(got) != len(recs) {
			t.Fatalf("%s: %d records, err %v", name, len(got), err)
		}
		for i := range got {
			if got[i].Hash != recs[i].Hash || got[i].Prev != recs[i].Prev {
				t.Fatalf("%s: record %d drifted", name, i)
			}
		}
	}

	if _, err := decodeRecordPush("test push", recs[0].Seq, len(recs), current[:len(current)-9]); err == nil {
		t.Fatal("truncated push decoded")
	}
	if _, err := decodeRecordPush("test push", recs[0].Seq+1, len(recs), current); err == nil {
		t.Fatal("push announcing the wrong first sequence decoded")
	}
	if _, err := decodeRecordPush("test push", recs[0].Seq, len(recs)-1, current); err == nil {
		t.Fatal("push announcing the wrong count decoded")
	}
	if _, err := decodeRecordPush("test push", 0, 0, nil); err == nil {
		t.Fatal("empty push decoded")
	}
	// A run with a record missing from the middle is well-formed frames
	// but not a chain.
	gapped, err := store.AppendFrameRun(nil, append(append([]*store.Record{}, recs[:2]...), recs[3:]...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRecordPush("test push", recs[0].Seq, len(recs)-1, gapped); !errors.Is(err, store.ErrChainBroken) {
		t.Fatalf("gapped push = %v, want ErrChainBroken", err)
	}
}
