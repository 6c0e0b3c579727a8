package protocol

import (
	"context"
	"strings"
	"testing"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// chainOf returns a chain of records, one per note, all carrying the
// same token.
func chainOf(tb testing.TB, notes ...string) []*store.Record {
	tb.Helper()
	at := time.Date(2004, 6, 1, 0, 0, 0, 0, time.UTC)
	iss := &evidence.Issuer{Party: "urn:org:alice", Signer: sig.NewEd25519FromSeed("k", [32]byte{1}), Clock: clock.NewManual(at)}
	tok, err := iss.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("payload")))
	if err != nil {
		tb.Fatal(err)
	}
	var recs []*store.Record
	var seq uint64
	var prev sig.Digest
	for _, note := range notes {
		rec, err := store.NextRecord(seq, prev, at, store.Generated, tok, note)
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, rec)
		seq, prev = rec.Seq, rec.Hash
	}
	return recs
}

// pushRecords hands fx's subscriber one sub-records push of recs under
// subID, as the publisher's feed service sends it.
func (fx *peerFixture) pushRecords(tb testing.TB, subID string, recs ...*store.Record) ([]byte, error) {
	tb.Helper()
	frames, err := store.AppendFrameRun(nil, recs)
	if err != nil {
		tb.Fatal(err)
	}
	msg := &Message{Protocol: SubFeedProtocol, Run: id.NewRun(), Step: 1, Kind: KindSubRecords, Attachment: frames}
	if err := msg.SetBody(&subRecordsPush{SubID: subID, First: recs[0].Seq, Count: len(recs)}); err != nil {
		tb.Fatal(err)
	}
	_, err = fx.feed.ProcessRequest(context.Background(), msg)
	return frames, err
}

// TestFeedPushesStayWithTheirPublisher: two subscriptions of one client
// receive pushes that agree on first record, count and frame size. Each
// feed must deliver its own publisher's record — a record one publisher
// pushed is never handed to another publisher's feed as verified.
func TestFeedPushesStayWithTheirPublisher(t *testing.T) {
	t.Parallel()
	fx := newPeerFixture(t)
	feedA, feedB := fx.watch("sub-A"), fx.watch("sub-B")
	recA := chainOf(t, "publisher-A")[0]
	recB := chainOf(t, "publisher-B")[0]

	framesB, err := fx.pushRecords(t, "sub-B", recB)
	if err != nil {
		t.Fatalf("push to sub-B: %v", err)
	}
	framesA, err := fx.pushRecords(t, "sub-A", recA)
	if err != nil {
		t.Fatalf("push to sub-A: %v", err)
	}
	if len(framesA) != len(framesB) {
		t.Fatalf("pushes differ in frame size (%d, %d); the test needs them equal", len(framesA), len(framesB))
	}
	for name, f := range map[string]*Feed{"publisher-A": feedA, "publisher-B": feedB} {
		ev := <-f.Events()
		if len(ev.Records) != 1 || ev.Records[0].Note != name {
			t.Fatalf("feed of %s delivered %+v", name, ev.Records[0])
		}
		if seq, hash := f.Position(); seq != 1 || hash != ev.Records[0].Hash {
			t.Fatalf("feed of %s at %d, want its own record 1", name, seq)
		}
	}
}

// TestFeedGapEndsFeed: pushes of one subscription arrive strictly in
// order, so a push starting past the feed's next record is a broken
// stream. The feed ends with an error naming the record it expected and
// keeps the verified position to resume from.
func TestFeedGapEndsFeed(t *testing.T) {
	t.Parallel()
	fx := newPeerFixture(t)
	f := fx.watch("sub-gap")
	recs := chainOf(t, "one", "two", "three")
	if _, err := fx.pushRecords(t, "sub-gap", recs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.pushRecords(t, "sub-gap", recs[2]); err == nil {
		t.Fatal("push past the next record accepted")
	}
	<-f.Done()
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), "expected 2") {
		t.Fatalf("feed ended with %v, want a gap error naming record 2", err)
	}
	if seq, hash := f.Position(); seq != 1 || hash != recs[0].Hash {
		t.Fatalf("feed position %d after the gap, want 1", seq)
	}
	// The ended subscription is forgotten: its later pushes are refused.
	if _, err := fx.pushRecords(t, "sub-gap", recs[1]); err == nil {
		t.Fatal("push for an ended subscription accepted")
	}
}
