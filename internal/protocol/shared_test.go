package protocol_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/transport"
)

// sharedFixture is subFixture with one dedicated feed, drained, at the
// publisher's head after n records.
func sharedFixture(t *testing.T, n int) (*subFixture, id.Run, *protocol.Feed, *drain) {
	t.Helper()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newSubFixture(t, network)
	run := id.NewRun()
	f.fill(t, run, 1, n)
	feed, err := f.client.Subscribe(context.Background(), alice, protocol.WatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(feed.Close)
	d := newDrain(feed)
	d.waitFor(t, n+1) // n records + bob's sub-open evidence
	return f, run, feed, d
}

func (f *subFixture) share(t *testing.T, buffer int) *protocol.Feed {
	t.Helper()
	feed, err := f.client.Subscribe(context.Background(), alice, protocol.WatchBuffer(protocol.WatchConfig{Shared: true}, buffer))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(feed.Close)
	return feed
}

func waitSubscribers(t *testing.T, svc *protocol.SubService, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for svc.Subscribers() != want {
		if time.Now().After(deadline) {
			t.Fatalf("publisher holds %d subscriptions, want %d", svc.Subscribers(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSharedWatchJoinsDedicated: a Shared watch joins the live dedicated
// subscription at its current verified position — the publisher still
// serves one wire subscription — and from there receives exactly what
// the dedicated feed receives.
func TestSharedWatchJoinsDedicated(t *testing.T) {
	t.Parallel()
	f, run, dedicated, _ := sharedFixture(t, 10)
	shared := f.share(t, 0)
	seq, hash := shared.Position()
	if wantSeq, wantHash := dedicated.Position(); seq != wantSeq || hash != wantHash {
		t.Fatalf("joiner starts at %d, dedicated feed is at %d", seq, wantSeq)
	}
	if f.svcA.Subscribers() != 1 {
		t.Fatalf("publisher serves %d subscriptions for a dedicated and a Shared watch, want 1", f.svcA.Subscribers())
	}
	d := newDrain(shared)
	f.fill(t, run, 11, 20)
	assertChain(t, d.waitFor(t, 10), seq+1, seq+10)
	headSeq, headHash := f.vA.LastPosition()
	if s, h := shared.Position(); s != headSeq || h != headHash {
		t.Fatalf("joiner at %d, vault head is %d", s, headSeq)
	}
}

// TestSharedMemberOverflowFailsAlone: a member that stops draining fails
// with ErrFeedOverflow; the other member and the wire subscription carry
// on.
func TestSharedMemberOverflowFailsAlone(t *testing.T) {
	t.Parallel()
	f, run, dedicated, d := sharedFixture(t, 1)
	stuck := f.share(t, 1)
	for i := 2; i <= 5; i++ {
		f.fill(t, run, i, i)
		d.waitFor(t, i+1)
	}
	<-stuck.Done()
	if err := stuck.Err(); !errors.Is(err, protocol.ErrFeedOverflow) {
		t.Fatalf("undrained member ended with %v, want ErrFeedOverflow", err)
	}
	f.fill(t, run, 6, 8)
	assertChain(t, d.waitFor(t, 9), 1, 9)
	if err := dedicated.Err(); err != nil {
		t.Fatalf("drained member ended: %v", err)
	}
	if f.svcA.Subscribers() != 1 {
		t.Fatalf("publisher serves %d subscriptions, want 1", f.svcA.Subscribers())
	}
}

// TestSharedLastMemberCloses: the wire subscription outlives the feed
// that opened it and closes with its last member.
func TestSharedLastMemberCloses(t *testing.T) {
	t.Parallel()
	f, run, dedicated, _ := sharedFixture(t, 3)
	shared := f.share(t, 0)
	d := newDrain(shared)
	dedicated.Close()
	f.fill(t, run, 4, 6)
	d.waitFor(t, 3)
	if f.svcA.Subscribers() != 1 {
		t.Fatalf("publisher serves %d subscriptions with one member left, want 1", f.svcA.Subscribers())
	}
	shared.Close()
	waitSubscribers(t, f.svcA, 0)
	if err := shared.Err(); err != nil {
		t.Fatalf("closed member ended with %v", err)
	}
}

// TestSharedResumeIsDedicated: Resume of a shared feed opens its own wire
// subscription from the member's verified position; the member's records
// and the resumed feed's are the exact chain.
func TestSharedResumeIsDedicated(t *testing.T) {
	t.Parallel()
	f, run, _, _ := sharedFixture(t, 5)
	shared := f.share(t, 0)
	from, _ := shared.Position()
	d := newDrain(shared)
	f.fill(t, run, 6, 10)
	d.waitFor(t, 5)
	shared.Close()
	<-d.done
	first := d.snapshot()

	f.fill(t, run, 11, 15)
	resumed, err := shared.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	waitSubscribers(t, f.svcA, 2)
	// The head holds the resume's own sub-open record too.
	head, _ := f.vA.LastPosition()
	seq, _ := shared.Position()
	second := newDrain(resumed).waitFor(t, int(head-seq))
	assertChain(t, append(first, second...), from+1, head)
}
