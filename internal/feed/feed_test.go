package feed_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nonrep/internal/evidence"
	"nonrep/internal/feed"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

const org = id.Party("urn:org:feed")

func newToken(t testing.TB, realm *testpki.Realm, run id.Run, step int) *evidence.Token {
	t.Helper()
	tok, err := realm.Party(org).Issuer.Issue(evidence.KindNRO, run, step, sig.Sum([]byte(fmt.Sprintf("content-%d", step))))
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// collector is a sink that accumulates records and signals arrival.
type collector struct {
	mu    sync.Mutex
	seqs  []uint64
	seals []uint64
	ping  chan struct{}
}

func newCollector() *collector { return &collector{ping: make(chan struct{}, 1)} }

func (c *collector) sink(ev feed.Event) error {
	c.mu.Lock()
	if ev.Seal != nil {
		c.seals = append(c.seals, ev.Seal.Segment)
	}
	for _, r := range ev.Records {
		c.seqs = append(c.seqs, r.Seq)
	}
	c.mu.Unlock()
	select {
	case c.ping <- struct{}{}:
	default:
	}
	return nil
}

func (c *collector) snapshot() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]uint64(nil), c.seqs...)
}

// waitFor blocks until the collector holds at least n records.
func (c *collector) waitFor(t testing.TB, n int) []uint64 {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		got := c.snapshot()
		if len(got) >= n {
			return got
		}
		select {
		case <-c.ping:
		case <-deadline:
			t.Fatalf("timed out waiting for %d records, have %d", n, len(c.snapshot()))
		}
	}
}

func assertContiguous(t testing.TB, seqs []uint64, from, to uint64) {
	t.Helper()
	if uint64(len(seqs)) != to-from+1 {
		t.Fatalf("stream has %d records, want %d..%d", len(seqs), from, to)
	}
	for i, seq := range seqs {
		if seq != from+uint64(i) {
			t.Fatalf("stream position %d has seq %d, want %d (gap or duplicate)", i, seq, from+uint64(i))
		}
	}
}

func TestFeedBackfillThenLive(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	run := id.NewRun()
	for i := 1; i <= 40; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}
	h := feed.NewHub(v, nil)
	defer h.Close()
	col := newCollector()
	sub, err := h.Subscribe(feed.Config{Sink: col.sink})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 41; i <= 80; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}
	seqs := col.waitFor(t, 80)
	assertContiguous(t, seqs, 1, 80)
	seq, hash := sub.Position()
	wantSeq, wantHash := v.LastPosition()
	if seq != wantSeq || hash != wantHash {
		t.Fatalf("subscriber position (%d) diverges from vault (%d)", seq, wantSeq)
	}
}

// TestFeedContinuityUnderConcurrentAppends: several appenders race the
// subscription start and each other; every subscriber still sees exactly
// the chain, no gap, no duplicate, no reorder.
func TestFeedContinuityUnderConcurrentAppends(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	h := feed.NewHub(v, nil)
	defer h.Close()

	const appenders, perAppender, subscribers = 4, 50, 3
	var wg sync.WaitGroup
	var cols []*collector
	var subs []*feed.Sub
	start := make(chan struct{})
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			<-start
			run := id.NewRun()
			for i := 1; i <= perAppender; i++ {
				if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	for s := 0; s < subscribers; s++ {
		col := newCollector()
		sub, err := h.Subscribe(feed.Config{Sink: col.sink})
		if err != nil {
			t.Fatal(err)
		}
		cols, subs = append(cols, col), append(subs, sub)
	}
	close(start)
	wg.Wait()
	total := uint64(appenders * perAppender)
	for i, col := range cols {
		seqs := col.waitFor(t, int(total))
		assertContiguous(t, seqs, 1, total)
		subs[i].Close()
		if err := subs[i].Err(); err != nil {
			t.Fatalf("subscriber %d ended with %v", i, err)
		}
	}
}

// TestFeedReconnectResumesMidStream: a subscriber killed mid-stream
// resumes from its last verified position and the concatenated streams
// are exactly the chain.
func TestFeedReconnectResumesMidStream(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	h := feed.NewHub(v, nil)
	defer h.Close()
	run := id.NewRun()
	appendN := func(from, to int) {
		for i := from; i <= to; i++ {
			if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(1, 30)
	col1 := newCollector()
	sub1, err := h.Subscribe(feed.Config{Sink: col1.sink})
	if err != nil {
		t.Fatal(err)
	}
	first := col1.waitFor(t, 30)
	sub1.Close()
	seq, hash := sub1.Position()
	// More evidence lands while the subscriber is gone.
	appendN(31, 70)
	col2 := newCollector()
	sub2, err := h.Subscribe(feed.Config{AfterSeq: seq, AfterHash: hash, Sink: col2.sink})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	second := col2.waitFor(t, 70-int(seq))
	assertContiguous(t, append(first, second...), 1, 70)
}

func TestFeedResumeMismatchRejected(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	run := id.NewRun()
	for i := 1; i <= 5; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}
	h := feed.NewHub(v, nil)
	defer h.Close()
	if _, err := h.Subscribe(feed.Config{AfterSeq: 3, AfterHash: sig.Sum([]byte("forged")), Sink: func(feed.Event) error { return nil }}); !errors.Is(err, feed.ErrResumeMismatch) {
		t.Fatalf("forged hash: err = %v, want ErrResumeMismatch", err)
	}
	if _, err := h.Subscribe(feed.Config{AfterSeq: 99, Sink: func(feed.Event) error { return nil }}); !errors.Is(err, feed.ErrResumeMismatch) {
		t.Fatalf("unknown seq: err = %v, want ErrResumeMismatch", err)
	}
	if _, err := h.Subscribe(feed.Config{Sink: nil}); err == nil {
		t.Fatal("nil sink accepted")
	}
}

// TestFeedSlowConsumerEvictedWithoutBlockingCommit: a sink that never
// returns must not stall the vault's commit path — the subscriber is
// evicted, appends keep completing promptly.
func TestFeedSlowConsumerEvictedWithoutBlockingCommit(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	h := feed.NewHub(v, nil)
	defer h.Close()
	release := make(chan struct{})
	stuck := func(feed.Event) error { <-release; return nil }
	sub, err := h.Subscribe(feed.Config{Outbox: 1, Sink: stuck})
	if err != nil {
		t.Fatal(err)
	}
	run := id.NewRun()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 50; i++ {
			if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("appends blocked behind a stuck subscriber")
	}
	if err := sub.Err(); !errors.Is(err, feed.ErrSlowConsumer) {
		t.Fatalf("stuck subscriber err = %v, want ErrSlowConsumer", err)
	}
	if h.Subscribers() != 0 {
		t.Fatalf("evicted subscriber still registered: %d", h.Subscribers())
	}
	close(release)
	<-sub.Done()
}

func TestFeedSealEventsInterleaved(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(10))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	h := feed.NewHub(v, nil)
	defer h.Close()
	col := newCollector()
	sub, err := h.Subscribe(feed.Config{Seals: true, Sink: col.sink})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	run := id.NewRun()
	for i := 1; i <= 25; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}
	assertContiguous(t, col.waitFor(t, 25), 1, 25)
	deadline := time.After(10 * time.Second)
	for {
		col.mu.Lock()
		n := len(col.seals)
		col.mu.Unlock()
		if n >= 2 {
			break
		}
		select {
		case <-col.ping:
		case <-deadline:
			t.Fatalf("saw %d seal events, want 2", n)
		}
	}
}

func TestFeedHubCloseEvictsWithErrClosed(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	h := feed.NewHub(v, nil)
	col := newCollector()
	sub, err := h.Subscribe(feed.Config{Sink: col.sink})
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	<-sub.Done()
	if err := sub.Err(); !errors.Is(err, feed.ErrClosed) {
		t.Fatalf("after hub close: err = %v, want ErrClosed", err)
	}
	if _, err := h.Subscribe(feed.Config{Sink: col.sink}); !errors.Is(err, feed.ErrClosed) {
		t.Fatalf("subscribe on closed hub: err = %v, want ErrClosed", err)
	}
	// The vault must keep working after the hub detaches its hooks.
	run := id.NewRun()
	if _, err := v.Append(store.Generated, newToken(t, realm, run, 1), ""); err != nil {
		t.Fatal(err)
	}
}

// TestFeedDeliversGroupAsOneEvent: a group append is one commit, so a
// live subscriber is handed its records in one event (coalescing may
// only ever merge commits, never split one).
func TestFeedDeliversGroupAsOneEvent(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	h := feed.NewHub(v, nil)
	defer h.Close()
	var mu sync.Mutex
	var events [][]uint64
	ping := make(chan struct{}, 16)
	sub, err := h.Subscribe(feed.Config{Sink: func(ev feed.Event) error {
		var seqs []uint64
		for _, r := range ev.Records {
			seqs = append(seqs, r.Seq)
		}
		mu.Lock()
		events = append(events, seqs)
		mu.Unlock()
		ping <- struct{}{}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	run := id.NewRun()
	group := make([]store.Entry, 3)
	for i := range group {
		group[i] = store.Entry{Dir: store.Generated, Token: newToken(t, realm, run, i+1)}
	}
	if _, err := v.AppendGroup(group); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ping:
	case <-time.After(10 * time.Second):
		t.Fatal("no event delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 || len(events[0]) != 3 || events[0][0] != 1 || events[0][2] != 3 {
		t.Fatalf("events = %v, want one event carrying records 1..3", events)
	}
}
