package feed_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// sub opens a cursor and runs it on its own goroutine, as a publisher
// does, keeping the position its sink last accepted.
type sub struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu   sync.Mutex
	err  error
	seq  uint64
	hash sig.Digest
}

func subscribe(v *vault.Vault, cfg feed.Config) (*sub, error) {
	s := &sub{done: make(chan struct{}), seq: cfg.AfterSeq, hash: cfg.AfterHash}
	sink := cfg.Sink
	cfg.Sink = func(ev feed.Event) error {
		if err := sink(ev); err != nil {
			return err
		}
		if n := len(ev.Records); n > 0 {
			s.mu.Lock()
			s.seq, s.hash = ev.Records[n-1].Seq, ev.Records[n-1].Hash
			s.mu.Unlock()
		}
		return nil
	}
	cur, err := feed.Open(v, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() {
		defer close(s.done)
		err := cur.Run(ctx)
		if ctx.Err() != nil {
			err = nil // closed
		}
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
	}()
	return s, nil
}

// Close ends the subscription and waits for its cursor to stop.
func (s *sub) Close() {
	s.cancel()
	<-s.done
}

// Err reports why the subscription ended: nil while live or after Close.
func (s *sub) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Position is the chain position of the last record the sink accepted.
func (s *sub) Position() (uint64, sig.Digest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq, s.hash
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
	col := newCollector()
	sub, err := subscribe(v, feed.Config{Sink: col.sink})
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

	const appenders, perAppender, subscribers = 4, 50, 3
	var wg sync.WaitGroup
	var cols []*collector
	var subs []*sub
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
		sub, err := subscribe(v, feed.Config{Sink: col.sink})
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
	sub1, err := subscribe(v, feed.Config{Sink: col1.sink})
	if err != nil {
		t.Fatal(err)
	}
	first := col1.waitFor(t, 30)
	sub1.Close()
	seq, hash := sub1.Position()
	// More evidence lands while the subscriber is gone.
	appendN(31, 70)
	col2 := newCollector()
	sub2, err := subscribe(v, feed.Config{AfterSeq: seq, AfterHash: hash, Sink: col2.sink})
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
	if _, err := feed.Open(v, feed.Config{AfterSeq: 3, AfterHash: sig.Sum([]byte("forged")), Sink: func(feed.Event) error { return nil }}); !errors.Is(err, feed.ErrResumeMismatch) {
		t.Fatalf("forged hash: err = %v, want ErrResumeMismatch", err)
	}
	if _, err := feed.Open(v, feed.Config{AfterSeq: 99, Sink: func(feed.Event) error { return nil }}); !errors.Is(err, feed.ErrResumeMismatch) {
		t.Fatalf("unknown seq: err = %v, want ErrResumeMismatch", err)
	}
	if _, err := feed.Open(v, feed.Config{Sink: nil}); err == nil {
		t.Fatal("nil sink accepted")
	}
}

func TestFeedSealEventsInterleaved(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(10))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	col := newCollector()
	sub, err := subscribe(v, feed.Config{Seals: true, Sink: col.sink})
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

// TestFeedCancelEndsSubscription: cancelling a running cursor's context
// ends the subscription with the context's error, its vault hooks go
// with it, and the vault keeps working.
func TestFeedCancelEndsSubscription(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	col := newCollector()
	ctx, cancel := context.WithCancel(context.Background())
	ended := make(chan error, 1)
	cur, err := feed.Open(v, feed.Config{Sink: col.sink})
	if err != nil {
		t.Fatal(err)
	}
	go func() { ended <- cur.Run(ctx) }()
	run := id.NewRun()
	if _, err := v.Append(store.Generated, newToken(t, realm, run, 1), ""); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1)
	cancel()
	if err := <-ended; !errors.Is(err, context.Canceled) {
		t.Fatalf("after cancel: err = %v, want context.Canceled", err)
	}
	// The vault must keep working after the subscription detaches its hooks.
	if _, err := v.Append(store.Generated, newToken(t, realm, run, 2), ""); err != nil {
		t.Fatal(err)
	}
	if got := col.snapshot(); len(got) != 1 {
		t.Fatalf("a cancelled subscription delivered %v", got)
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
	var mu sync.Mutex
	var events [][]uint64
	ping := make(chan struct{}, 16)
	sub, err := subscribe(v, feed.Config{Sink: func(ev feed.Event) error {
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

// TestFeedSealsBetweenTheirRecords: every seal reaches the sink after the
// records through its LastSeq and before any later record, and only the
// seals made after the subscription opened are sent, while appenders,
// group appends and explicit seals race the subscriber.
func TestFeedSealsBetweenTheirRecords(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(7), vault.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	run := id.NewRun()
	for i := 1; i <= 10; i++ { // one seal before the subscription opens
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var last uint64
	var seals []uint64
	sub, err := subscribe(v, feed.Config{Seals: true, Sink: func(ev feed.Event) error {
		mu.Lock()
		defer mu.Unlock()
		if ev.Seal != nil {
			if ev.Seal.LastSeq != last {
				t.Errorf("seal of segment %d (through record %d) delivered after record %d", ev.Seal.Segment, ev.Seal.LastSeq, last)
			}
			seals = append(seals, ev.Seal.Segment)
			return nil
		}
		last = ev.Records[len(ev.Records)-1].Seq
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var wg sync.WaitGroup
	for a := 0; a < 3; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			run := id.NewRun()
			for i := 1; i <= 40; i++ {
				var err error
				switch {
				case a == 0 && i%9 == 0:
					err = v.SealNow()
				case a == 1:
					_, err = v.AppendGroup([]store.Entry{
						{Dir: store.Generated, Token: newToken(t, realm, run, 2*i)},
						{Dir: store.Generated, Token: newToken(t, realm, run, 2*i+1)},
					})
				default:
					_, err = v.Append(store.Generated, newToken(t, realm, run, i), "")
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	if err := v.SealNow(); err != nil {
		t.Fatal(err)
	}
	head, _ := v.LastPosition()
	manifest := v.Manifest()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		got, n := last, len(seals)
		mu.Unlock()
		if got == head && n == len(manifest)-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber at record %d with %d seals, vault at %d with %d seals after the first", got, n, head, len(manifest)-1)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, seg := range seals {
		if want := manifest[i+1].Segment; seg != want {
			t.Fatalf("seal %d names segment %d, want %d", i, seg, want)
		}
	}
}

// raceScale divides the stalled-subscriber test's sizes under the race
// detector, which multiplies the cost of its ten million verified
// deliveries about tenfold.
var raceScale = 1

// TestFeedStalledSubscribersLagWithoutEviction: a thousand subscriptions
// whose sinks block do not slow the commit path, do not grow the heap as
// appends continue, cost one goroutine each and are never evicted; once
// released, each catches up with exactly the chain.
func TestFeedStalledSubscribersLagWithoutEviction(t *testing.T) {
	subscribers, early, total := 1000/raceScale, 2000/raceScale, uint64(10000/raceScale)
	realm := testpki.MustRealm(org)
	// Small segments keep the vault's own memory flat: sealed records
	// leave RAM, so what the heap holds beyond them is the subscriptions'.
	v, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(early/2), vault.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	run := id.NewRun()
	toks := make([]*evidence.Token, 64)
	for i := range toks {
		toks[i] = newToken(t, realm, run, i+1)
	}
	appendTo := func(from, to int) {
		t.Helper()
		start := time.Now()
		for i := from; i <= to; i++ {
			if _, err := v.Append(store.Generated, toks[i%len(toks)], ""); err != nil {
				t.Fatal(err)
			}
		}
		d := time.Since(start)
		t.Logf("%d appends behind %d stalled subscriptions took %v", to-from+1, subscribers, d)
		if d > 30*time.Second {
			t.Fatalf("%d appends behind stalled subscribers took %v", to-from+1, d)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	release := make(chan struct{})
	type seen struct {
		mu   sync.Mutex
		next uint64 // the record expected next
		bad  string
	}
	before := runtime.NumGoroutine()
	subs := make([]*sub, subscribers)
	seens := make([]*seen, subscribers)
	for i := range subs {
		s := &seen{next: 1}
		seens[i] = s
		if subs[i], err = subscribe(v, feed.Config{Sink: func(ev feed.Event) error {
			<-release
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, r := range ev.Records {
				if r.Seq != s.next && s.bad == "" {
					s.bad = fmt.Sprintf("record %d where %d was due", r.Seq, s.next)
				}
				s.next = r.Seq + 1
			}
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if added := runtime.NumGoroutine() - before; added > subscribers+8 {
		t.Fatalf("%d subscriptions added %d goroutines", subscribers, added)
	}
	appendTo(1, early)
	atEarly := heap()
	appendTo(early+1, int(total))
	atTotal := heap()
	t.Logf("heap after GC: %d KiB at %d appends, %d KiB at %d", atEarly>>10, early, atTotal>>10, total)
	if atTotal > atEarly+2<<20 {
		t.Fatalf("heap grew from %d KiB to %d KiB while %d subscriptions stalled", atEarly>>10, atTotal>>10, subscribers)
	}
	for i, s := range subs {
		if s.Err() != nil {
			t.Fatalf("stalled subscription %d ended: %v", i, s.Err())
		}
	}

	close(release)
	deadline := time.Now().Add(2 * time.Minute)
	for i, s := range seens {
		for {
			s.mu.Lock()
			next, bad := s.next, s.bad
			s.mu.Unlock()
			if bad != "" {
				t.Fatalf("subscription %d: %s", i, bad)
			}
			if next == total+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("subscription %d stopped before record %d", i, next)
			}
			time.Sleep(time.Millisecond)
		}
		subs[i].Close()
		if err := subs[i].Err(); err != nil {
			t.Fatalf("subscription %d ended with %v", i, err)
		}
	}
}
