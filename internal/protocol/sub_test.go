package protocol_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

// subFixture is a publisher (alice, vault-backed, serving subscriptions)
// and a subscriber (bob) on one network.
type subFixture struct {
	realm  *testpki.Realm
	dir    *protocol.Directory
	coA    *protocol.Coordinator
	coB    *protocol.Coordinator
	vA     *vault.Vault
	svcA   *protocol.SubService
	client *protocol.SubClient // bob's
}

func newSubFixture(t *testing.T, network transport.Network, opts ...protocol.SubOption) *subFixture {
	t.Helper()
	realm := testpki.MustRealm(alice, bob)
	dir := protocol.NewDirectory()
	newCo := func(p id.Party, log store.Log) *protocol.Coordinator {
		svc := &protocol.Services{
			Party:     p,
			Issuer:    realm.Party(p).Issuer,
			Verifier:  realm.Verifier(),
			Log:       log,
			States:    store.NewMemStateStore(),
			Clock:     realm.Clock,
			Directory: dir,
		}
		co, err := protocol.New(network, string(p), svc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = co.Close() })
		return co
	}
	vA, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = vA.Close() })
	f := &subFixture{realm: realm, dir: dir, vA: vA}
	f.coA = newCo(alice, vA)
	f.coB = newCo(bob, testpki.Log(t, realm.Clock))
	f.svcA = protocol.NewSubService(f.coA, vA, opts...)
	f.client = protocol.NewSubClient(f.coB)
	return f
}

// fill appends n records of one run to the publisher's vault.
func (f *subFixture) fill(t *testing.T, run id.Run, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		tok, err := f.realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, i, sig.Sum([]byte{byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.vA.Append(store.Generated, tok, ""); err != nil {
			t.Fatal(err)
		}
	}
}

// drain consumes feed events on a goroutine, accumulating record seqs
// and seal entries.
type drain struct {
	mu    sync.Mutex
	seqs  []uint64
	seals []*protocol.FeedEvent
	ping  chan struct{}
	done  chan struct{}
}

func newDrain(f *protocol.Feed) *drain {
	d := &drain{ping: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		for ev := range f.Events() {
			d.mu.Lock()
			if ev.Seal != nil {
				e := ev
				d.seals = append(d.seals, &e)
			}
			for _, r := range ev.Records {
				d.seqs = append(d.seqs, r.Seq)
			}
			d.mu.Unlock()
			select {
			case d.ping <- struct{}{}:
			default:
			}
		}
	}()
	return d
}

func (d *drain) snapshot() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]uint64(nil), d.seqs...)
}

func (d *drain) waitFor(t testing.TB, n int) []uint64 {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		got := d.snapshot()
		if len(got) >= n {
			return got
		}
		select {
		case <-d.ping:
		case <-d.done:
			if got := d.snapshot(); len(got) >= n {
				return got
			}
			t.Fatalf("feed ended with %d records, want %d", len(d.snapshot()), n)
		case <-deadline:
			t.Fatalf("timed out waiting for %d records, have %d", n, len(d.snapshot()))
		}
	}
}

func assertChain(t testing.TB, seqs []uint64, from, to uint64) {
	t.Helper()
	if uint64(len(seqs)) != to-from+1 {
		t.Fatalf("feed carried %d records, want %d..%d", len(seqs), from, to)
	}
	for i, seq := range seqs {
		if seq != from+uint64(i) {
			t.Fatalf("feed position %d holds seq %d, want %d (gap or duplicate)", i, seq, from+uint64(i))
		}
	}
}

// TestSubLiveFeedEndToEnd: a token-authorized subscription backfills the
// existing chain and then receives every subsequent commit live, chain-
// verified; the sub-open token lands in the publisher's vault as
// received evidence.
func TestSubLiveFeedEndToEnd(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newSubFixture(t, network)
	run := id.NewRun()
	f.fill(t, run, 1, 10)

	feed, err := f.client.Subscribe(context.Background(), alice, protocol.WatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	d := newDrain(feed)
	f.fill(t, run, 11, 30)
	// 30 evidence records + 1 sub-open authorization record.
	seqs := d.waitFor(t, 31)
	assertChain(t, seqs, 1, 31)
	seq, hash := feed.Position()
	wantSeq, wantHash := f.vA.LastPosition()
	if seq != wantSeq || hash != wantHash {
		t.Fatalf("feed position %d diverges from vault head %d", seq, wantSeq)
	}
	// The authorization is adjudicable: a sub-open token from bob is in
	// alice's vault.
	recs, err := f.vA.QueryAll(vault.Query{Kind: evidence.KindSubOpen})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Token.Issuer != bob {
		t.Fatalf("sub-open evidence: %d records (want 1 issued by %s)", len(recs), bob)
	}
	if f.svcA.Subscribers() != 1 {
		t.Fatalf("publisher sees %d subscribers, want 1", f.svcA.Subscribers())
	}
}

// TestSubOpenRefusesSegments: a sub-open asking for sealed-segment
// packages, as subscribers built when seals could carry them send it, is
// refused by name — by a publisher that verifies the claim and by one
// that takes anonymous subscribers alike — before any evidence is
// journaled or any subscription opened.
func TestSubOpenRefusesSegments(t *testing.T) {
	t.Parallel()
	for name, opts := range map[string][]protocol.SubOption{
		"verified":  nil,
		"anonymous": {protocol.WithAnonymousSubscribe()},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			network := transport.NewInprocNetwork()
			t.Cleanup(func() { _ = network.Close() })
			f := newSubFixture(t, network, opts...)
			err := protocol.SubscribeSegments(context.Background(), f.client, string(alice))
			if err == nil || !strings.Contains(err.Error(), protocol.ErrSubSegmentsGone.Error()) {
				t.Fatalf("sub-open with segments: err = %v, want %q", err, protocol.ErrSubSegmentsGone)
			}
			if n := f.vA.Len(); n != 0 {
				t.Fatalf("refused sub-open journaled %d records", n)
			}
			if n := f.svcA.Subscribers(); n != 0 {
				t.Fatalf("refused sub-open left %d subscribers", n)
			}
		})
	}
}

// TestSubResumeAfterKill: a subscriber killed mid-stream reopens from
// its last verified position; the concatenation of both feeds is the
// exact chain — no gap, no duplicate.
func TestSubResumeAfterKill(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newSubFixture(t, network)
	run := id.NewRun()
	f.fill(t, run, 1, 20)
	feed1, err := f.client.Subscribe(context.Background(), alice, protocol.WatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d1 := newDrain(feed1)
	// 20 records + bob's sub-open evidence.
	first := d1.waitFor(t, 21)
	feed1.Close()
	<-d1.done
	first = d1.snapshot()

	// Evidence lands while the subscriber is down.
	f.fill(t, run, 21, 50)
	feed2, err := feed1.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer feed2.Close()
	d2 := newDrain(feed2)
	// Everything after feed1's verified position, plus feed2's own
	// sub-open record.
	seq, _ := feed1.Position()
	second := d2.waitFor(t, int(52-seq))
	assertChain(t, append(first, second...), 1, 52)
}

// TestSubUnauthorizedRejected: a strict publisher refuses a tokenless
// sub-open; one allowing anonymous subscriptions accepts it.
func TestSubUnauthorizedRejected(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	realm := testpki.MustRealm(alice, bob)
	dir := protocol.NewDirectory()
	vA, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = vA.Close() })
	svcA := &protocol.Services{
		Party: alice, Issuer: realm.Party(alice).Issuer, Verifier: realm.Verifier(),
		Log: vA, States: store.NewMemStateStore(), Clock: realm.Clock, Directory: dir,
	}
	coA, err := protocol.New(network, string(alice), svcA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coA.Close() })
	protocol.NewSubService(coA, vA)
	// Bob has no issuer: his sub-opens are anonymous.
	svcB := &protocol.Services{
		Party: bob, Verifier: realm.Verifier(),
		Log: testpki.Log(t, realm.Clock), States: store.NewMemStateStore(),
		Clock: realm.Clock, Directory: dir,
	}
	coB, err := protocol.New(network, string(bob), svcB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coB.Close() })
	client := protocol.NewSubClient(coB)
	if _, err := client.Subscribe(context.Background(), alice, protocol.WatchConfig{}); err == nil || !strings.Contains(err.Error(), "not authorized") {
		t.Fatalf("anonymous sub-open against strict publisher: err = %v, want authorization refusal", err)
	}

	// A publisher that opts in accepts the same subscriber.
	vC, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = vC.Close() })
	svcC := &protocol.Services{
		Party: id.Party("urn:org:open"), Issuer: realm.Party(alice).Issuer, Verifier: realm.Verifier(),
		Log: vC, States: store.NewMemStateStore(), Clock: realm.Clock, Directory: dir,
	}
	coC, err := protocol.New(network, "urn:org:open", svcC)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coC.Close() })
	protocol.NewSubService(coC, vC, protocol.WithAnonymousSubscribe())
	feed, err := client.Subscribe(context.Background(), id.Party("urn:org:open"), protocol.WatchConfig{})
	if err != nil {
		t.Fatalf("anonymous sub-open against open publisher: %v", err)
	}
	feed.Close()
}

// TestSubTenantDetachStopsPredecessorFeed is the re-enrolment regression:
// removing a tenant from a host must tear down its subscription plane —
// the predecessor's subscribers stop receiving, its vault hooks are
// cancelled, and a re-enrolled successor (same party, same host) serves
// a clean plane: the old feed sees none of the successor's evidence.
func TestSubTenantDetachStopsPredecessorFeed(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice, bob)
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	dir := protocol.NewDirectory()
	host, err := protocol.NewHost(network, "sub-detach-host")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = host.Close() })
	services := func(p id.Party, log store.Log) *protocol.Services {
		return &protocol.Services{
			Party: p, Issuer: realm.Party(p).Issuer, Verifier: realm.Verifier(),
			Log: log, States: store.NewMemStateStore(), Clock: realm.Clock, Directory: dir,
		}
	}
	vA, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = vA.Close() })
	coA, err := host.Add(services(alice, vA))
	if err != nil {
		t.Fatal(err)
	}
	svcA := protocol.NewSubService(coA, vA)
	coB, err := host.Add(services(bob, testpki.Log(t, realm.Clock)))
	if err != nil {
		t.Fatal(err)
	}
	client := protocol.NewSubClient(coB)

	fill := func(v *vault.Vault, run id.Run, from, to int) {
		for i := from; i <= to; i++ {
			tok, err := realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, i, sig.Sum([]byte{byte(i)}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.Append(store.Generated, tok, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	run := id.NewRun()
	fill(vA, run, 1, 5)
	feed, err := client.Subscribe(context.Background(), alice, protocol.WatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := newDrain(feed)
	d.waitFor(t, 6) // 5 records + bob's sub-open evidence
	if svcA.Subscribers() != 1 {
		t.Fatalf("publisher sees %d subscribers before detach, want 1", svcA.Subscribers())
	}

	// Detach the publisher tenant: its live subscriptions end and its
	// vault hooks are cancelled.
	host.Remove(alice)
	if got := svcA.Subscribers(); got != 0 {
		t.Fatalf("detached publisher still holds %d subscribers", got)
	}
	before := len(d.snapshot())

	// Same party re-enrols on the same host with a fresh vault and a
	// fresh subscription plane.
	vA2, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = vA2.Close() })
	coA2, err := host.Add(services(alice, vA2))
	if err != nil {
		t.Fatal(err)
	}
	protocol.NewSubService(coA2, vA2)
	fill(vA2, run, 1, 10)
	// Appends into the predecessor's vault must not reach the old feed
	// either — its hub hooks were cancelled on detach.
	fill(vA, run, 6, 10)

	// A fresh subscription against the successor works and sees exactly
	// the successor's chain.
	feed2, err := client.Subscribe(context.Background(), alice, protocol.WatchConfig{})
	if err != nil {
		t.Fatalf("subscribe to re-enrolled tenant: %v", err)
	}
	defer feed2.Close()
	d2 := newDrain(feed2)
	assertChain(t, d2.waitFor(t, 11), 1, 11)

	// The predecessor's feed received nothing after detach.
	if got := len(d.snapshot()); got != before {
		t.Fatalf("predecessor feed grew from %d to %d records after detach", before, got)
	}
	feed.Close()
}

// TestSubSubscriberDetachRefusesPushes: removing the SUBSCRIBER tenant
// fails its feeds locally and makes its coordinator refuse pushes for
// the predecessor's subscription ids — a re-enrolled successor cannot
// inherit the predecessor's feed.
func TestSubSubscriberDetachRefusesPushes(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(alice, bob)
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	dir := protocol.NewDirectory()
	host, err := protocol.NewHost(network, "sub-detach-host-2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = host.Close() })
	services := func(p id.Party, log store.Log) *protocol.Services {
		return &protocol.Services{
			Party: p, Issuer: realm.Party(p).Issuer, Verifier: realm.Verifier(),
			Log: log, States: store.NewMemStateStore(), Clock: realm.Clock, Directory: dir,
		}
	}
	vA, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = vA.Close() })
	coA, err := host.Add(services(alice, vA))
	if err != nil {
		t.Fatal(err)
	}
	svcA := protocol.NewSubService(coA, vA)
	coB, err := host.Add(services(bob, testpki.Log(t, realm.Clock)))
	if err != nil {
		t.Fatal(err)
	}
	client := protocol.NewSubClient(coB)
	feed, err := client.Subscribe(context.Background(), alice, protocol.WatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	newDrain(feed)

	// Detach the subscriber tenant: its feed fails immediately.
	host.Remove(bob)
	<-feed.Done()
	if err := feed.Err(); !errors.Is(err, protocol.ErrFeedDetached) {
		t.Fatalf("detached subscriber's feed err = %v, want ErrFeedDetached", err)
	}

	// The subscriber re-enrols; the predecessor's subscription id means
	// nothing to the successor, so the publisher's pushes fail and it
	// evicts the dead subscription instead of feeding the newcomer.
	coB2, err := host.Add(services(bob, testpki.Log(t, realm.Clock)))
	if err != nil {
		t.Fatal(err)
	}
	client2 := protocol.NewSubClient(coB2)
	run := id.NewRun()
	for i := 1; i <= 3; i++ {
		tok, err := realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, i, sig.Sum([]byte{byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vA.Append(store.Generated, tok, ""); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(15 * time.Second)
	for svcA.Subscribers() != 0 {
		select {
		case <-deadline:
			t.Fatalf("publisher still holds %d subscribers for a detached tenant", svcA.Subscribers())
		case <-time.After(10 * time.Millisecond):
		}
	}
	// The successor can open its own, clean subscription.
	feed2, err := client2.Subscribe(context.Background(), alice, protocol.WatchConfig{})
	if err != nil {
		t.Fatalf("re-enrolled subscriber: %v", err)
	}
	defer feed2.Close()
	d2 := newDrain(feed2)
	// 3 evidence records + 2 sub-open records (predecessor's and
	// successor's own).
	assertChain(t, d2.waitFor(t, 5), 1, 5)
}

// TestSubCoordinatorCloseDetaches: Coordinator.Close on a dedicated
// (unhosted) publisher also tears the plane down.
func TestSubCoordinatorCloseDetaches(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newSubFixture(t, network)
	feed, err := f.client.Subscribe(context.Background(), alice, protocol.WatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	newDrain(feed)
	if err := f.coA.Close(); err != nil {
		t.Fatal(err)
	}
	if got := f.svcA.Subscribers(); got != 0 {
		t.Fatalf("closed coordinator still holds %d subscribers", got)
	}
	// The vault keeps committing with the hooks gone.
	run := id.NewRun()
	tok, err := f.realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, 1, sig.Sum([]byte{1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.vA.Append(store.Generated, tok, ""); err != nil {
		t.Fatal(err)
	}
}
