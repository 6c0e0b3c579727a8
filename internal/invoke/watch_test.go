package invoke

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

const (
	watchClient = id.Party("urn:org:watch-client")
	watchServer = id.Party("urn:org:watch-server")
	watchTTP    = id.Party("urn:ttp:watch")
)

// fairWatch is a fair-protocol server recovering through watchTTP after
// timeout, and a client that withholds every receipt.
type fairWatch struct {
	d   *testpki.Domain
	srv *Server
	cli *Client
}

func newFairWatch(t *testing.T, timeout time.Duration) *fairWatch {
	t.Helper()
	d := testpki.MustDomain(watchClient, watchServer, watchTTP)
	t.Cleanup(d.Close)
	srv := NewServer(d.Node(watchServer).Coordinator(), ExecutorFunc(
		func(context.Context, *evidence.RequestSnapshot) ([]evidence.Param, error) { return nil, nil }),
		ForProtocol(ProtocolFair), WithRecovery(watchTTP, timeout))
	t.Cleanup(func() { _ = srv.Close() })
	cli := NewClient(d.Node(watchClient).Coordinator(), WithOfflineTTP(watchTTP), WithholdReceipt())
	return &fairWatch{d: d, srv: srv, cli: cli}
}

// call runs one fair invocation whose receipt is withheld.
func (w *fairWatch) call(t *testing.T) id.Run {
	t.Helper()
	res, err := w.cli.Invoke(context.Background(), watchServer, Request{Service: "urn:org:watch-server/orders", Operation: "PlaceOrder"})
	if err != nil || res.Status != evidence.StatusOK {
		t.Fatalf("call: %v (%v)", err, res)
	}
	return res.Run
}

// advanceUntilResolved moves the clock on by step until the server
// reports run resolved, giving the receipt watch a moment after each
// step; it fails the test after two seconds of wall time.
func (w *fairWatch) advanceUntilResolved(t *testing.T, run id.Run, step time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; {
		_, resolved, err := w.srv.ReceiptState(run)
		if err != nil {
			t.Fatal(err)
		}
		if resolved {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never resolved", run)
		}
		w.d.Realm.Clock.Advance(step)
		time.Sleep(time.Millisecond)
	}
}

// substitutes counts the TTP substitute receipts in the server's log for
// run.
func (w *fairWatch) substitutes(t *testing.T, run id.Run) int {
	t.Helper()
	n := 0
	for _, rec := range testpki.Query(t, w.d.Node(watchServer).Log(), store.Query{Run: run}) {
		if rec.Token.Kind == evidence.KindSubstitute {
			n++
		}
	}
	return n
}

// goroutinesGrown reports by how many goroutines the process grew since
// before, once the transient ones of the last calls had a second to end.
func goroutinesGrown(before int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine()-before > 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() - before
}

// TestFairWatchHoldsNoGoroutinePerRun: a recovering server waits for its
// receipts in the open-run table, on one timer. A thousand withheld
// receipts an hour from their deadline add at most the one watch
// goroutine, not one per run.
func TestFairWatchHoldsNoGoroutinePerRun(t *testing.T) {
	const calls = 1000
	w := newFairWatch(t, time.Hour)
	NewResolveService(w.d.Node(watchTTP).Coordinator())
	before := runtime.NumGoroutine()
	for i := 0; i < calls; i++ {
		w.call(t)
	}
	if grown := goroutinesGrown(before); grown > 2 {
		t.Fatalf("%d withheld receipts grew the process by %d goroutines, want at most 2", calls, grown)
	}
}

// TestFairEvictedRunsResolved: a recovering server holds at most
// maxOpenRuns runs, and a run the count bound pushes out before its
// deadline is resolved through the TTP by the request whose arrival
// evicted it, before that request's reply returns — not abandoned, and
// not left to a goroutine that outlives the table's bound.
func TestFairEvictedRunsResolved(t *testing.T) {
	const extra = 10
	w := newFairWatch(t, time.Hour)
	resolver := NewResolveService(w.d.Node(watchTTP).Coordinator())
	before := runtime.NumGoroutine()
	runs := make([]id.Run, 0, maxOpenRuns+extra)
	for i := 0; i < maxOpenRuns+extra; i++ {
		runs = append(runs, w.call(t))
		if i < maxOpenRuns {
			continue
		}
		evicted := runs[i-maxOpenRuns]
		if decided, resolved, err := resolver.Decision(evicted); err != nil || !decided || !resolved {
			t.Fatalf("call %d evicted run %s; when it returned the TTP decision was %v,%v (%v), want decided+resolved",
				i, evicted, decided, resolved, err)
		}
	}
	if grown := goroutinesGrown(before); grown > 2 {
		t.Fatalf("%d withheld receipts grew the process by %d goroutines, want at most 2", len(runs), grown)
	}
	w.srv.mu.Lock()
	open, settled := w.srv.open.Len(), w.srv.settled.Len()
	w.srv.mu.Unlock()
	if open != maxOpenRuns || settled != 0 {
		t.Fatalf("server holds %d open and %d settled runs, want %d and 0", open, settled, maxOpenRuns)
	}
	for _, run := range runs[:extra] {
		if n := w.substitutes(t, run); n != 1 {
			t.Fatalf("evicted run %s: server logged %d substitute receipts, want 1", run, n)
		}
		if _, _, err := w.srv.ReceiptState(run); !errors.Is(err, ErrNoSuchRun) {
			t.Fatalf("evicted run %s: ReceiptState = %v, want ErrNoSuchRun", run, err)
		}
	}
	// The runs still held wait for their deadline.
	if decided, _, err := resolver.Decision(runs[extra]); err != nil || decided {
		t.Fatalf("held run %s decided before its deadline (%v)", runs[extra], err)
	}
}

// TestFairResolveRetriedAfterFailure: a resolve that fails is not lost.
// The TTP's node is up but its resolve service is not, so the first
// resolve fails; the service comes up, the clock passes the run's next
// deadline, and the run resolves with exactly one substitute receipt
// logged.
func TestFairResolveRetriedAfterFailure(t *testing.T) {
	t.Parallel()
	const timeout = time.Hour
	w := newFairWatch(t, timeout)
	asked := make(chan struct{}, 1)
	down := protocol.NewRequestMux(ProtocolResolve, "resolve", map[string]protocol.RequestFunc{
		kindResolve: func(context.Context, *protocol.Message) (*protocol.Message, error) {
			select {
			case asked <- struct{}{}:
			default:
			}
			return nil, errors.New("resolve service not serving")
		},
	})
	ttpCo := w.d.Node(watchTTP).Coordinator()
	ttpCo.Register(&down)
	run := w.call(t)

	w.d.Realm.Clock.Advance(timeout)
	select {
	case <-asked:
	case <-time.After(2 * time.Second):
		t.Fatal("the receipt watch never asked the TTP")
	}
	resolver := NewResolveService(ttpCo)
	w.advanceUntilResolved(t, run, timeout)
	// A resolved run is over: further deadlines ask nothing more.
	w.d.Realm.Clock.Advance(timeout)
	time.Sleep(20 * time.Millisecond)
	if n := w.substitutes(t, run); n != 1 {
		t.Fatalf("server logged %d substitute receipts, want 1", n)
	}
	if decided, resolved, err := resolver.Decision(run); err != nil || !decided || !resolved {
		t.Fatalf("TTP decision = %v,%v (%v), want decided+resolved", decided, resolved, err)
	}
}

// TestFairCloseStopsTheWatch: once Close returns, nothing resolves, even
// when the clock passes a pending deadline.
func TestFairCloseStopsTheWatch(t *testing.T) {
	t.Parallel()
	const timeout = time.Hour
	w := newFairWatch(t, timeout)
	resolver := NewResolveService(w.d.Node(watchTTP).Coordinator())
	run := w.call(t)
	if err := w.srv.Close(); err != nil {
		t.Fatal(err)
	}
	w.d.Realm.Clock.Advance(2 * timeout)
	time.Sleep(20 * time.Millisecond)
	if _, resolved, err := w.srv.ReceiptState(run); err != nil || resolved {
		t.Fatalf("ReceiptState after Close: resolved=%v, %v; want unresolved", resolved, err)
	}
	if decided, _, err := resolver.Decision(run); err != nil || decided {
		t.Fatalf("TTP asked after Close (decided=%v, %v)", decided, err)
	}
}

// TestFairStalledResolveBounded: a TTP that never answers the resolve of
// some runs holds up neither the receipt watch's other runs nor a request
// that evicts one of them. The watch still resolves a second withheld
// run, and a call whose arrival evicts a run whose resolve stalls returns
// once its context ends.
func TestFairStalledResolveBounded(t *testing.T) {
	const timeout = time.Hour
	w := newFairWatch(t, timeout)
	ttpCo := w.d.Node(watchTTP).Coordinator()
	resolver := NewResolveService(ttpCo)
	var mu sync.Mutex
	served := map[id.Run]bool{}
	asked := make(chan id.Run, 8)
	stall := protocol.NewRequestMux(ProtocolResolve, "resolve", map[string]protocol.RequestFunc{
		kindResolve: func(ctx context.Context, msg *protocol.Message) (*protocol.Message, error) {
			mu.Lock()
			serve := served[msg.Run]
			mu.Unlock()
			if serve {
				return resolver.handleResolve(ctx, msg)
			}
			select {
			case asked <- msg.Run:
			default:
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				return nil, errors.New("resolve stalled")
			}
		},
	})
	ttpCo.Register(&stall)
	waitAsked := func(run id.Run) {
		t.Helper()
		for timer := time.After(2 * time.Second); ; {
			select {
			case r := <-asked:
				if r == run {
					return
				}
			case <-timer:
				t.Fatalf("the TTP was never asked to resolve %s", run)
			}
		}
	}

	stuck := w.call(t)
	other := w.call(t)
	mu.Lock()
	served[other] = true
	mu.Unlock()
	w.d.Realm.Clock.Advance(timeout)
	waitAsked(stuck)
	w.advanceUntilResolved(t, other, 0)

	// The open table holds stuck, whose resolve is under way, and evictee.
	// Filling it evicts stuck, which is left to its resolve, and then
	// evictee, which the evicting request resolves.
	evictee := w.call(t)
	for i := 2; i <= maxOpenRuns; i++ {
		w.call(t)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	returned := make(chan error, 1)
	go func() {
		_, err := w.cli.Invoke(ctx, watchServer, Request{Service: "urn:org:watch-server/orders", Operation: "PlaceOrder"})
		returned <- err
	}()
	waitAsked(evictee)
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("a call that evicted a run whose resolve stalls did not return when its context ended")
	}
}

// TestFairWatchUnderConcurrentCalls: withheld and honest receipts from
// several callers at once, with the clock moving under them, leave every
// withheld run resolved by exactly one substitute receipt and every
// honest one receipted.
func TestFairWatchUnderConcurrentCalls(t *testing.T) {
	t.Parallel()
	const (
		timeout = time.Minute
		callers = 4
		calls   = 20
	)
	w := newFairWatch(t, timeout)
	NewResolveService(w.d.Node(watchTTP).Coordinator())
	honest := NewClient(w.d.Node(watchClient).Coordinator(), WithOfflineTTP(watchTTP))
	stop := make(chan struct{})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				w.d.Realm.Clock.Advance(timeout / 4)
			}
		}
	}()
	type outcome struct {
		run      id.Run
		withheld bool
		err      error
	}
	results := make(chan outcome, callers*calls)
	for c := 0; c < callers; c++ {
		cli := w.cli
		if c%2 == 1 {
			cli = honest
		}
		go func() {
			for i := 0; i < calls; i++ {
				res, err := cli.Invoke(context.Background(), watchServer, Request{Service: "urn:org:watch-server/orders", Operation: "PlaceOrder"})
				o := outcome{withheld: cli == w.cli, err: err}
				if err == nil {
					o.run = res.Run
				}
				results <- o
			}
		}()
	}
	var withheld, receipted []id.Run
	for i := 0; i < callers*calls; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.withheld {
			withheld = append(withheld, o.run)
		} else {
			receipted = append(receipted, o.run)
		}
	}
	close(stop)
	<-ticked
	for _, run := range withheld {
		w.advanceUntilResolved(t, run, timeout)
		if n := w.substitutes(t, run); n != 1 {
			t.Fatalf("withheld run %s: server logged %d substitute receipts, want 1", run, n)
		}
	}
	for _, run := range receipted {
		if received, _, err := w.srv.ReceiptState(run); err != nil || !received {
			t.Fatalf("honest run %s: received=%v, %v", run, received, err)
		}
	}
}
