package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingHandler records how many times each envelope identifier was
// actually processed and echoes the body back.
type countingHandler struct {
	mu    sync.Mutex
	seen  map[string]int
	total atomic.Int64
}

func newCountingHandler() *countingHandler {
	return &countingHandler{seen: make(map[string]int)}
}

func (h *countingHandler) Handle(_ context.Context, env *Envelope) (*Envelope, error) {
	h.mu.Lock()
	h.seen[string(env.ID)]++
	h.mu.Unlock()
	h.total.Add(1)
	return NewEnvelope("echo", env.Body), nil
}

func (h *countingHandler) duplicates() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var dups []string
	for id, n := range h.seen {
		if n > 1 {
			dups = append(dups, fmt.Sprintf("%s x%d", id, n))
		}
	}
	return dups
}

// coalescedSender builds the full sending stack over net: reliable
// retransmission below a coalescer, mirroring the coordinator's wiring.
func coalescedSender(t *testing.T, net Network, addr string, opts CoalesceOptions) *Coalescer {
	t.Helper()
	ep, err := net.Register(addr, HandlerFunc(func(context.Context, *Envelope) (*Envelope, error) {
		return nil, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return NewCoalescer(NewReliable(ep, RetryPolicy{Attempts: 40, Backoff: time.Millisecond}), opts)
}

func TestCoalescerCombinesConcurrentRequests(t *testing.T) {
	inproc := NewInprocNetwork()
	defer inproc.Close()
	metered := NewMeteredWith(inproc, nil)

	handler := newCountingHandler()
	if _, err := metered.Register("dst", NewBatchOpener(NewDedupWith(handler, nil))); err != nil {
		t.Fatal(err)
	}
	c := coalescedSender(t, metered, "src", CoalesceOptions{})
	defer c.Close()

	const n = 48
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf("req-%d", i))
			reply, err := c.Request(context.Background(), "dst", NewEnvelope("q", body))
			if err != nil {
				errs[i] = err
				return
			}
			if string(reply.Body) != string(body) {
				errs[i] = fmt.Errorf("reply %q for request %q", reply.Body, body)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := handler.total.Load(); got != n {
		t.Fatalf("handler processed %d messages, want %d", got, n)
	}
	if dups := handler.duplicates(); len(dups) != 0 {
		t.Fatalf("duplicate processing: %v", dups)
	}
	// Coalescing must have reduced wire envelopes below one per request.
	if metered.Messages() >= 2*n {
		t.Fatalf("no coalescing: %d wire messages for %d requests", metered.Messages(), n)
	}
	if metered.SubMessages() == 0 || metered.Batches() == 0 {
		t.Fatalf("metering saw no batches (batches=%d submsgs=%d)", metered.Batches(), metered.SubMessages())
	}
	if metered.LogicalMessages() < int64(n) {
		t.Fatalf("logical messages %d < %d requests", metered.LogicalMessages(), n)
	}
	t.Logf("%d requests -> %d wire envelopes (%d batches, %d sub-messages)",
		n, metered.Messages(), metered.Batches(), metered.SubMessages())
}

func TestCoalescerUnderLossRetransmitsAndDedups(t *testing.T) {
	inproc := NewInprocNetwork()
	defer inproc.Close()
	faulty := NewFaultyNetwork(inproc, FaultPlan{Seed: 11, DropRate: 0.3, MaxDrops: 60})

	handler := newCountingHandler()
	if _, err := faulty.Register("dst", NewBatchOpener(NewDedupWith(handler, nil))); err != nil {
		t.Fatal(err)
	}
	c := coalescedSender(t, faulty, "src", CoalesceOptions{})
	defer c.Close()

	const n = 40
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				_, errs[i] = c.Request(context.Background(), "dst", NewEnvelope("q", []byte("x")))
			} else {
				errs[i] = c.Send(context.Background(), "dst", NewEnvelope("one-way", []byte("y")))
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("message %d not delivered despite retransmission: %v", i, err)
		}
	}
	if faulty.Drops() == 0 {
		t.Fatal("fault plan injected no drops; test is vacuous")
	}
	// Eventual delivery of every message, exactly-once processing: a
	// dropped or duplicated batch must not double-process any sub-message.
	// A one-way send that travelled unbatched returns once the in-process
	// transport has queued it, so its processing may still be pending.
	for deadline := time.Now().Add(5 * time.Second); handler.total.Load() < n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := handler.total.Load(); got != n {
		t.Fatalf("handler processed %d messages, want exactly %d", got, n)
	}
	if dups := handler.duplicates(); len(dups) != 0 {
		t.Fatalf("duplicate processing after retransmission: %v", dups)
	}
}

func TestCoalescerSurvivesPartition(t *testing.T) {
	inproc := NewInprocNetwork()
	defer inproc.Close()
	faulty := NewFaultyNetwork(inproc, FaultPlan{})

	handler := newCountingHandler()
	if _, err := faulty.Register("dst", NewBatchOpener(NewDedupWith(handler, nil))); err != nil {
		t.Fatal(err)
	}
	c := coalescedSender(t, faulty, "src", CoalesceOptions{})
	defer c.Close()

	faulty.Partition("src", "dst")
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Request(context.Background(), "dst", NewEnvelope("q", []byte("z")))
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	faulty.Heal("src", "dst")
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed across healed partition: %v", i, err)
		}
	}
	if got := handler.total.Load(); got != n {
		t.Fatalf("handler processed %d messages, want %d", got, n)
	}
	if dups := handler.duplicates(); len(dups) != 0 {
		t.Fatalf("duplicate processing after partition: %v", dups)
	}
}

func TestBatchOpenerReplayedBatchProcessesOnce(t *testing.T) {
	handler := newCountingHandler()
	opener := NewBatchOpener(NewDedupWith(handler, nil))

	env := &Envelope{ID: "batch-1", Kind: KindBatch, Batch: []BatchItem{
		{Env: NewEnvelope("q", []byte("a")), WantReply: true},
		{Env: NewEnvelope("one-way", []byte("b"))},
		{Env: NewEnvelope("q", []byte("c")), WantReply: true},
	}}
	if got := BatchSize(env); got != 3 {
		t.Fatalf("BatchSize = %d, want 3", got)
	}

	// The same batch envelope delivered twice — a duplicated or
	// retransmitted batch — must process each sub-message exactly once
	// and reproduce the same combined reply.
	first, err := opener.Handle(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	second, err := opener.Handle(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if got := handler.total.Load(); got != 3 {
		t.Fatalf("handler processed %d messages, want 3", got)
	}
	if len(first.Batch) != 3 || len(second.Batch) != 3 {
		t.Fatalf("reply counts = %d, %d; want 3", len(first.Batch), len(second.Batch))
	}
	for i := range first.Batch {
		if (first.Batch[i].Env == nil) != (second.Batch[i].Env == nil) {
			t.Fatalf("replay diverged at item %d", i)
		}
		if first.Batch[i].Env != nil && string(first.Batch[i].Env.Body) != string(second.Batch[i].Env.Body) {
			t.Fatalf("replay reply %d differs", i)
		}
	}
	if got := BatchSize(first); got != 3 {
		t.Fatalf("BatchSize(reply) = %d, want 3", got)
	}
}

func TestCoalescerSingletonBypassesFraming(t *testing.T) {
	inproc := NewInprocNetwork()
	defer inproc.Close()
	metered := NewMeteredWith(inproc, nil)
	handler := newCountingHandler()
	if _, err := metered.Register("dst", NewBatchOpener(NewDedupWith(handler, nil))); err != nil {
		t.Fatal(err)
	}
	c := coalescedSender(t, metered, "src", CoalesceOptions{})
	defer c.Close()

	// Sequential traffic: no concurrency, nothing to coalesce — every
	// message should travel unwrapped with zero batch framing overhead.
	for i := 0; i < 5; i++ {
		if _, err := c.Request(context.Background(), "dst", NewEnvelope("q", []byte("s"))); err != nil {
			t.Fatal(err)
		}
	}
	if metered.Batches() != 0 {
		t.Fatalf("sequential traffic produced %d batch envelopes", metered.Batches())
	}
	if got := handler.total.Load(); got != 5 {
		t.Fatalf("handler processed %d, want 5", got)
	}
}
