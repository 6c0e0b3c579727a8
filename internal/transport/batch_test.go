package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonrep/internal/id"
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

// reliableSender registers addr on net and wraps it in reliable
// retransmission, the sending stack an older peer put its coalescer on.
func reliableSender(t *testing.T, net Network, addr string) *Reliable {
	t.Helper()
	ep, err := net.Register(addr, HandlerFunc(func(context.Context, *Envelope) (*Envelope, error) {
		return nil, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReliable(ep, RetryPolicy{Attempts: 40, Backoff: time.Millisecond})
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// sendBatches sends n protocol messages in hand-built b2b-batch
// envelopes of per items each, concurrently, the way an older peer's
// coalescer framed them: item i awaits a reply when wantReply(i). It
// returns each batch's error, after checking every reply it got.
func sendBatches(r *Reliable, n, per int, wantReply func(int) bool) []error {
	var wg sync.WaitGroup
	errs := make([]error, (n+per-1)/per)
	for b := range errs {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			var items []BatchItem
			for i := b * per; i < min(n, (b+1)*per); i++ {
				body := []byte(fmt.Sprintf("msg-%d", i))
				items = append(items, BatchItem{Env: NewEnvelope("q", body), WantReply: wantReply(i)})
			}
			env := &Envelope{ID: id.NewMsg(), Kind: KindBatch, Batch: items}
			reply, err := r.Request(context.Background(), "dst", env)
			if err != nil {
				errs[b] = err
				return
			}
			if reply.Kind != KindBatchReply || len(reply.Batch) != len(items) {
				errs[b] = fmt.Errorf("reply %s with %d items for %d", reply.Kind, len(reply.Batch), len(items))
				return
			}
			for j, item := range items {
				got := reply.Batch[j]
				switch {
				case got.Err != "":
					errs[b] = fmt.Errorf("item %d: %s", j, got.Err)
				case item.WantReply && (got.Env == nil || string(got.Env.Body) != string(item.Env.Body)):
					errs[b] = fmt.Errorf("item %d: wrong reply %+v", j, got.Env)
				}
			}
		}(b)
	}
	wg.Wait()
	return errs
}

// TestCoalescerUnderLossRetransmitsAndDedups: batch envelopes as an
// older peer's coalescer sent them, retransmitted over a lossy network,
// process every sub-message exactly once.
func TestCoalescerUnderLossRetransmitsAndDedups(t *testing.T) {
	inproc := NewInprocNetwork()
	defer inproc.Close()
	faulty := NewFaultyNetwork(inproc, FaultPlan{Seed: 11, DropRate: 0.3, MaxDrops: 60})

	handler := newCountingHandler()
	if _, err := faulty.Register("dst", NewBatchOpener(NewDedupWith(handler, nil))); err != nil {
		t.Fatal(err)
	}
	r := reliableSender(t, faulty, "src")

	const n = 40
	for b, err := range sendBatches(r, n, 5, func(i int) bool { return i%2 == 0 }) {
		if err != nil {
			t.Fatalf("batch %d not delivered despite retransmission: %v", b, err)
		}
	}
	if faulty.Drops() == 0 {
		t.Fatal("fault plan injected no drops; test is vacuous")
	}
	// Eventual delivery of every message, exactly-once processing: a
	// dropped or duplicated batch must not double-process any sub-message.
	if got := handler.total.Load(); got != n {
		t.Fatalf("handler processed %d messages, want exactly %d", got, n)
	}
	if dups := handler.duplicates(); len(dups) != 0 {
		t.Fatalf("duplicate processing after retransmission: %v", dups)
	}
}

// TestCoalescerSurvivesPartition: batch envelopes held up by a partition
// are delivered once it heals, each sub-message processed once.
func TestCoalescerSurvivesPartition(t *testing.T) {
	inproc := NewInprocNetwork()
	defer inproc.Close()
	faulty := NewFaultyNetwork(inproc, FaultPlan{})

	handler := newCountingHandler()
	if _, err := faulty.Register("dst", NewBatchOpener(NewDedupWith(handler, nil))); err != nil {
		t.Fatal(err)
	}
	r := reliableSender(t, faulty, "src")

	faulty.Partition("src", "dst")
	const n = 8
	done := make(chan []error, 1)
	go func() { done <- sendBatches(r, n, 4, func(int) bool { return true }) }()
	time.Sleep(5 * time.Millisecond)
	faulty.Heal("src", "dst")
	for b, err := range <-done {
		if err != nil {
			t.Fatalf("batch %d failed across healed partition: %v", b, err)
		}
	}
	if faulty.Drops() == 0 {
		t.Fatal("partition dropped nothing; test is vacuous")
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
