package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"nonrep/internal/id"
)

// heldBytes recomputes what the replay cache pins from its entries, and
// checks the running total against it.
func heldBytes(t *testing.T, d *Dedup) (entries int, bytes int64) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, res := range d.results.All() {
		if res.reply != nil {
			bytes += int64(len(res.reply.Body))
		}
	}
	if bytes != d.results.Bytes() {
		t.Fatalf("replay cache books %d bytes, its entries hold %d", d.results.Bytes(), bytes)
	}
	return d.results.Len(), bytes
}

// TestDedupBoundedByBytes: bulk replies are evicted oldest-first once
// they exceed the byte budget, whatever the entry window would allow; a
// retransmission still inside the budget is answered from the cache.
func TestDedupBoundedByBytes(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	d := NewDedupWith(HandlerFunc(func(_ context.Context, env *Envelope) (*Envelope, error) {
		calls.Add(1)
		body := make([]byte, 1<<20)
		copy(body, env.ID)
		return NewEnvelope("chunk-data", body), nil
	}), nil)
	ctx := context.Background()
	const n = 200
	envs := make([]*Envelope, n)
	for i := range envs {
		envs[i] = NewEnvelope("fetch", nil)
		if _, err := d.Handle(ctx, envs[i]); err != nil {
			t.Fatal(err)
		}
		if _, held := heldBytes(t, d); held > dedupCacheBytes {
			t.Fatalf("after %d replies the cache holds %d bytes, budget %d", i+1, held, dedupCacheBytes)
		}
	}
	if entries, held := heldBytes(t, d); entries != dedupCacheBytes>>20 || held != dedupCacheBytes {
		t.Fatalf("cache holds %d entries, %d bytes; want the budget full of 1 MiB replies", entries, held)
	}

	// The newest reply is inside the budget: replayed, not re-dispatched.
	reply, err := d.Handle(ctx, envs[n-1])
	if err != nil || string(reply.Body[:len(envs[n-1].ID)]) != string(envs[n-1].ID) {
		t.Fatalf("retransmission inside the budget = %v, %v", reply, err)
	}
	if got := calls.Load(); got != n {
		t.Fatalf("retransmission inside the budget was dispatched again (%d calls)", got)
	}
	// The oldest left the window, exactly as one past the entry limit would.
	if _, err := d.Handle(ctx, envs[0]); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != n+1 {
		t.Fatalf("evicted delivery: %d calls, want %d", got, n+1)
	}
}

// TestDedupSmallRepliesKeepEntryWindow: small replies never reach the
// byte budget, so the window is the last dedupCacheLimit deliveries.
func TestDedupSmallRepliesKeepEntryWindow(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	d := NewDedupWith(HandlerFunc(func(context.Context, *Envelope) (*Envelope, error) {
		calls.Add(1)
		return NewEnvelope("ack", []byte("small reply")), nil
	}), nil)
	ctx := context.Background()
	const extra = 10
	envs := make([]*Envelope, dedupCacheLimit+extra)
	for i := range envs {
		envs[i] = NewEnvelope("x", nil)
		if _, err := d.Handle(ctx, envs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if entries, _ := heldBytes(t, d); entries != dedupCacheLimit {
		t.Fatalf("cache holds %d entries, want %d", entries, dedupCacheLimit)
	}
	// The oldest survivor is still answered from the cache...
	if _, err := d.Handle(ctx, envs[extra]); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(envs)) {
		t.Fatalf("delivery inside the window was dispatched again (%d calls)", got)
	}
	// ...and the one before it is not.
	if _, err := d.Handle(ctx, envs[extra-1]); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(envs))+1 {
		t.Fatalf("delivery outside the window: %d calls, want %d", got, len(envs)+1)
	}
}

// TestDedupEvictionUnderConcurrentDuplicates: duplicates that wait on a
// delivery get that delivery's reply even when byte eviction drops the
// entry while they wait.
func TestDedupEvictionUnderConcurrentDuplicates(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	entered := make(chan struct{}, 4) // one slot per possible slow dispatch
	d := NewDedupWith(HandlerFunc(func(_ context.Context, env *Envelope) (*Envelope, error) {
		if env.Kind == "slow" {
			entered <- struct{}{}
			<-release
		}
		body := make([]byte, dedupCacheBytes/4)
		copy(body, env.ID)
		return NewEnvelope("r", body), nil
	}), nil)
	ctx := context.Background()
	slow := &Envelope{ID: id.NewMsg(), Kind: "slow"}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := d.Handle(ctx, slow)
			if err != nil || reply == nil || string(reply.Body[:len(slow.ID)]) != string(slow.ID) {
				errs <- fmt.Errorf("duplicate of the slow delivery = %v, %v", reply, err)
			}
		}()
	}
	<-entered
	// Enough bulk replies to push the slow delivery's entry out of the
	// window while it is still in flight.
	for i := 0; i < 8; i++ {
		if _, err := d.Handle(ctx, NewEnvelope("fast", nil)); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, held := heldBytes(t, d); held > dedupCacheBytes {
		t.Fatalf("cache holds %d bytes, budget %d", held, dedupCacheBytes)
	}
}
