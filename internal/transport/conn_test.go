package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tcpPair registers two TCP endpoints, a and b, on one network; each
// answers with its name and the request body.
func tcpPair(t *testing.T, n *TCPNetwork, hb Handler) (a, b Endpoint) {
	t.Helper()
	t.Cleanup(func() { _ = n.Close() })
	echo := func(name string) Handler {
		return HandlerFunc(func(_ context.Context, env *Envelope) (*Envelope, error) {
			return NewEnvelope("echo", []byte(name+":"+string(env.Body))), nil
		})
	}
	if hb == nil {
		hb = echo("b")
	}
	a, err := n.Register("127.0.0.1:0", echo("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err = n.Register("127.0.0.1:0", hb)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestConnSequentialExchangesDialOnce: every exchange between two
// endpoints, both ways, one-way and request alike, rides one connection
// per direction.
func TestConnSequentialExchangesDialOnce(t *testing.T) {
	t.Parallel()
	n := NewTCPNetwork()
	a, b := tcpPair(t, n, nil)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		body := []byte(fmt.Sprint(i))
		reply, err := a.Request(ctx, b.Addr(), NewEnvelope("ping", body))
		if err != nil || string(reply.Body) != "b:"+string(body) {
			t.Fatalf("a->b %d: %v %v", i, reply, err)
		}
		if err := a.Send(ctx, b.Addr(), NewEnvelope("note", body)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Request(ctx, a.Addr(), NewEnvelope("ping", body)); err != nil {
			t.Fatalf("b->a %d: %v", i, err)
		}
	}
	if st := n.Stats(); st.Dials != 2 || st.Open != 4 {
		t.Fatalf("stats after 150 exchanges = %+v, want 2 dials (one per direction) and 4 open ends", st)
	}
}

// TestConnMultiplexesConcurrentRequests: concurrent requests share the
// one connection and each gets its own reply.
func TestConnMultiplexesConcurrentRequests(t *testing.T) {
	t.Parallel()
	n := NewTCPNetwork()
	a, b := tcpPair(t, n, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprint(i)
			reply, err := a.Request(context.Background(), b.Addr(), NewEnvelope("ping", []byte(body)))
			if err == nil && string(reply.Body) != "b:"+body {
				err = fmt.Errorf("request %d answered %q", i, reply.Body)
			}
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if d := n.Stats().Dials; d != 1 {
		t.Fatalf("32 concurrent requests dialled %d times, want 1", d)
	}
}

// TestConnKilledMidRequest: a connection that breaks while the far
// side's handler runs fails the request transiently; Reliable retries it
// on a new connection and Dedup answers the retry with the one
// execution's result.
func TestConnKilledMidRequest(t *testing.T) {
	t.Parallel()
	n := NewTCPNetwork()
	var runs atomic.Int64
	entered, release := make(chan Conn, 1), make(chan struct{})
	a, b := tcpPair(t, n, NewDedupWith(HandlerFunc(func(ctx context.Context, env *Envelope) (*Envelope, error) {
		runs.Add(1)
		entered <- CallerConn(ctx)
		<-release
		return NewEnvelope("done", env.Body), nil
	}), nil))
	r := NewReliable(a, RetryPolicy{Attempts: 4, Backoff: time.Millisecond})
	res := make(chan error, 1)
	go func() {
		reply, err := r.Request(context.Background(), b.Addr(), NewEnvelope("work", []byte("x")))
		if err == nil && reply.Kind != "done" {
			err = fmt.Errorf("reply %+v", reply)
		}
		res <- err
	}()
	c := <-entered
	_ = c.Close()
	close(release)
	if err := <-res; err != nil {
		t.Fatalf("request over a killed connection: %v", err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}
	if d := n.Stats().Dials; d != 2 {
		t.Fatalf("dials = %d, want 2: the first connection and the retry's", d)
	}
}

// TestConnIdleClosesAndRedials: a connection idle past its lifetime
// closes at both ends, and the next request redials without failing.
func TestConnIdleClosesAndRedials(t *testing.T) {
	t.Parallel()
	n := NewTCPNetwork()
	n.idle = 20 * time.Millisecond
	a, b := tcpPair(t, n, nil)
	ctx := context.Background()
	if _, err := a.Request(ctx, b.Addr(), NewEnvelope("ping", nil)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for n.Stats().Open != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle connection still open: %+v", n.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := a.Request(ctx, b.Addr(), NewEnvelope("ping", nil)); err != nil {
		t.Fatalf("request after the idle close: %v", err)
	}
	if d := n.Stats().Dials; d != 2 {
		t.Fatalf("dials = %d, want 2", d)
	}
}

// TestConnInflightCap: requests past a connection's in-flight cap are
// refused with a transient error while the admitted ones run, and the
// freed slots admit again.
func TestConnInflightCap(t *testing.T) {
	t.Parallel()
	n := NewTCPNetwork()
	n.inflight = 3
	var running atomic.Int64
	release := make(chan struct{})
	a, b := tcpPair(t, n, HandlerFunc(func(_ context.Context, env *Envelope) (*Envelope, error) {
		running.Add(1)
		<-release
		return NewEnvelope("done", nil), nil
	}))
	const sent = 5
	errs := make(chan error, sent)
	for i := 0; i < sent; i++ {
		go func() {
			_, err := a.Request(context.Background(), b.Addr(), NewEnvelope("work", nil))
			errs <- err
		}()
	}
	var refused []error
	for len(refused) < sent-3 {
		refused = append(refused, <-errs)
	}
	for _, err := range refused {
		if err == nil || !strings.Contains(err.Error(), errConnBusy.Error()) || Permanent(err) {
			t.Fatalf("request past the cap = %v, want a transient refusal", err)
		}
	}
	if got := running.Load(); got != 3 {
		t.Fatalf("%d handlers ran, want the cap of 3", got)
	}
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("admitted request: %v", err)
		}
	}
	if _, err := a.Request(context.Background(), b.Addr(), NewEnvelope("work", nil)); err != nil {
		t.Fatalf("request after the slots freed: %v", err)
	}
}

// TestConnCloseCancelsHandlers: closing an endpoint cancels the context
// of the handlers it runs, and the request in flight fails.
func TestConnCloseCancelsHandlers(t *testing.T) {
	t.Parallel()
	n := NewTCPNetwork()
	entered, cancelled := make(chan struct{}), make(chan struct{})
	a, b := tcpPair(t, n, HandlerFunc(func(ctx context.Context, env *Envelope) (*Envelope, error) {
		close(entered)
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}))
	res := make(chan error, 1)
	go func() {
		_, err := a.Request(context.Background(), b.Addr(), NewEnvelope("work", nil))
		res <- err
	}()
	<-entered
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	<-cancelled
	if err := <-res; err == nil || Permanent(err) {
		t.Fatalf("request to a closed endpoint = %v, want a transient failure", err)
	}
	if _, err := a.Request(context.Background(), b.Addr(), NewEnvelope("work", nil)); !errors.Is(err, ErrUnknownAddress) {
		t.Fatalf("request after close = %v, want ErrUnknownAddress", err)
	}
}
