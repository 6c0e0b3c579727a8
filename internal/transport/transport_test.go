package transport_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonrep/internal/transport"
)

// echoHandler replies with the request body prefixed by its address.
type echoHandler struct {
	name     string
	received atomic.Int64
}

func (h *echoHandler) Handle(_ context.Context, env *transport.Envelope) (*transport.Envelope, error) {
	h.received.Add(1)
	return transport.NewEnvelope("echo", []byte(h.name+":"+string(env.Body))), nil
}

func networks(t *testing.T) map[string]transport.Network {
	t.Helper()
	inproc := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = inproc.Close() })
	return map[string]transport.Network{
		"inproc": inproc,
		"tcp":    transport.NewTCPNetwork(),
	}
}

func addrFor(kind, name string) string {
	if kind == "tcp" {
		return "127.0.0.1:0"
	}
	return name
}

func TestRequestRoundTrip(t *testing.T) {
	t.Parallel()
	for kind, network := range networks(t) {
		t.Run(kind, func(t *testing.T) {
			h := &echoHandler{name: "b"}
			b, err := network.Register(addrFor(kind, "b"), h)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			a, err := network.Register(addrFor(kind, "a"), &echoHandler{name: "a"})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()

			reply, err := a.Request(context.Background(), b.Addr(), transport.NewEnvelope("ping", []byte("hello")))
			if err != nil {
				t.Fatal(err)
			}
			if string(reply.Body) != "b:hello" {
				t.Fatalf("reply = %q", reply.Body)
			}
		})
	}
}

func TestSendDelivered(t *testing.T) {
	t.Parallel()
	for kind, network := range networks(t) {
		t.Run(kind, func(t *testing.T) {
			h := &echoHandler{name: "b"}
			b, err := network.Register(addrFor(kind, "b"), h)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			a, err := network.Register(addrFor(kind, "a"), &echoHandler{name: "a"})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()

			// A send returns once the far handler has run, on every
			// network.
			for i := 1; i <= 10; i++ {
				if err := a.Send(context.Background(), b.Addr(), transport.NewEnvelope("note", []byte("x"))); err != nil {
					t.Fatal(err)
				}
				if got := h.received.Load(); got != int64(i) {
					t.Fatalf("received %d sends when send %d returned", got, i)
				}
			}
		})
	}
}

// TestSendReturnsHandlerError: a one-way send reports the far handler's
// error to its sender, on every network.
func TestSendReturnsHandlerError(t *testing.T) {
	t.Parallel()
	for kind, network := range networks(t) {
		t.Run(kind, func(t *testing.T) {
			b, err := network.Register(addrFor(kind, "b"), transport.HandlerFunc(func(context.Context, *transport.Envelope) (*transport.Envelope, error) {
				return nil, errors.New("note refused")
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			a, err := network.Register(addrFor(kind, "a"), &echoHandler{name: "a"})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if err := a.Send(context.Background(), b.Addr(), transport.NewEnvelope("note", nil)); err == nil || !strings.Contains(err.Error(), "note refused") {
				t.Fatalf("Send = %v, want the handler's refusal", err)
			}
		})
	}
}

// TestInprocRegisterStartsNoGoroutine: an in-process endpoint runs its
// handler in its senders' goroutines and needs none of its own. The test
// is serial, so no other test starts goroutines while it counts.
func TestInprocRegisterStartsNoGoroutine(t *testing.T) {
	network := transport.NewInprocNetwork()
	defer network.Close()
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		if _, err := network.Register(fmt.Sprintf("ep-%d", i), &echoHandler{}); err != nil {
			t.Fatal(err)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew > 0 {
		t.Fatalf("100 registrations started %d goroutines, want none", grew)
	}
}

func TestUnknownAddress(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	defer network.Close()
	a, err := network.Register("a", &echoHandler{name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "missing", transport.NewEnvelope("x", nil)); !errors.Is(err, transport.ErrUnknownAddress) {
		t.Fatalf("Send = %v, want ErrUnknownAddress", err)
	}
	if _, err := a.Request(context.Background(), "missing", transport.NewEnvelope("x", nil)); !errors.Is(err, transport.ErrUnknownAddress) {
		t.Fatalf("Request = %v, want ErrUnknownAddress", err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	defer network.Close()
	if _, err := network.Register("a", &echoHandler{}); err != nil {
		t.Fatal(err)
	}
	if _, err := network.Register("a", &echoHandler{}); err == nil {
		t.Fatal("duplicate registration succeeded")
	}
}

func TestTCPHandlerError(t *testing.T) {
	t.Parallel()
	network := transport.NewTCPNetwork()
	b, err := network.Register("127.0.0.1:0", transport.HandlerFunc(
		func(context.Context, *transport.Envelope) (*transport.Envelope, error) {
			return nil, fmt.Errorf("boom")
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := network.Register("127.0.0.1:0", &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_, err = a.Request(context.Background(), b.Addr(), transport.NewEnvelope("x", nil))
	if err == nil || !errors.Is(err, err) || err.Error() == "" {
		t.Fatalf("Request = %v, want remote error", err)
	}
}

func TestFaultyDropsBounded(t *testing.T) {
	t.Parallel()
	inner := transport.NewInprocNetwork()
	defer inner.Close()
	faulty := transport.NewFaultyNetwork(inner, transport.FaultPlan{
		Seed:     1,
		DropRate: 1.0,
		MaxDrops: 3,
	})
	h := &echoHandler{name: "b"}
	b, err := faulty.Register("b", h)
	if err != nil {
		t.Fatal(err)
	}
	a, err := faulty.Register("a", &echoHandler{name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	// The first three requests drop; after MaxDrops the channel recovers
	// (bounded temporary failures, assumption 2).
	var failures int
	for i := 0; i < 5; i++ {
		if _, err := a.Request(context.Background(), b.Addr(), transport.NewEnvelope("x", nil)); err != nil {
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("failures = %d, want 3", failures)
	}
	if faulty.Drops() != 3 {
		t.Fatalf("Drops() = %d, want 3", faulty.Drops())
	}
}

func TestFaultyPartitionAndHeal(t *testing.T) {
	t.Parallel()
	inner := transport.NewInprocNetwork()
	defer inner.Close()
	faulty := transport.NewFaultyNetwork(inner, transport.FaultPlan{Seed: 1})
	b, err := faulty.Register("b", &echoHandler{name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := faulty.Register("a", &echoHandler{name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	faulty.Partition("a", "b")
	if _, err := a.Request(context.Background(), b.Addr(), transport.NewEnvelope("x", nil)); !errors.Is(err, transport.ErrDropped) {
		t.Fatalf("Request across partition = %v, want ErrDropped", err)
	}
	faulty.Heal("a", "b")
	if _, err := a.Request(context.Background(), b.Addr(), transport.NewEnvelope("x", nil)); err != nil {
		t.Fatalf("Request after heal: %v", err)
	}
}

func TestReliableMasksTransientDrops(t *testing.T) {
	t.Parallel()
	inner := transport.NewInprocNetwork()
	defer inner.Close()
	faulty := transport.NewFaultyNetwork(inner, transport.FaultPlan{
		Seed:     42,
		DropRate: 0.5,
		MaxDrops: 4,
	})
	h := &echoHandler{name: "b"}
	b, err := faulty.Register("b", transport.NewDedupWith(h, nil))
	if err != nil {
		t.Fatal(err)
	}
	rawA, err := faulty.Register("a", &echoHandler{name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	a := transport.NewReliable(rawA, transport.RetryPolicy{Attempts: 10, Backoff: time.Millisecond})
	for i := 0; i < 20; i++ {
		reply, err := a.Request(context.Background(), b.Addr(), transport.NewEnvelope("x", []byte("p")))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if string(reply.Body) != "b:p" {
			t.Fatalf("reply = %q", reply.Body)
		}
	}
}

// TestReliableRetransmitsDroppedOneWaySend: a one-way send the network
// drops is reported to its sender, retransmitted by the reliable layer
// and processed once — a lone send has nothing else to carry it.
func TestReliableRetransmitsDroppedOneWaySend(t *testing.T) {
	t.Parallel()
	inner := transport.NewInprocNetwork()
	defer inner.Close()
	faulty := transport.NewFaultyNetwork(inner, transport.FaultPlan{Seed: 1, DropRate: 1.0, MaxDrops: 3})
	h := &echoHandler{name: "b"}
	b, err := faulty.Register("b", transport.NewDedupWith(h, nil))
	if err != nil {
		t.Fatal(err)
	}
	rawA, err := faulty.Register("a", &echoHandler{name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rawA.Send(context.Background(), b.Addr(), transport.NewEnvelope("x", nil)); !errors.Is(err, transport.ErrDropped) {
		t.Fatalf("dropped one-way send = %v, want ErrDropped", err)
	}
	a := transport.NewReliable(rawA, transport.RetryPolicy{Attempts: 5, Backoff: time.Millisecond})
	if err := a.Send(context.Background(), b.Addr(), transport.NewEnvelope("x", []byte("p"))); err != nil {
		t.Fatalf("one-way send across two more drops: %v", err)
	}
	if got := h.received.Load(); got != 1 {
		t.Fatalf("handler processed %d messages, want 1", got)
	}
	if faulty.Drops() != 3 {
		t.Fatalf("Drops() = %d, want 3", faulty.Drops())
	}
}

func TestDedupProcessesOnce(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	h := transport.NewDedupWith(transport.HandlerFunc(
		func(_ context.Context, env *transport.Envelope) (*transport.Envelope, error) {
			calls.Add(1)
			return transport.NewEnvelope("r", []byte("result")), nil
		}), nil)
	env := transport.NewEnvelope("x", []byte("p"))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := h.Handle(context.Background(), env)
			if err != nil || string(reply.Body) != "result" {
				t.Errorf("Handle = %v, %v", reply, err)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", calls.Load())
	}
}

func TestDedupDistinctIDs(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	h := transport.NewDedupWith(transport.HandlerFunc(
		func(context.Context, *transport.Envelope) (*transport.Envelope, error) {
			calls.Add(1)
			return nil, nil
		}), nil)
	for i := 0; i < 5; i++ {
		if _, err := h.Handle(context.Background(), transport.NewEnvelope("x", nil)); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 5 {
		t.Fatalf("handler ran %d times, want 5", calls.Load())
	}
}

func TestFaultyDelay(t *testing.T) {
	t.Parallel()
	inner := transport.NewInprocNetwork()
	defer inner.Close()
	faulty := transport.NewFaultyNetwork(inner, transport.FaultPlan{Seed: 1, Delay: 20 * time.Millisecond})
	b, err := faulty.Register("b", &echoHandler{name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := faulty.Register("a", &echoHandler{name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := a.Request(context.Background(), b.Addr(), transport.NewEnvelope("x", nil)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("request completed in %v, want ≥ 20ms", elapsed)
	}
}
