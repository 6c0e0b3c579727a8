package transport_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nonrep/internal/transport"
)

// flakyEndpoint fails the first n operations with err, then delegates to
// a success reply.
type flakyEndpoint struct {
	failures atomic.Int64
	err      error
	attempts atomic.Int64
}

func (e *flakyEndpoint) Addr() string { return "flaky" }

func (e *flakyEndpoint) Send(ctx context.Context, to string, env *transport.Envelope) error {
	e.attempts.Add(1)
	if e.failures.Add(-1) >= 0 {
		return e.err
	}
	return nil
}

func (e *flakyEndpoint) Request(ctx context.Context, to string, env *transport.Envelope) (*transport.Envelope, error) {
	if err := e.Send(ctx, to, env); err != nil {
		return nil, err
	}
	return transport.NewEnvelope("ok", nil), nil
}

func (e *flakyEndpoint) Close() error { return nil }

// permErr classifies itself permanent via Temporary().
type permErr struct{}

func (permErr) Error() string   { return "definitively broken" }
func (permErr) Temporary() bool { return false }

// tempErr classifies itself temporary via Temporary().
type tempErr struct{}

func (tempErr) Error() string   { return "hiccup" }
func (tempErr) Temporary() bool { return true }

func TestRetryPolicyDelayCappedExponential(t *testing.T) {
	t.Parallel()
	p := transport.RetryPolicy{Attempts: 10, Backoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond, NoJitter: true}
	want := []time.Duration{10, 20, 40, 40, 40}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w*time.Millisecond {
			t.Fatalf("delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestRetryPolicyDelayJitterBounds(t *testing.T) {
	t.Parallel()
	p := transport.RetryPolicy{Attempts: 10, Backoff: 8 * time.Millisecond, MaxBackoff: 32 * time.Millisecond}
	for retry := 1; retry <= 6; retry++ {
		for i := 0; i < 100; i++ {
			d := p.Delay(retry)
			if d <= 0 || d > 32*time.Millisecond {
				t.Fatalf("jittered delay(%d) = %v out of (0, 32ms]", retry, d)
			}
		}
	}
}

// TestRetryPolicyDelayHugeBackoff: a base delay whose default cap (64×)
// or whose doubling overflows int64 still yields a positive delay within
// the cap, jittered or not; the draw must never see a non-positive bound.
func TestRetryPolicyDelayHugeBackoff(t *testing.T) {
	t.Parallel()
	for _, p := range []transport.RetryPolicy{
		{Backoff: 1 << 62},
		{Backoff: 1 << 62, NoJitter: true},
		{Backoff: 1 << 62, MaxBackoff: math.MaxInt64},
		{Backoff: 1 << 62, MaxBackoff: math.MaxInt64, NoJitter: true},
	} {
		for retry := 1; retry <= 8; retry++ {
			if d := p.Delay(retry); d <= 0 {
				t.Fatalf("%+v: Delay(%d) = %v, want positive", p, retry, d)
			}
		}
	}
}

func TestPermanentClassification(t *testing.T) {
	t.Parallel()
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("mystery"), false}, // unknown errors must retry
		{transport.ErrUnknownAddress, true},
		{transport.ErrClosed, true},
		{transport.ErrUnknownTenant, true},
		{permErr{}, true},
		{tempErr{}, false},
	}
	for _, c := range cases {
		if got := transport.Permanent(c.err); got != c.want {
			t.Fatalf("Permanent(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestReliableStopsOnPermanentError(t *testing.T) {
	t.Parallel()
	ep := &flakyEndpoint{err: permErr{}}
	ep.failures.Store(100)
	r := transport.NewReliable(ep, transport.RetryPolicy{Attempts: 8, Backoff: time.Millisecond, NoJitter: true})
	_, err := r.Request(context.Background(), "b", transport.NewEnvelope("ping", nil))
	if err == nil {
		t.Fatal("want error")
	}
	if got := ep.attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (permanent error must not be retried)", got)
	}
}

func TestReliableRetriesTransientThenSucceeds(t *testing.T) {
	t.Parallel()
	ep := &flakyEndpoint{err: tempErr{}}
	ep.failures.Store(3)
	r := transport.NewReliable(ep, transport.RetryPolicy{Attempts: 8, Backoff: time.Millisecond, NoJitter: true})
	if _, err := r.Request(context.Background(), "b", transport.NewEnvelope("ping", nil)); err != nil {
		t.Fatal(err)
	}
	if got := ep.attempts.Load(); got != 4 {
		t.Fatalf("attempts = %d, want 4", got)
	}
}

func TestReliableBoundedByDeadline(t *testing.T) {
	t.Parallel()
	ep := &flakyEndpoint{err: tempErr{}}
	ep.failures.Store(100)
	// Backoff far beyond the deadline: the loop must stop instead of
	// sleeping past it.
	r := transport.NewReliable(ep, transport.RetryPolicy{Attempts: 8, Backoff: 10 * time.Second, NoJitter: true})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.Request(ctx, "b", transport.NewEnvelope("ping", nil))
	if err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop overshot the deadline by %v", elapsed)
	}
	if got := ep.attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (next delay cannot fit the deadline)", got)
	}
}

// TestDialClientEndpoint: a client endpoint reaches listening endpoints,
// and the listener's handler reaches the client back down the
// connection the request arrived on.
func TestDialClientEndpoint(t *testing.T) {
	t.Parallel()
	for kind, network := range networks(t) {
		t.Run(kind, func(t *testing.T) {
			h := &echoHandler{name: "srv"}
			srv, err := network.Register(addrFor(kind, "srv"), transport.HandlerFunc(func(ctx context.Context, env *transport.Envelope) (*transport.Envelope, error) {
				if env.Kind != "call-back" {
					return h.Handle(ctx, env)
				}
				back := transport.CallerConn(ctx)
				if back == nil {
					return nil, errors.New("no caller connection")
				}
				return back.Request(ctx, transport.NewEnvelope("ping", []byte("back")))
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			dialer, ok := network.(transport.Dialer)
			if !ok {
				t.Fatalf("%T does not implement Dialer", network)
			}
			cli, err := dialer.Dial(&echoHandler{name: "cli"})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			if cli.Addr() == "" || cli.Addr() == srv.Addr() {
				t.Fatalf("client addr %q must be a distinct synthetic address", cli.Addr())
			}

			reply, err := cli.Request(context.Background(), srv.Addr(), transport.NewEnvelope("ping", []byte("x")))
			if err != nil {
				t.Fatal(err)
			}
			if string(reply.Body) != "srv:x" {
				t.Fatalf("reply = %q", reply.Body)
			}
			if err := cli.Send(context.Background(), srv.Addr(), transport.NewEnvelope("ping", []byte("y"))); err != nil {
				t.Fatal(err)
			}
			reply, err = cli.Request(context.Background(), srv.Addr(), transport.NewEnvelope("call-back", nil))
			if err != nil {
				t.Fatal(err)
			}
			if string(reply.Body) != "cli:back" {
				t.Fatalf("call-back reply = %q, want the client handler's", reply.Body)
			}
		})
	}
}

func TestDialFaultyNetworkPassthrough(t *testing.T) {
	t.Parallel()
	inner := transport.NewInprocNetwork()
	defer inner.Close()
	fn := transport.NewFaultyNetwork(inner, transport.FaultPlan{Seed: 1})
	h := &echoHandler{name: "srv"}
	srv, err := fn.Register("srv", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := fn.Dial(&echoHandler{name: "cli"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	reply, err := cli.Request(context.Background(), srv.Addr(), transport.NewEnvelope("ping", []byte("z")))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Body) != "srv:z" {
		t.Fatalf("reply = %q", reply.Body)
	}
}

func TestDialUnknownAddressIsPermanent(t *testing.T) {
	t.Parallel()
	n := transport.NewInprocNetwork()
	defer n.Close()
	cli, err := n.Dial(&echoHandler{name: "cli"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Request(context.Background(), "nobody-home", transport.NewEnvelope("ping", nil))
	if err == nil {
		t.Fatal("want error")
	}
	if !transport.Permanent(err) {
		t.Fatalf("dialing an unknown address must classify permanent, got %v", err)
	}
	if !strings.Contains(err.Error(), "nobody-home") && !errors.Is(err, transport.ErrUnknownAddress) {
		t.Fatalf("unexpected error %v", err)
	}
}

// TestReliableStopsOnAnsweredRefusal: a far handler's error that the
// receiver's Dedup returns is final — every repeat would get the same
// cached error — so Reliable gives it to its caller at once, in process
// and over TCP, where the mark rides the "error" reply. An error from
// behind no Dedup (an older peer's reply carries no mark) and a handler
// ending on a context stay transient and are repeated.
func TestReliableStopsOnAnsweredRefusal(t *testing.T) {
	refused := errors.New("receipt refused")
	inproc, tcp := transport.NewInprocNetwork(), transport.NewTCPNetwork()
	defer inproc.Close()
	defer tcp.Close()
	for _, c := range []struct {
		name string
		net  transport.Network
		addr func(name string) string
	}{
		{"inproc", inproc, func(name string) string { return name }},
		{"tcp", tcp, func(string) string { return "127.0.0.1:0" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var calls, deliveries atomic.Int64
			var cause atomic.Pointer[error] // what the handler behind Dedup returns
			cause.Store(&refused)
			dedup := transport.NewDedupWith(transport.HandlerFunc(func(context.Context, *transport.Envelope) (*transport.Envelope, error) {
				calls.Add(1)
				return nil, *cause.Load()
			}), nil)
			register := func(name string, h transport.Handler) transport.Endpoint {
				ep, err := c.net.Register(c.addr(name), transport.HandlerFunc(func(ctx context.Context, env *transport.Envelope) (*transport.Envelope, error) {
					deliveries.Add(1)
					return h.Handle(ctx, env)
				}))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = ep.Close() })
				return ep
			}
			sender := register("sender", transport.HandlerFunc(func(context.Context, *transport.Envelope) (*transport.Envelope, error) {
				return nil, nil
			}))
			send := func(to transport.Endpoint, policy transport.RetryPolicy) error {
				calls.Store(0)
				deliveries.Store(0)
				return transport.NewReliable(sender, policy).Send(context.Background(), to.Addr(), transport.NewEnvelope("deliver", nil))
			}
			policy := transport.RetryPolicy{Attempts: 3, Backoff: time.Millisecond, NoJitter: true}

			deduped := register("deduped", dedup)
			start := time.Now()
			err := send(deduped, transport.DefaultRetryPolicy)
			if took := time.Since(start); err == nil || !strings.Contains(err.Error(), "receipt refused") || strings.Contains(err.Error(), "[answered]") ||
				deliveries.Load() != 1 || took > 50*time.Millisecond {
				t.Fatalf("answered refusal: %v after %d deliveries in %v, want the refusal after 1 within 50ms", err, deliveries.Load(), took)
			}

			canceled := context.Canceled
			cause.Store(&canceled)
			if err := send(deduped, policy); err == nil || calls.Load() != 1 || deliveries.Load() != 3 {
				t.Fatalf("context ending behind Dedup: %v after %d handler calls and %d deliveries, want 1 and 3", err, calls.Load(), deliveries.Load())
			}

			raw := register("raw", transport.HandlerFunc(func(context.Context, *transport.Envelope) (*transport.Envelope, error) {
				return nil, refused
			}))
			if err := send(raw, policy); err == nil || deliveries.Load() != 3 {
				t.Fatalf("refusal from behind no Dedup: %v after %d deliveries, want 3", err, deliveries.Load())
			}
		})
	}
}
