package transport_test

import (
	"context"
	"testing"

	"nonrep/internal/transport"
)

func TestMeteredCountsTraffic(t *testing.T) {
	t.Parallel()
	inner := transport.NewInprocNetwork()
	defer inner.Close()
	metered := transport.NewMeteredWith(inner, nil)
	h := &echoHandler{name: "b"}
	b, err := metered.Register("b", h)
	if err != nil {
		t.Fatal(err)
	}
	a, err := metered.Register("a", &echoHandler{name: "a"})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := a.Request(context.Background(), b.Addr(), transport.NewEnvelope("x", []byte("12345"))); err != nil {
		t.Fatal(err)
	}
	// Request counts as 2 messages (request + reply).
	if metered.Messages() != 2 {
		t.Fatalf("Messages = %d, want 2", metered.Messages())
	}
	if metered.Bytes() < 5 {
		t.Fatalf("Bytes = %d, want ≥ 5", metered.Bytes())
	}
	if err := a.Send(context.Background(), b.Addr(), transport.NewEnvelope("x", []byte("123"))); err != nil {
		t.Fatal(err)
	}
	if metered.Messages() != 3 {
		t.Fatalf("Messages = %d, want 3", metered.Messages())
	}
	metered.Reset()
	if metered.Messages() != 0 || metered.Bytes() != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestTCPRejectsOversizedFrame(t *testing.T) {
	t.Parallel()
	network := transport.NewTCPNetwork()
	b, err := network.Register("127.0.0.1:0", &echoHandler{name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := network.Register("127.0.0.1:0", &echoHandler{name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	huge := make([]byte, 17<<20) // over the 16 MiB frame cap
	_, err = a.Request(context.Background(), b.Addr(), transport.NewEnvelope("x", huge))
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestReliableSendRetries(t *testing.T) {
	t.Parallel()
	inner := transport.NewInprocNetwork()
	defer inner.Close()
	// Unknown destination: Send fails every attempt, surfacing the final
	// error rather than hanging.
	raw, err := inner.Register("a", &echoHandler{name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	rel := transport.NewReliable(raw, transport.RetryPolicy{Attempts: 3, Backoff: 0})
	if err := rel.Send(context.Background(), "missing", transport.NewEnvelope("x", nil)); err == nil {
		t.Fatal("Send to unknown address succeeded")
	}
	if _, err := rel.Request(context.Background(), "missing", transport.NewEnvelope("x", nil)); err == nil {
		t.Fatal("Request to unknown address succeeded")
	}
}

func TestReliableRespectsContext(t *testing.T) {
	t.Parallel()
	inner := transport.NewInprocNetwork()
	defer inner.Close()
	raw, err := inner.Register("a", &echoHandler{name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	rel := transport.NewReliable(raw, transport.RetryPolicy{Attempts: 100, Backoff: 10_000_000 /* 10ms */})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rel.Request(ctx, "missing", transport.NewEnvelope("x", nil)); err == nil {
		t.Fatal("Request with cancelled context succeeded")
	}
}

func TestZeroAttemptsNormalised(t *testing.T) {
	t.Parallel()
	inner := transport.NewInprocNetwork()
	defer inner.Close()
	h := &echoHandler{name: "b"}
	b, err := inner.Register("b", h)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := inner.Register("a", &echoHandler{name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	rel := transport.NewReliable(raw, transport.RetryPolicy{})
	if _, err := rel.Request(context.Background(), b.Addr(), transport.NewEnvelope("x", nil)); err != nil {
		t.Fatalf("Request with zero-valued policy: %v", err)
	}
}
