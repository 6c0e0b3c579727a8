package transport_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonrep/internal/id"
	"nonrep/internal/transport"
)

func TestTenantAddrRoundTrip(t *testing.T) {
	t.Parallel()
	addr := transport.JoinTenantAddr("127.0.0.1:4000", "urn:org:a")
	wire, tenant := transport.SplitTenantAddr(addr)
	if wire != "127.0.0.1:4000" || tenant != "urn:org:a" {
		t.Fatalf("SplitTenantAddr = %q, %q", wire, tenant)
	}
	wire, tenant = transport.SplitTenantAddr("127.0.0.1:4000")
	if wire != "127.0.0.1:4000" || tenant != "" {
		t.Fatalf("SplitTenantAddr(dedicated) = %q, %q", wire, tenant)
	}
}

// countingResolver routes tenant keys to counting handlers, wrapping each
// in the standard per-tenant chain.
type countingResolver struct {
	mu       sync.Mutex
	chains   map[string]transport.Handler
	handled  map[string]*atomic.Int64
	lastBody map[string]*atomic.Pointer[string]
}

func newCountingResolver(tenants ...string) *countingResolver {
	r := &countingResolver{
		chains:   make(map[string]transport.Handler),
		handled:  make(map[string]*atomic.Int64),
		lastBody: make(map[string]*atomic.Pointer[string]),
	}
	for _, tenant := range tenants {
		tenant := tenant
		count := &atomic.Int64{}
		last := &atomic.Pointer[string]{}
		r.handled[tenant] = count
		r.lastBody[tenant] = last
		inner := transport.HandlerFunc(func(_ context.Context, env *transport.Envelope) (*transport.Envelope, error) {
			count.Add(1)
			body := string(env.Body)
			last.Store(&body)
			if env.Kind == "boom" {
				return nil, fmt.Errorf("tenant %s refuses", tenant)
			}
			return transport.NewEnvelope("re:"+tenant, env.Body), nil
		})
		r.chains[tenant] = transport.NewTenantChain(inner, nil)
	}
	return r
}

func (r *countingResolver) TenantHandler(tenant string) transport.Handler {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.chains[tenant]
}

func TestTenantMuxRoutesSingles(t *testing.T) {
	t.Parallel()
	r := newCountingResolver("urn:org:a", "urn:org:b")
	mux := transport.NewTenantMux(r)

	env := transport.NewEnvelope("ping", []byte("ha"))
	env.Tenant = "urn:org:a"
	reply, err := mux.Handle(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != "re:urn:org:a" {
		t.Fatalf("reply kind = %q", reply.Kind)
	}
	if got := r.handled["urn:org:a"].Load(); got != 1 {
		t.Fatalf("tenant a handled %d, want 1", got)
	}
	if got := r.handled["urn:org:b"].Load(); got != 0 {
		t.Fatalf("tenant b handled %d, want 0", got)
	}

	unknown := transport.NewEnvelope("ping", nil)
	unknown.Tenant = "urn:org:nobody"
	if _, err := mux.Handle(context.Background(), unknown); !errors.Is(err, transport.ErrUnknownTenant) {
		t.Fatalf("unknown tenant error = %v, want ErrUnknownTenant", err)
	}
}

// TestTenantMuxMixedBatch exercises the cross-tenant batch path: one
// coalesced wire envelope carrying sub-envelopes for two tenants, an
// unknown tenant and a malformed item is regrouped per tenant, every item
// is answered, and replies come back in the original item order.
func TestTenantMuxMixedBatch(t *testing.T) {
	t.Parallel()
	r := newCountingResolver("urn:org:a", "urn:org:b")
	mux := transport.NewTenantMux(r)

	sub := func(tenant, body string, wantReply bool) transport.BatchItem {
		env := transport.NewEnvelope("ping", []byte(body))
		env.Tenant = tenant
		return transport.BatchItem{Env: env, WantReply: wantReply}
	}
	batch := &transport.Envelope{
		ID:   id.NewMsg(),
		Kind: transport.KindBatch,
		Batch: []transport.BatchItem{
			sub("urn:org:a", "a1", true),
			sub("urn:org:b", "b1", true),
			{}, // malformed: no envelope
			sub("urn:org:nobody", "x", true),
			sub("urn:org:a", "a2", false),
		},
	}
	reply, err := mux.Handle(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != transport.KindBatchReply || len(reply.Batch) != 5 {
		t.Fatalf("reply = %+v", reply)
	}
	if got := reply.Batch[0].Env; got == nil || got.Kind != "re:urn:org:a" || string(got.Body) != "a1" {
		t.Fatalf("item 0 reply = %+v", got)
	}
	if got := reply.Batch[1].Env; got == nil || got.Kind != "re:urn:org:b" || string(got.Body) != "b1" {
		t.Fatalf("item 1 reply = %+v", got)
	}
	if reply.Batch[2].Err == "" {
		t.Fatal("malformed item not answered with an error")
	}
	if reply.Batch[3].Err == "" {
		t.Fatal("unknown-tenant item not answered with an error")
	}
	if reply.Batch[4].Err != "" || reply.Batch[4].Env != nil {
		t.Fatalf("one-way item reply = %+v", reply.Batch[4])
	}
	if got := r.handled["urn:org:a"].Load(); got != 2 {
		t.Fatalf("tenant a handled %d, want 2", got)
	}
	if got := r.handled["urn:org:b"].Load(); got != 1 {
		t.Fatalf("tenant b handled %d, want 1", got)
	}
}

// TestTenantDedupSharded proves the exactly-once window is per tenant:
// the same envelope identifier is processed once per tenant, and one
// tenant's flood cannot evict another tenant's replay entries.
func TestTenantDedupSharded(t *testing.T) {
	t.Parallel()
	r := newCountingResolver("urn:org:a", "urn:org:b")
	mux := transport.NewTenantMux(r)

	// The same message ID delivered to two tenants: both must process it —
	// replay state is not shared between tenants.
	shared := id.NewMsg()
	for _, tenant := range []string{"urn:org:a", "urn:org:b"} {
		env := &transport.Envelope{ID: shared, Kind: "ping", Tenant: tenant}
		if _, err := mux.Handle(context.Background(), env); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := r.handled["urn:org:a"].Load(), r.handled["urn:org:b"].Load(); a != 1 || b != 1 {
		t.Fatalf("handled = %d, %d; want 1, 1", a, b)
	}

	// A retransmission to the same tenant is deduplicated.
	env := &transport.Envelope{ID: shared, Kind: "ping", Tenant: "urn:org:a"}
	if _, err := mux.Handle(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	if got := r.handled["urn:org:a"].Load(); got != 1 {
		t.Fatalf("tenant a handled %d after replay, want 1", got)
	}

	// Tenant b floods its own window; tenant a's replay entry survives.
	for i := 0; i < 5000; i++ {
		flood := transport.NewEnvelope("ping", nil)
		flood.Tenant = "urn:org:b"
		if _, err := mux.Handle(context.Background(), flood); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mux.Handle(context.Background(), &transport.Envelope{ID: shared, Kind: "ping", Tenant: "urn:org:a"}); err != nil {
		t.Fatal(err)
	}
	if got := r.handled["urn:org:a"].Load(); got != 1 {
		t.Fatalf("tenant a handled %d after cross-tenant flood, want 1 (window evicted by another tenant)", got)
	}
}

// TestTenantAddressingEndpoint checks the sender side: a tenant-qualified
// destination is split into the wire address and the envelope's tenant
// key before transmission.
func TestTenantAddressingEndpoint(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	defer network.Close()

	var gotTenant atomic.Pointer[string]
	_, err := network.Register("shared", transport.HandlerFunc(func(_ context.Context, env *transport.Envelope) (*transport.Envelope, error) {
		tenant := env.Tenant
		gotTenant.Store(&tenant)
		return transport.NewEnvelope("ok", nil), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := network.Register("sender", transport.HandlerFunc(func(context.Context, *transport.Envelope) (*transport.Envelope, error) {
		return nil, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	ep := transport.WithTenantAddressing(raw)
	if _, err := ep.Request(context.Background(), transport.JoinTenantAddr("shared", "urn:org:a"), transport.NewEnvelope("ping", nil)); err != nil {
		t.Fatal(err)
	}
	if got := gotTenant.Load(); got == nil || *got != "urn:org:a" {
		t.Fatalf("tenant seen by receiver = %v", got)
	}
	// A dedicated destination passes through untouched.
	if _, err := ep.Request(context.Background(), "shared", transport.NewEnvelope("ping", nil)); err != nil {
		t.Fatal(err)
	}
	if got := gotTenant.Load(); got == nil || *got != "" {
		t.Fatalf("tenant on dedicated send = %v, want empty", got)
	}
}

// TestTCPNetworkClose is the regression test for the leaked-listener bug:
// closing the network must stop every listener registered through it,
// and further registrations must fail.
func TestTCPNetworkClose(t *testing.T) {
	t.Parallel()
	network := transport.NewTCPNetwork()
	noop := transport.HandlerFunc(func(context.Context, *transport.Envelope) (*transport.Envelope, error) {
		return nil, nil
	})
	var addrs []string
	for i := 0; i < 3; i++ {
		ep, err := network.Register("127.0.0.1:0", noop)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ep.Addr())
	}
	for _, addr := range addrs {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatalf("pre-close dial %s: %v", addr, err)
		}
		_ = conn.Close()
	}
	if err := network.Close(); err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond); err == nil {
			_ = conn.Close()
			t.Fatalf("listener at %s survived network Close", addr)
		}
	}
	if _, err := network.Register("127.0.0.1:0", noop); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Register after Close = %v, want ErrClosed", err)
	}
}
