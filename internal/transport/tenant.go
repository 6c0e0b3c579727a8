// Tenant demultiplexing: many organisations' coordinators share one
// transport endpoint. A hosted party's address is tenant-qualified —
// "sharedAddr#tenantKey" — so senders need no new wire machinery: the
// tenant-addressing endpoint wrapper splits the address, stamps the
// envelope's Tenant key and sends to the shared address. The receiving
// TenantMux routes each envelope to its tenant's own handler chain, and
// regroups a b2b-batch envelope from an older peer — which may mix
// tenants — per tenant. Replay de-duplication and batch opening are part of
// those per-tenant chains, so one tenant's traffic can never evict
// another tenant's entries from its exactly-once window.
package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"nonrep/internal/id"
	"nonrep/internal/obs"
)

// ErrUnknownTenant is returned when an envelope names a tenant the
// receiving host does not serve.
var ErrUnknownTenant = errors.New("transport: unknown tenant")

// tenantSep separates a shared endpoint address from a tenant key in a
// tenant-qualified address.
const tenantSep = "#"

// JoinTenantAddr forms the tenant-qualified address of a tenant hosted
// behind a shared endpoint address.
func JoinTenantAddr(addr, tenant string) string {
	return addr + tenantSep + tenant
}

// SplitTenantAddr splits a possibly tenant-qualified address into the
// wire address and the tenant key (empty for dedicated addresses).
func SplitTenantAddr(addr string) (wire, tenant string) {
	if i := strings.Index(addr, tenantSep); i >= 0 {
		return addr[:i], addr[i+len(tenantSep):]
	}
	return addr, ""
}

// WithTenantAddressing wraps an endpoint so it can send to
// tenant-qualified destinations: "addr#tenant" stamps the envelope's
// Tenant key and sends to addr.
func WithTenantAddressing(inner Endpoint) Endpoint {
	return &tenantAddressing{inner: inner}
}

type tenantAddressing struct {
	inner Endpoint
}

var _ Endpoint = (*tenantAddressing)(nil)

// Addr implements Endpoint.
func (t *tenantAddressing) Addr() string { return t.inner.Addr() }

// Send implements Endpoint.
func (t *tenantAddressing) Send(ctx context.Context, to string, env *Envelope) error {
	wire, tenant := SplitTenantAddr(to)
	if tenant != "" {
		env.Tenant = tenant
	}
	return t.inner.Send(ctx, wire, env)
}

// Request implements Endpoint.
func (t *tenantAddressing) Request(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	wire, tenant := SplitTenantAddr(to)
	if tenant != "" {
		env.Tenant = tenant
	}
	return t.inner.Request(ctx, wire, env)
}

// Close implements Endpoint.
func (t *tenantAddressing) Close() error { return t.inner.Close() }

// NewTenantChain builds the standard per-tenant receive chain around a
// tenant's handler: batch opening outside replay de-duplication outside
// chunk reassembly, exactly as a dedicated coordinator arranges them —
// but one instance per tenant, so the dedup window, batch worker pool and
// chunk-reassembly buffers are sharded per tenant. Chunk reassembly sits
// inside de-duplication so every chunk slice is absorbed exactly once and
// a retransmitted final slice returns the cached reply instead of
// re-dispatching the assembled envelope. The chain's instruments (dedup
// hits, chunk reassembly sizes) are homed in the tenant's telemetry scope
// (nil means uninstrumented).
func NewTenantChain(inner Handler, scope *obs.Scope) Handler {
	return NewBatchOpener(NewDedupWith(NewChunkHandler(inner, scope), scope))
}

// TenantResolver resolves a tenant key to the tenant's receive chain.
// Implementations must be safe for concurrent use; the resolution sits on
// the per-envelope hot path, so lock-free reads are expected. A nil
// return means the tenant is unknown.
type TenantResolver interface {
	TenantHandler(tenant string) Handler
}

// TenantMux is the shared endpoint's handler: it demultiplexes incoming
// envelopes to per-tenant chains. Single envelopes route by their Tenant
// key; batch envelopes — which may mix tenants, because older senders
// coalesced across tenants per peer host — are regrouped into one
// sub-batch per tenant, dispatched concurrently through each tenant's
// own chain, and their replies reassembled in the original order.
type TenantMux struct {
	resolve TenantResolver
}

var _ Handler = (*TenantMux)(nil)

// NewTenantMux creates a mux resolving tenants through r.
func NewTenantMux(r TenantResolver) *TenantMux {
	return &TenantMux{resolve: r}
}

// Handle implements Handler.
func (m *TenantMux) Handle(ctx context.Context, env *Envelope) (*Envelope, error) {
	if env.Kind == KindBatch {
		return m.handleBatch(ctx, env)
	}
	h := m.resolve.TenantHandler(env.Tenant)
	if h == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, env.Tenant)
	}
	return h.Handle(ctx, env)
}

// handleBatch regroups a possibly mixed-tenant batch and dispatches each
// tenant's group as its own batch envelope through that tenant's chain.
func (m *TenantMux) handleBatch(ctx context.Context, env *Envelope) (*Envelope, error) {
	// Group item indexes by tenant, preserving arrival order within each
	// group. Tenant order is kept deterministic for the dispatch loop.
	groups := make(map[string][]int)
	var order []string
	for i, item := range env.Batch {
		if item.Env == nil {
			continue // answered below without dispatch
		}
		key := item.Env.Tenant
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}

	replies := make([]BatchItem, len(env.Batch))
	for i, item := range env.Batch {
		if item.Env == nil {
			replies[i] = BatchItem{Err: "transport: batch item missing envelope"}
		}
	}

	dispatch := func(tenant string, idxs []int) {
		h := m.resolve.TenantHandler(tenant)
		if h == nil {
			for _, i := range idxs {
				replies[i] = BatchItem{Err: fmt.Sprintf("%v: %q", ErrUnknownTenant, tenant)}
			}
			return
		}
		items := make([]BatchItem, len(idxs))
		for j, i := range idxs {
			items[j] = env.Batch[i]
		}
		sub := &Envelope{ID: id.NewMsg(), From: env.From, To: env.To, Kind: KindBatch, Batch: items}
		reply, err := h.Handle(ctx, sub)
		if err != nil {
			for _, i := range idxs {
				replies[i] = BatchItem{Err: err.Error()}
			}
			return
		}
		if reply == nil || reply.Kind != KindBatchReply || len(reply.Batch) != len(idxs) {
			for _, i := range idxs {
				replies[i] = BatchItem{Err: fmt.Sprintf("transport: malformed tenant batch reply for %q", tenant)}
			}
			return
		}
		for j, i := range idxs {
			replies[i] = reply.Batch[j]
		}
	}

	if len(order) == 1 {
		dispatch(order[0], groups[order[0]])
	} else {
		var wg sync.WaitGroup
		for _, tenant := range order {
			wg.Add(1)
			go func(tenant string, idxs []int) {
				defer wg.Done()
				dispatch(tenant, idxs)
			}(tenant, groups[tenant])
		}
		wg.Wait()
	}
	return &Envelope{ID: id.NewMsg(), Kind: KindBatchReply, Batch: replies}, nil
}
