// Multi-tenant coordinator host: one process — and one transport
// endpoint — serving many organisations' coordinators. The paper's
// trusted interceptor assumes one coordinator endpoint per organisation;
// a Host lifts that to a shared dispatch runtime so a domain can serve
// many (small) organisations without one heavyweight listener each.
// Incoming envelopes carry a tenant key (stamped from tenant-qualified
// addresses by the transport layer) and are dispatched through one tenant
// map read lock-free on the hot path; every tenant
// keeps fully isolated services — issuer, verifier, evidence log, state
// store — and its own replay-dedup window and batch-opening workers, so
// no tenant can exhaust another's exactly-once state.
package protocol

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"nonrep/internal/id"
	"nonrep/internal/transport"
)

// ErrHostClosed is returned for operations on a closed host.
var ErrHostClosed = errors.New("protocol: host closed")

// ErrTenantEnrolled is returned when adding a tenant whose party the host
// already serves.
var ErrTenantEnrolled = errors.New("protocol: tenant already hosted")

// tenantMap is a host's immutable tenant table; writers replace the whole
// map under the host mutex (swapLocked), readers load it atomically.
type tenantMap map[string]*hostTenant

// hostTenant is one hosted organisation's runtime: its coordinator and
// its private receive chain (batch opener over replay dedup over the
// coordinator's dispatch).
type hostTenant struct {
	co    *Coordinator
	chain transport.Handler
}

// Host is a multi-tenant coordinator runtime. All hosted
// coordinators share the host's endpoint for both directions: incoming
// envelopes are demultiplexed by tenant key, and outgoing envelopes from
// all tenants share one retransmission stack, each travelling as its own
// exchange so no tenant's call waits behind another's.
type Host struct {
	ep      transport.Endpoint
	tenants atomic.Pointer[tenantMap]

	// mu serialises tenant registration — rare: tenant add and remove,
	// worker connect — and guards closed and gw.
	mu     sync.Mutex
	closed bool
	gw     *WorkerGateway
}

var _ transport.TenantResolver = (*Host)(nil)

// NewHost registers a shared multi-tenant endpoint at addr on the
// network. Options are the coordinator options.
func NewHost(network transport.Network, addr string, opts ...Option) (*Host, error) {
	cfg := config{retry: transport.DefaultRetryPolicy}
	for _, opt := range opts {
		opt(&cfg)
	}
	h := &Host{}
	h.tenants.Store(&tenantMap{})
	ep, err := network.Register(addr, transport.NewTenantMux(h))
	if err != nil {
		return nil, err
	}
	h.ep = wrapEndpoint(ep, cfg)
	return h, nil
}

// Addr returns the host's shared wire address. Hosted coordinators
// advertise tenant-qualified addresses derived from it.
func (h *Host) Addr() string { return h.ep.Addr() }

// TenantHandler implements transport.TenantResolver: the per-envelope
// dispatch lookup. It is lock-free — one atomic load of the tenant table —
// so heavy traffic to one tenant never contends with another tenant's
// dispatch or with tenant registration.
func (h *Host) TenantHandler(tenant string) transport.Handler {
	t, ok := (*h.tenants.Load())[tenant]
	if !ok {
		return nil
	}
	return t.chain
}

// swapLocked replaces the tenant table with a copy edit has changed. The
// caller holds h.mu.
func (h *Host) swapLocked(edit func(tenantMap)) {
	next := maps.Clone(*h.tenants.Load())
	edit(next)
	h.tenants.Store(&next)
}

// Add starts a hosted coordinator for svc.Party behind the shared
// endpoint. The tenant's receive chain — replay-dedup window and batch
// workers — is private to it, and svc (issuer, verifier, log, states) is
// the tenant's own; the host shares nothing between tenants but the wire.
// The coordinator registers its tenant-qualified address in the
// services' directory; closing it detaches the tenant from the host
// without disturbing the shared endpoint.
func (h *Host) Add(svc *Services) (*Coordinator, error) {
	key := string(svc.Party)
	c := &Coordinator{svc: svc, handlers: make(map[string]Handler)}
	c.ep = &hostedEndpoint{host: h, tenant: key}
	t := &hostTenant{
		co:    c,
		chain: transport.NewTenantChain(transport.HandlerFunc(c.handle), svc.Obs),
	}

	// The host mutex spans the closed check and the insert, so an Add
	// racing Close either fails with ErrHostClosed or completes its
	// insert before Close sweeps the tenants — never slipping a tenant
	// into a closed host.
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrHostClosed
	}
	if _, exists := (*h.tenants.Load())[key]; exists {
		return nil, fmt.Errorf("%w: %s", ErrTenantEnrolled, svc.Party)
	}
	h.swapLocked(func(m tenantMap) { m[key] = t })
	// The directory registration happens under the host mutex, paired
	// with Remove's unregistration: a Remove/Add race on one party is
	// then fully serialised (Add fails with ErrTenantEnrolled until the
	// Remove's critical section — including its unregister — completes),
	// so a late detach can never delete a successor's registration.
	svc.Directory.Register(svc.Party, c.ep.Addr())
	return c, nil
}

// Remove detaches a hosted party from the host. In-flight deliveries
// holding the old chain complete; new envelopes for the tenant fail with
// ErrUnknownTenant. The detached tenant's directory registration is
// withdrawn (while it still names this host's tenant-qualified address),
// so peers resolving the party fail fast instead of addressing a tenant
// the host no longer serves.
func (h *Host) Remove(p id.Party) {
	key := string(p)
	h.mu.Lock()
	t, ok := (*h.tenants.Load())[key]
	if !ok || t.co == nil {
		// Raw tenants (the worker gateway's) stay until the host closes.
		h.mu.Unlock()
		return
	}
	h.swapLocked(func(m tenantMap) { delete(m, key) })
	// Unregister inside the host mutex, mirroring Add's register: see
	// the comment there for why this ordering is race-free.
	t.co.svc.Directory.Unregister(p, t.co.ep.Addr())
	h.mu.Unlock()
	// Detach outside the host mutex: teardown closes feed hubs whose
	// delivery goroutines may be mid-push through this host, and a
	// re-enrolment racing in only needs the map swap above to be safe.
	t.co.detachHandlers()
}

// Coordinator returns the hosted coordinator of a party.
func (h *Host) Coordinator(p id.Party) (*Coordinator, error) {
	t, ok := (*h.tenants.Load())[string(p)]
	if !ok || t.co == nil {
		return nil, fmt.Errorf("%w: %q", transport.ErrUnknownTenant, p)
	}
	return t.co, nil
}

// Parties lists the hosted parties. Raw tenants — the worker gateway's
// control channel and its workers' mailboxes — are not hosted
// coordinators and are excluded.
func (h *Host) Parties() []id.Party {
	var out []id.Party
	for key, t := range *h.tenants.Load() {
		if t.co != nil {
			out = append(out, id.Party(key))
		}
	}
	return out
}

// addRawTenant registers a bare handler under a tenant key — no
// coordinator, no directory registration. The worker gateway uses it for
// its control channel and for each connected worker's mailbox.
func (h *Host) addRawTenant(key string, handler transport.Handler) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrHostClosed
	}
	if _, exists := (*h.tenants.Load())[key]; exists {
		return fmt.Errorf("%w: %s", ErrTenantEnrolled, key)
	}
	h.swapLocked(func(m tenantMap) { m[key] = &hostTenant{chain: handler} })
	return nil
}

// Close detaches every tenant and closes the shared endpoint, stopping the
// listener.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	gw := h.gw
	h.mu.Unlock()
	if gw != nil {
		gw.close()
	}
	for _, p := range h.Parties() {
		h.Remove(p)
	}
	return h.ep.Close()
}

// hostedEndpoint is a hosted coordinator's view of the shared endpoint:
// sends delegate to the host's stack (reliable retransmission, chunking,
// tenant addressing), the advertised address is
// tenant-qualified so peers' envelopes route back to this tenant, and
// Close detaches only this tenant.
type hostedEndpoint struct {
	host   *Host
	tenant string

	closeOnce sync.Once
}

var _ transport.Endpoint = (*hostedEndpoint)(nil)

// Addr implements transport.Endpoint.
func (e *hostedEndpoint) Addr() string {
	return transport.JoinTenantAddr(e.host.ep.Addr(), e.tenant)
}

// Send implements transport.Endpoint.
func (e *hostedEndpoint) Send(ctx context.Context, to string, env *transport.Envelope) error {
	return e.host.ep.Send(ctx, to, env)
}

// Request implements transport.Endpoint.
func (e *hostedEndpoint) Request(ctx context.Context, to string, env *transport.Envelope) (*transport.Envelope, error) {
	return e.host.ep.Request(ctx, to, env)
}

// Close implements transport.Endpoint by detaching the tenant; the
// shared endpoint stays up for the host's other tenants.
func (e *hostedEndpoint) Close() error {
	e.closeOnce.Do(func() { e.host.Remove(id.Party(e.tenant)) })
	return nil
}
