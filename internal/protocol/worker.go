// Outbound worker links, gateway side. Components behind NAT cannot run a
// listener, so instead of the host dialling workers, workers dial the
// host: a WorkerGateway attached to a Host queues envelopes addressed to
// worker tenants, and connected workers pull them over long-poll requests
// on a reserved control tenant, pushing results back the same way. The
// gateway gives every tenant an equal admission cap so one tenant's
// backlog cannot exhaust the queue, dispatches fairly across the tenants
// a link serves (round-robin), tracks link liveness through
// leases renewed by polls and heartbeats, re-queues in-flight work when a
// worker reconnects under a new lease, and drains gracefully — refusing
// new work while letting dispatched work finish.
package protocol

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/clock"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/transport"
)

// WorkerControlTenant is the reserved tenant key of the worker gateway's
// control channel. The leading '~' keeps it outside the party namespace
// used for hosted and worker tenants.
const WorkerControlTenant = "~worker-gateway"

// Control-channel envelope kinds.
const (
	envWorkerHello     = "worker-hello"
	envWorkerLease     = "worker-lease"
	envWorkerHeartbeat = "worker-heartbeat"
	envWorkerPoll      = "worker-poll"
	envWorkerJobs      = "worker-jobs"
	envWorkerResult    = "worker-result"
	envWorkerAck       = "worker-ack"
	envWorkerBye       = "worker-bye"
)

// Errors reported by the worker gateway.
var (
	// ErrGatewayBusy rejects an envelope whose tenant's queue is at its
	// admission cap. It is temporary: senders' reliable layer retries.
	ErrGatewayBusy = errors.New("protocol: worker gateway queue full")
	// ErrGatewayDraining rejects new work while the gateway drains.
	ErrGatewayDraining = errors.New("protocol: worker gateway draining")
	// ErrLeaseExpired is returned for control operations under a lease the
	// gateway no longer honours; the worker reconnects with a new hello.
	ErrLeaseExpired = errors.New("protocol: worker lease expired or unknown")
	// ErrWorkerFailed wraps an execution error reported by a worker.
	ErrWorkerFailed = errors.New("protocol: worker execution failed")
)

// transientError marks gateway backpressure as retryable for
// transport.Permanent, which would otherwise only recognise its own
// sentinels.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Temporary() bool { return true }
func (e *transientError) Unwrap() error   { return e.err }

// Control-channel wire bodies (canonical JSON in envelope bodies).

type workerHelloBody struct {
	Parties []id.Party `json:"parties"`
	TTLMs   int64      `json:"ttl_ms,omitempty"`
}

type workerLeaseBody struct {
	Lease    string `json:"lease"`
	TTLMs    int64  `json:"ttl_ms"`
	Requeued int    `json:"requeued,omitempty"`
}

type workerHeartbeatBody struct {
	Lease string `json:"lease"`
}

type workerPollBody struct {
	Lease  string `json:"lease"`
	Max    int    `json:"max"`
	WaitMs int64  `json:"wait_ms,omitempty"`
}

// workerJob is one dispatched envelope plus the worker tenant it is for.
type workerJob struct {
	Tenant string              `json:"tenant"`
	Env    *transport.Envelope `json:"env"`
}

type workerJobsBody struct {
	Jobs     []workerJob `json:"jobs,omitempty"`
	Draining bool        `json:"draining,omitempty"`
}

type workerResultBody struct {
	Lease  string              `json:"lease"`
	Tenant string              `json:"tenant"`
	ID     id.Msg              `json:"id"`
	Reply  *transport.Envelope `json:"reply,omitempty"`
	Err    string              `json:"err,omitempty"`
}

type workerByeBody struct {
	Lease string `json:"lease"`
}

// GatewayConfig configures a worker gateway. The zero value is usable.
type GatewayConfig struct {
	// Clock drives lease expiry and long-poll waits (default the system
	// clock; tests inject clock.Manual).
	Clock clock.Clock
	// Obs homes the gateway's instruments; nil disables them.
	Obs *obs.Scope
}

const (
	// gatewayMaxQueue bounds the queued (undispatched) envelopes across
	// all tenants; each tenant's share is an equal part of it.
	gatewayMaxQueue = 1024
	// gatewayMinPerTenant floors every tenant's admission cap so a
	// gateway with many tenants never starves one to zero.
	gatewayMinPerTenant = 8
	// workerLeaseTTL is how long a link lease survives without a poll or
	// heartbeat; a worker may ask for less in its hello.
	workerLeaseTTL = 30 * time.Second
)

// workerOutcome is what a blocked request-enqueue receives when the
// worker reports its result.
type workerOutcome struct {
	reply *transport.Envelope
	err   string
}

// pendingItem is one envelope owed to a worker tenant.
type pendingItem struct {
	env       *transport.Envelope
	tenant    string
	wantReply bool
	done      chan workerOutcome // buffered 1
	completed bool               // guarded by the gateway mutex
}

// gatewayTenant is the mailbox of one worker party.
type gatewayTenant struct {
	party    string
	queue    []*pendingItem
	inflight map[id.Msg]*pendingItem
	lease    string // lease currently serving this tenant ("" when offline)
}

// workerLease is one live link's registration.
type workerLease struct {
	id      string
	parties []string
	expires time.Time
	notify  chan struct{} // buffered 1; kicked when work arrives
	rr      int           // round-robin start offset across parties
}

// WorkerGateway queues and dispatches envelopes for worker tenants of a
// Host. Create one with Host.EnableWorkerGateway.
type WorkerGateway struct {
	host *Host
	cfg  GatewayConfig
	// maxQueue and minPerTenant are gatewayMaxQueue and
	// gatewayMinPerTenant; tests shrink them.
	maxQueue, minPerTenant int

	mu          sync.Mutex
	tenants     map[string]*gatewayTenant
	leases      map[string]*workerLease
	draining    bool
	closed      bool
	queued      int
	completions chan struct{} // buffered 1; kicked when outstanding work shrinks
}

// EnableWorkerGateway attaches a worker gateway to the host, registering
// its control channel under WorkerControlTenant. It is enabled at most
// once per host.
func (h *Host) EnableWorkerGateway(cfg GatewayConfig) (*WorkerGateway, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	gw := &WorkerGateway{
		host:         h,
		cfg:          cfg,
		maxQueue:     gatewayMaxQueue,
		minPerTenant: gatewayMinPerTenant,
		tenants:      make(map[string]*gatewayTenant),
		leases:       make(map[string]*workerLease),
		completions:  make(chan struct{}, 1),
	}
	chain := transport.NewTenantChain(transport.HandlerFunc(gw.handleControl), cfg.Obs)
	if err := h.addRawTenant(WorkerControlTenant, chain); err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.gw = gw
	h.mu.Unlock()
	return gw, nil
}

// WorkerGateway returns the host's gateway, nil when workers are not
// enabled.
func (h *Host) WorkerGateway() *WorkerGateway {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gw
}

// counter resolves a gateway instrument (nil-safe).
func (g *WorkerGateway) counter(name string) *obs.Counter { return g.cfg.Obs.Counter(name) }

// depthLocked publishes the queued depth gauge.
func (g *WorkerGateway) depthLocked() {
	g.cfg.Obs.Gauge(obs.MGatewayQueueDepth).Set(int64(g.queued))
}

// tenantLocked resolves (creating if needed) a tenant mailbox. Creation
// registers the tenant's enqueue chain with the host, so the host routes
// the party's traffic to every mailbox that exists; registration fails
// if the party is hosted as a coordinator.
func (g *WorkerGateway) tenantLocked(party string) (*gatewayTenant, error) {
	if t, ok := g.tenants[party]; ok {
		return t, nil
	}
	if err := g.host.addRawTenant(party, g.mailboxChain(party)); err != nil {
		return nil, err
	}
	t := &gatewayTenant{party: party, inflight: make(map[id.Msg]*pendingItem)}
	g.tenants[party] = t
	return t, nil
}

// capLocked is a tenant's equal share of the queue budget.
func (g *WorkerGateway) capLocked() int {
	c := g.maxQueue / max(len(g.tenants), 1)
	if c < g.minPerTenant {
		c = g.minPerTenant
	}
	return c
}

// notifyLocked kicks the lease serving a tenant, waking its long-poll.
func (g *WorkerGateway) notifyLocked(leaseID string) {
	l, ok := g.leases[leaseID]
	if !ok {
		return
	}
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// completionLocked signals Drain that outstanding work shrank.
func (g *WorkerGateway) completionLocked() {
	select {
	case g.completions <- struct{}{}:
	default:
	}
}

// enqueue admits one envelope into a worker tenant's mailbox. Requests
// block until a worker reports the result (or ctx expires); one-way
// deliveries return as soon as the envelope is queued, like a network
// send — at-least-once delivery, with protocol-level dedup downstream.
func (g *WorkerGateway) enqueue(ctx context.Context, party string, env *transport.Envelope) (*transport.Envelope, error) {
	wantReply := env.Kind != envDeliver
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if g.draining {
		g.mu.Unlock()
		g.counter(obs.MGatewayAdmissionRejects).Inc()
		return nil, &transientError{fmt.Errorf("%w: tenant %q", ErrGatewayDraining, party)}
	}
	t, err := g.tenantLocked(party)
	if err != nil {
		g.mu.Unlock()
		return nil, err
	}
	if len(t.queue) >= g.capLocked() {
		g.mu.Unlock()
		g.counter(obs.MGatewayAdmissionRejects).Inc()
		return nil, &transientError{fmt.Errorf("%w: tenant %q", ErrGatewayBusy, party)}
	}
	item := &pendingItem{env: env, tenant: party, wantReply: wantReply, done: make(chan workerOutcome, 1)}
	t.queue = append(t.queue, item)
	g.queued++
	g.depthLocked()
	g.notifyLocked(t.lease)
	g.mu.Unlock()

	if !wantReply {
		return nil, nil
	}
	select {
	case out := <-item.done:
		if out.err != "" {
			return nil, fmt.Errorf("%w: %s", ErrWorkerFailed, out.err)
		}
		return out.reply, nil
	case <-ctx.Done():
		// The item stays queued: a late worker still executes it, and the
		// protocol layers (reply cache, transport dedup) absorb the
		// duplicate when the caller retries under a fresh envelope.
		return nil, ctx.Err()
	}
}

// handleControl is the control tenant's handler.
func (g *WorkerGateway) handleControl(ctx context.Context, env *transport.Envelope) (*transport.Envelope, error) {
	switch env.Kind {
	case envWorkerHello:
		var b workerHelloBody
		if err := canon.Unmarshal(env.Body, &b); err != nil {
			return nil, err
		}
		lease, err := g.hello(b)
		if err != nil {
			return nil, err
		}
		return controlReply(envWorkerLease, lease)
	case envWorkerHeartbeat:
		var b workerHeartbeatBody
		if err := canon.Unmarshal(env.Body, &b); err != nil {
			return nil, err
		}
		lease, err := g.heartbeat(b.Lease)
		if err != nil {
			return nil, err
		}
		return controlReply(envWorkerLease, lease)
	case envWorkerPoll:
		var b workerPollBody
		if err := canon.Unmarshal(env.Body, &b); err != nil {
			return nil, err
		}
		jobs, err := g.poll(ctx, b)
		if err != nil {
			return nil, err
		}
		return controlReply(envWorkerJobs, jobs)
	case envWorkerResult:
		var b workerResultBody
		if err := canon.Unmarshal(env.Body, &b); err != nil {
			return nil, err
		}
		g.result(b)
		return transport.NewEnvelope(envWorkerAck, nil), nil
	case envWorkerBye:
		var b workerByeBody
		if err := canon.Unmarshal(env.Body, &b); err != nil {
			return nil, err
		}
		g.bye(b.Lease)
		return transport.NewEnvelope(envWorkerAck, nil), nil
	default:
		return nil, fmt.Errorf("protocol: unknown worker control kind %q", env.Kind)
	}
}

func controlReply(kind string, body any) (*transport.Envelope, error) {
	raw, err := canon.Marshal(body)
	if err != nil {
		return nil, err
	}
	return transport.NewEnvelope(kind, raw), nil
}

// sweepLocked lazily expires leases, re-queuing their in-flight work so a
// future link re-executes it.
func (g *WorkerGateway) sweepLocked(now time.Time) {
	for lid, l := range g.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(g.leases, lid)
		for _, p := range l.parties {
			t, ok := g.tenants[p]
			if !ok || t.lease != lid {
				continue
			}
			t.lease = ""
			g.requeueLocked(t)
		}
	}
}

// requeueLocked returns a tenant's in-flight items to the front of its
// queue, preserving at-least-once dispatch across link failures.
func (g *WorkerGateway) requeueLocked(t *gatewayTenant) int {
	n := len(t.inflight)
	if n == 0 {
		return 0
	}
	items := make([]*pendingItem, 0, n)
	for _, it := range t.inflight {
		items = append(items, it)
	}
	t.inflight = make(map[id.Msg]*pendingItem)
	t.queue = append(items, t.queue...)
	g.queued += n
	g.depthLocked()
	g.counter(obs.MGatewayRequeuedTotal).Add(int64(n))
	return n
}

// hello registers (or re-registers) a link serving the named parties,
// returning a fresh lease. A party already served by another live lease
// is taken over: that lease's in-flight items for the party are re-queued
// and dispatched to the new link — the split-brain resolution is that the
// newest hello wins, and results arriving from the old link are still
// accepted (see result).
func (g *WorkerGateway) hello(b workerHelloBody) (*workerLeaseBody, error) {
	if len(b.Parties) == 0 {
		return nil, fmt.Errorf("protocol: worker hello names no parties")
	}
	now := g.cfg.Clock.Now()
	ttl := workerLeaseTTL
	if b.TTLMs > 0 {
		if d := time.Duration(b.TTLMs) * time.Millisecond; d < ttl {
			ttl = d
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrHostClosed
	}
	g.sweepLocked(now)
	// Resolve every party's mailbox before taking the lease; a party
	// hosted as a coordinator cannot also be a worker.
	parties := make([]string, 0, len(b.Parties))
	for _, p := range b.Parties {
		key := string(p)
		if _, err := g.tenantLocked(key); err != nil {
			return nil, err
		}
		parties = append(parties, key)
	}
	lease := &workerLease{
		id:      "lease-" + string(id.NewMsg()),
		parties: parties,
		expires: now.Add(ttl),
		notify:  make(chan struct{}, 1),
	}
	requeued := 0
	for _, key := range parties {
		t := g.tenants[key]
		if t.lease != "" && t.lease != lease.id {
			requeued += g.requeueLocked(t)
		}
		t.lease = lease.id
	}
	g.leases[lease.id] = lease
	return &workerLeaseBody{Lease: lease.id, TTLMs: ttl.Milliseconds(), Requeued: requeued}, nil
}

// mailboxChain builds the receive chain for one worker tenant: batch
// opening, replay dedup and chunk reassembly in front of the mailbox, so
// workers see exactly the envelopes a hosted coordinator would.
func (g *WorkerGateway) mailboxChain(party string) transport.Handler {
	return transport.NewTenantChain(transport.HandlerFunc(func(ctx context.Context, env *transport.Envelope) (*transport.Envelope, error) {
		return g.enqueue(ctx, party, env)
	}), g.cfg.Obs)
}

// heartbeat renews a lease without polling.
func (g *WorkerGateway) heartbeat(leaseID string) (*workerLeaseBody, error) {
	now := g.cfg.Clock.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sweepLocked(now)
	l, ok := g.leases[leaseID]
	if !ok {
		return nil, ErrLeaseExpired
	}
	l.expires = now.Add(workerLeaseTTL)
	g.counter(obs.MWorkerHeartbeatsTotal).Inc()
	return &workerLeaseBody{Lease: l.id, TTLMs: workerLeaseTTL.Milliseconds()}, nil
}

// poll dispatches up to b.Max queued envelopes to the link, long-polling
// up to b.WaitMs for work to arrive. Dispatch across the link's parties
// is round-robin: each pass hands every party one envelope, so a
// backlogged tenant cannot monopolise the link.
func (g *WorkerGateway) poll(ctx context.Context, b workerPollBody) (*workerJobsBody, error) {
	max := b.Max
	if max <= 0 {
		max = workerPollMax
	}
	var timer clock.Timer
	if b.WaitMs > 0 {
		timer = clock.NewTimer(g.cfg.Clock, time.Duration(b.WaitMs)*time.Millisecond)
		defer timer.Stop()
	}
	for {
		now := g.cfg.Clock.Now()
		g.mu.Lock()
		g.sweepLocked(now)
		l, ok := g.leases[b.Lease]
		if !ok {
			g.mu.Unlock()
			return nil, ErrLeaseExpired
		}
		l.expires = now.Add(workerLeaseTTL)
		g.counter(obs.MWorkerPollsTotal).Inc()
		jobs := g.collectLocked(l, max)
		draining := g.draining
		notify := l.notify
		g.mu.Unlock()
		if len(jobs) > 0 || timer == nil || draining {
			return &workerJobsBody{Jobs: jobs, Draining: draining}, nil
		}
		select {
		case <-notify:
			// Work arrived (or a spurious kick): collect again.
		case <-timer.C():
			return &workerJobsBody{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// collectLocked moves up to max queued items of the lease's parties into
// their in-flight sets, round-robin.
func (g *WorkerGateway) collectLocked(l *workerLease, max int) []workerJob {
	var jobs []workerJob
	n := len(l.parties)
	if n == 0 {
		return nil
	}
	for len(jobs) < max {
		progress := false
		for i := 0; i < n && len(jobs) < max; i++ {
			key := l.parties[(l.rr+i)%n]
			t, ok := g.tenants[key]
			if !ok || t.lease != l.id || len(t.queue) == 0 {
				continue
			}
			item := t.queue[0]
			t.queue = t.queue[1:]
			t.inflight[item.env.ID] = item
			g.queued--
			jobs = append(jobs, workerJob{Tenant: key, Env: item.env})
			progress = true
		}
		l.rr++
		if !progress {
			break
		}
	}
	if len(jobs) > 0 {
		g.depthLocked()
		g.counter(obs.MGatewayDispatchTotal).Add(int64(len(jobs)))
	}
	return jobs
}

// result completes a dispatched item. Results are accepted regardless of
// lease state: after a split-brain reconnect the re-queued (or
// re-dispatched) copy of the item may still be pending, and the first
// result — from either link — completes it and withdraws the duplicate.
func (g *WorkerGateway) result(b workerResultBody) {
	g.mu.Lock()
	defer g.mu.Unlock()
	t, ok := g.tenants[b.Tenant]
	if !ok {
		return
	}
	item, ok := t.inflight[b.ID]
	if ok {
		delete(t.inflight, b.ID)
	} else {
		// Re-queued after a lease takeover but not yet re-dispatched:
		// complete it in place so the new link never re-executes it.
		for i, it := range t.queue {
			if it.env.ID == b.ID {
				item = it
				t.queue = append(t.queue[:i], t.queue[i+1:]...)
				g.queued--
				g.depthLocked()
				break
			}
		}
	}
	if item == nil {
		return // duplicate or unknown result
	}
	g.completeLocked(item, workerOutcome{reply: b.Reply, err: b.Err})
	g.completionLocked()
}

// completeLocked delivers an item's outcome exactly once; the buffered
// channel makes the send non-blocking even when the requester gave up.
func (g *WorkerGateway) completeLocked(item *pendingItem, out workerOutcome) {
	if item.completed {
		return
	}
	item.completed = true
	item.done <- out
}

// bye releases a lease gracefully, re-queuing anything still in flight.
func (g *WorkerGateway) bye(leaseID string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	l, ok := g.leases[leaseID]
	if !ok {
		return
	}
	delete(g.leases, leaseID)
	for _, p := range l.parties {
		t, ok := g.tenants[p]
		if !ok || t.lease != leaseID {
			continue
		}
		t.lease = ""
		g.requeueLocked(t)
	}
}

// Drain stops admitting new work and waits for queued and in-flight
// envelopes to complete (or ctx to expire). Connected workers keep
// polling and see the draining flag once their queues are empty.
func (g *WorkerGateway) Drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	for lid := range g.leases {
		g.notifyLocked(lid)
	}
	g.mu.Unlock()
	for {
		g.mu.Lock()
		outstanding := g.queued
		for _, t := range g.tenants {
			outstanding += len(t.inflight)
		}
		g.mu.Unlock()
		if outstanding == 0 {
			return nil
		}
		select {
		case <-g.completions:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// GatewayTenantStatus is one worker tenant's health snapshot.
type GatewayTenantStatus struct {
	Queued   int  `json:"queued"`
	InFlight int  `json:"in_flight"`
	Linked   bool `json:"linked"`
}

// GatewayStatus is the gateway's health snapshot, surfaced on /healthz.
type GatewayStatus struct {
	Links    int                            `json:"links"`
	Queued   int                            `json:"queued"`
	InFlight int                            `json:"in_flight"`
	Draining bool                           `json:"draining"`
	Tenants  map[string]GatewayTenantStatus `json:"tenants,omitempty"`
}

// Status reports the gateway's current links and backlog.
func (g *WorkerGateway) Status() GatewayStatus {
	now := g.cfg.Clock.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sweepLocked(now)
	st := GatewayStatus{Links: len(g.leases), Draining: g.draining}
	if len(g.tenants) > 0 {
		st.Tenants = make(map[string]GatewayTenantStatus, len(g.tenants))
	}
	for key, t := range g.tenants {
		st.Queued += len(t.queue)
		st.InFlight += len(t.inflight)
		st.Tenants[key] = GatewayTenantStatus{Queued: len(t.queue), InFlight: len(t.inflight), Linked: t.lease != ""}
	}
	return st
}

// close fails all pending work and detaches the gateway's tenants; called
// from Host.Close.
func (g *WorkerGateway) close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.leases = make(map[string]*workerLease)
	for key, t := range g.tenants {
		g.host.removeRawTenant(key)
		for _, it := range t.queue {
			g.completeLocked(it, workerOutcome{err: "gateway closed"})
		}
		for _, it := range t.inflight {
			g.completeLocked(it, workerOutcome{err: "gateway closed"})
		}
		t.queue = nil
		t.inflight = map[id.Msg]*pendingItem{}
		g.queued = 0
	}
	g.host.removeRawTenant(WorkerControlTenant)
	g.mu.Unlock()
}
