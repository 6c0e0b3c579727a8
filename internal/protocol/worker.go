// Outbound worker links, gateway side. Components behind NAT cannot run a
// listener, so workers dial the host: a worker says an authenticated
// hello on the reserved control tenant, and the WorkerGateway forwards
// its party's envelopes down the connection the hello came on. Each
// tenant gets an equal admission cap, a link's tenants are dispatched
// round-robin, work in flight on a connection that ends is re-queued, and
// Drain refuses new work while dispatched work finishes.
package protocol

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/transport"
)

// WorkerControlTenant is the reserved tenant key of the worker gateway's
// control channel. The leading '~' keeps it outside the party namespace
// used for hosted and worker tenants.
const WorkerControlTenant = "~worker-gateway"

// Control-channel envelope kinds. A hello routes a party down the
// connection it arrived on; a hold, sent on that connection next, is
// answered only when the link ends, so the worker learns of the end and
// the connection never idles out while the link lives.
const (
	envWorkerHello      = "worker-hello"
	envWorkerHold       = "worker-hold"
	envWorkerSuperseded = "worker-superseded"
)

// Errors reported by the worker gateway. Busy and draining refusals are
// temporary for transport.Permanent, so senders' reliable layer retries.
var (
	// ErrGatewayBusy rejects an envelope whose tenant's queue is at its
	// admission cap.
	ErrGatewayBusy = errors.New("protocol: worker gateway queue full")
	// ErrGatewayDraining rejects new work while the gateway drains.
	ErrGatewayDraining = errors.New("protocol: worker gateway draining")
	// ErrWorkerFailed wraps an execution error reported by a worker.
	ErrWorkerFailed = errors.New("protocol: worker execution failed")
	// ErrWorkerUnauthenticated refuses a hello that does not carry a
	// valid claim token from the party it names, or replays an older one.
	ErrWorkerUnauthenticated = errors.New("protocol: worker hello not authenticated")
)

// workerHelloBody is a hello's message body, and the claim its
// KindWorkerHello token signs: that Party serves behind this gateway,
// down the connection the hello arrives on.
type workerHelloBody struct {
	Party id.Party `json:"party"`
}

// GatewayConfig configures a worker gateway.
type GatewayConfig struct {
	// Verifier authenticates workers' hellos: each must carry a
	// KindWorkerHello token of the party it names. Without one every
	// hello is refused.
	Verifier *evidence.Verifier
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
	// linkInflight bounds the envelopes in flight down one worker's
	// connection, well inside the connection's own in-flight cap.
	linkInflight = 128
)

// pendingItem is one envelope owed to a worker tenant; done closes once
// reply or err is set. The rest is guarded by the gateway mutex: link is
// the link the item is in flight on, nil while it is queued.
type pendingItem struct {
	env    *transport.Envelope
	tenant string
	done   chan struct{}
	reply  *transport.Envelope
	err    error
	link   *gatewayLink
}

// gatewayTenant is the mailbox of one worker party.
type gatewayTenant struct {
	queue    []*pendingItem
	inflight map[*pendingItem]struct{}
	link     *gatewayLink    // the link serving the party, nil while offline
	hello    *evidence.Token // the hello that took the party last
}

// gatewayLink is one worker connection and the parties routed down it.
// done closes when the link ends; superseded says a newer hello took its
// last party.
type gatewayLink struct {
	conn       transport.Conn
	parties    []string
	rr         int // round-robin start offset across parties
	busy       int // envelopes in flight down the connection
	done       chan struct{}
	superseded bool
}

// WorkerGateway queues and dispatches envelopes for worker tenants of a
// Host. Create one with Host.EnableWorkerGateway.
type WorkerGateway struct {
	host *Host
	cfg  GatewayConfig
	// maxQueue, minPerTenant and slots are gatewayMaxQueue,
	// gatewayMinPerTenant and linkInflight; tests shrink them.
	maxQueue, minPerTenant, slots int
	// ctx bounds the forwards; close cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	tenants     map[string]*gatewayTenant
	links       map[transport.Conn]*gatewayLink
	draining    bool
	closed      bool
	queued      int
	completions chan struct{} // buffered 1; kicked when outstanding work shrinks
}

// EnableWorkerGateway attaches a worker gateway to the host, registering
// its control channel under WorkerControlTenant. It is enabled at most
// once per host.
func (h *Host) EnableWorkerGateway(cfg GatewayConfig) (*WorkerGateway, error) {
	ctx, cancel := context.WithCancel(context.Background())
	gw := &WorkerGateway{
		host: h, cfg: cfg, ctx: ctx, cancel: cancel,
		maxQueue: gatewayMaxQueue, minPerTenant: gatewayMinPerTenant, slots: linkInflight,
		tenants:     make(map[string]*gatewayTenant),
		links:       make(map[transport.Conn]*gatewayLink),
		completions: make(chan struct{}, 1),
	}
	chain := transport.NewTenantChain(transport.HandlerFunc(gw.handleControl), cfg.Obs)
	if err := h.addRawTenant(WorkerControlTenant, chain); err != nil {
		cancel()
		return nil, err
	}
	h.mu.Lock()
	h.gw = gw
	h.mu.Unlock()
	return gw, nil
}

// WorkerGateway returns the host's gateway, nil when none is enabled.
func (h *Host) WorkerGateway() *WorkerGateway {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gw
}

// depthLocked publishes the queued depth gauge.
func (g *WorkerGateway) depthLocked() {
	g.cfg.Obs.Gauge(obs.MGatewayQueueDepth).Set(int64(g.queued))
}

// tenantLocked resolves (creating if needed) a tenant mailbox, which the
// host routes the party's envelopes to — as they arrived: batches
// unopened, chunk slices unassembled, for the worker's own receive chain
// and replay window. A party hosted as a coordinator has none.
func (g *WorkerGateway) tenantLocked(party string) (*gatewayTenant, error) {
	if t, ok := g.tenants[party]; ok {
		return t, nil
	}
	mailbox := transport.HandlerFunc(func(ctx context.Context, env *transport.Envelope) (*transport.Envelope, error) {
		return g.enqueue(ctx, party, env)
	})
	if err := g.host.addRawTenant(party, mailbox); err != nil {
		return nil, err
	}
	t := &gatewayTenant{inflight: make(map[*pendingItem]struct{})}
	g.tenants[party] = t
	return t, nil
}

// enqueue admits one envelope into a worker tenant's mailbox, within an
// equal share of the queue budget, and waits for the worker's answer: a
// one-way delivery is acknowledged once the worker handled it, as on
// every network.
func (g *WorkerGateway) enqueue(ctx context.Context, party string, env *transport.Envelope) (*transport.Envelope, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, transport.ErrClosed
	}
	t, err := g.tenantLocked(party)
	if err != nil {
		g.mu.Unlock()
		return nil, err
	}
	if g.draining || len(t.queue) >= max(g.maxQueue/len(g.tenants), g.minPerTenant) {
		cause := ErrGatewayBusy
		if g.draining {
			cause = ErrGatewayDraining
		}
		g.mu.Unlock()
		g.cfg.Obs.Counter(obs.MGatewayAdmissionRejects).Inc()
		return nil, fmt.Errorf("%w: tenant %q", cause, party)
	}
	item := &pendingItem{env: env, tenant: party, done: make(chan struct{})}
	t.queue = append(t.queue, item)
	g.queued++
	g.depthLocked()
	g.pumpLocked(t.link)
	g.mu.Unlock()

	select {
	case <-item.done:
		if item.err != nil {
			// The worker's error as it came: one its replay window
			// answered stays answered, so the sender does not repeat it.
			return nil, fmt.Errorf("%w: %w", ErrWorkerFailed, item.err)
		}
		return item.reply, nil
	case <-ctx.Done():
		// The item stays queued; the worker's replay window absorbs the
		// caller's retry of the same envelope.
		return nil, ctx.Err()
	}
}

// handleControl is the control tenant's handler.
func (g *WorkerGateway) handleControl(ctx context.Context, env *transport.Envelope) (*transport.Envelope, error) {
	conn := transport.CallerConn(ctx)
	if conn == nil {
		return nil, errors.New("protocol: worker control needs a connection back to the worker")
	}
	switch env.Kind {
	case envWorkerHello:
		var msg Message
		var b workerHelloBody
		if err := unmarshalMessage(env.Body, &msg); err != nil {
			return nil, err
		}
		if err := msg.Body(&b); err != nil {
			return nil, err
		}
		tok, err := verifyClaim(g.cfg.Verifier, "worker gateway", &msg, evidence.KindWorkerHello, b.Party, &b)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrWorkerUnauthenticated, err)
		}
		return nil, g.link(conn, string(b.Party), tok)
	case envWorkerHold:
		// Answered when the link of this connection ends: in kind when a
		// newer hello took its last party, with an error otherwise.
		g.mu.Lock()
		l := g.links[conn]
		g.mu.Unlock()
		if l == nil {
			return nil, errors.New("protocol: no worker link on this connection")
		}
		select {
		case <-l.done: // superseded was set before done closed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if !l.superseded {
			return nil, errors.New("protocol: worker link ended")
		}
		return transport.NewEnvelope(envWorkerSuperseded, nil), nil
	default:
		return nil, fmt.Errorf("protocol: unknown worker control kind %q", env.Kind)
	}
}

// link routes party down conn on the authority of its hello token. The
// newest hello wins: the party moves here from any other connection, its
// in-flight envelopes re-queued (the first answer from either connection
// completes each), and a connection left serving no party ends its link
// as superseded. A hello not newer than the last one is a replay.
func (g *WorkerGateway) link(conn transport.Conn, party string, tok *evidence.Token) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrHostClosed
	}
	t, err := g.tenantLocked(party)
	if err != nil {
		return err
	}
	if last := t.hello; last != nil && (tok.Run == last.Run || tok.IssuedAt.Before(last.IssuedAt)) {
		return fmt.Errorf("%w: %s's hello is not newer than the one serving it", ErrWorkerUnauthenticated, party)
	}
	t.hello = tok
	l := g.links[conn]
	if l == nil {
		l = &gatewayLink{conn: conn, done: make(chan struct{})}
		g.links[conn] = l
		go func() { // the link ends with its connection
			select {
			case <-conn.Done():
				g.mu.Lock()
				if g.links[conn] == l {
					g.dropLocked(l)
				}
				g.mu.Unlock()
			case <-l.done:
			}
		}()
	}
	if old := t.link; old != l {
		t.link = l
		l.parties = append(l.parties, party)
		if old != nil {
			old.parties = slices.DeleteFunc(old.parties, func(p string) bool { return p == party })
			g.requeueLocked(t, old)
			if len(old.parties) == 0 {
				old.superseded = true
				g.dropLocked(old)
			}
		}
	}
	g.pumpLocked(l)
	return nil
}

// dropLocked ends a link: its parties go offline and their envelopes in
// flight down it go back to the front of their queues.
func (g *WorkerGateway) dropLocked(l *gatewayLink) {
	delete(g.links, l.conn)
	close(l.done)
	for _, p := range l.parties {
		t := g.tenants[p]
		if t.link == l {
			t.link = nil
		}
		g.requeueLocked(t, l)
	}
	l.parties = nil
}

// requeueLocked returns a tenant's items in flight on link l to the front
// of its queue, for its current link: at-least-once dispatch.
func (g *WorkerGateway) requeueLocked(t *gatewayTenant, l *gatewayLink) {
	var back []*pendingItem
	for it := range t.inflight {
		if it.link == l {
			delete(t.inflight, it)
			it.link = nil
			back = append(back, it)
		}
	}
	t.queue = append(back, t.queue...)
	g.queued += len(back)
	g.depthLocked()
	g.cfg.Obs.Counter(obs.MGatewayRequeuedTotal).Add(int64(len(back)))
	g.pumpLocked(t.link)
}

// pumpLocked sends link l as many queued envelopes as it has free slots.
func (g *WorkerGateway) pumpLocked(l *gatewayLink) {
	if l == nil || g.closed {
		return
	}
	for _, it := range g.collectLocked(l, g.slots-l.busy) {
		go g.forward(l, it)
	}
}

// collectLocked moves up to max queued items of the link's parties in
// flight, round-robin: one envelope per backlogged party per pass.
func (g *WorkerGateway) collectLocked(l *gatewayLink, max int) []*pendingItem {
	var items []*pendingItem
	for progress := true; progress && len(items) < max; l.rr++ {
		progress = false
		for i := 0; i < len(l.parties) && len(items) < max; i++ {
			t := g.tenants[l.parties[(l.rr+i)%len(l.parties)]]
			if len(t.queue) == 0 {
				continue
			}
			item := t.queue[0]
			t.queue = t.queue[1:]
			t.inflight[item] = struct{}{}
			item.link = l
			items = append(items, item)
			progress = true
		}
	}
	l.busy += len(items)
	g.queued -= len(items)
	g.depthLocked()
	g.cfg.Obs.Counter(obs.MGatewayDispatchTotal).Add(int64(len(items)))
	return items
}

// forward sends one envelope down a link and completes the item with the
// answer — unless the connection ended, and the link's end re-queues it.
func (g *WorkerGateway) forward(l *gatewayLink, it *pendingItem) {
	reply, err := l.conn.Request(g.ctx, it.env)
	g.mu.Lock()
	defer g.mu.Unlock()
	l.busy--
	if err == nil {
		g.finishLocked(it, reply, nil)
	} else if !isClosed(l.conn.Done()) {
		g.finishLocked(it, nil, err)
	}
	g.pumpLocked(l)
}

// isClosed reports whether ch is closed.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// finishLocked completes an item once, wherever it is: in flight, or
// re-queued after a takeover and withdrawn so no link executes it again.
func (g *WorkerGateway) finishLocked(it *pendingItem, reply *transport.Envelope, err error) {
	if isClosed(it.done) {
		return
	}
	t := g.tenants[it.tenant]
	if _, ok := t.inflight[it]; ok {
		delete(t.inflight, it)
	} else if i := slices.Index(t.queue, it); i >= 0 {
		t.queue = slices.Delete(t.queue, i, i+1)
		g.queued--
		g.depthLocked()
	}
	it.reply, it.err = reply, err
	close(it.done)
	select {
	case g.completions <- struct{}{}:
	default:
	}
}

// Drain stops admitting new work and waits for queued and in-flight
// envelopes to complete (or ctx to expire).
func (g *WorkerGateway) Drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
	for {
		if st := g.Status(); st.Queued+st.InFlight == 0 {
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
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GatewayStatus{Links: len(g.links), Draining: g.draining, Tenants: make(map[string]GatewayTenantStatus, len(g.tenants))}
	for key, t := range g.tenants {
		st.Queued += len(t.queue)
		st.InFlight += len(t.inflight)
		st.Tenants[key] = GatewayTenantStatus{Queued: len(t.queue), InFlight: len(t.inflight), Linked: t.link != nil}
	}
	return st
}

// close fails all pending work and ends every link; called from
// Host.Close, after which the host routes nothing to the gateway.
func (g *WorkerGateway) close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	g.cancel()
	for _, l := range g.links {
		g.dropLocked(l)
	}
	for _, t := range g.tenants {
		for _, it := range slices.Clone(t.queue) {
			g.finishLocked(it, nil, errors.New("gateway closed"))
		}
	}
}
