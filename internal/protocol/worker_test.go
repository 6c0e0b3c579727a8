package protocol

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/clock"
	"nonrep/internal/id"
	"nonrep/internal/store"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

// tempLog opens an evidence vault in a temporary directory, closed and
// removed when the test ends.
func tempLog(tb testing.TB, clk clock.Clock) *vault.Vault {
	tb.Helper()
	v, err := vault.OpenTemp(clk)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = v.Close() })
	return v
}

// plainServices builds the minimal services a coordinator needs for
// ping-level traffic (no evidence issuance in these tests).
func plainServices(tb testing.TB, dir *Directory, p id.Party) *Services {
	return &Services{
		Party:     p,
		Log:       tempLog(tb, clock.Real{}),
		States:    store.NewMemStateStore(),
		Clock:     clock.Real{},
		Directory: dir,
	}
}

// newGatewayFixture builds a host with a worker gateway on a manual clock.
func newGatewayFixture(t *testing.T, cfg GatewayConfig) (*Host, *WorkerGateway, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	if cfg.Clock == nil {
		cfg.Clock = clk
	}
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	h, err := NewHost(network, "gw-host")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	gw, err := h.EnableWorkerGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, gw, clk
}

func helloParties(t *testing.T, gw *WorkerGateway, parties ...id.Party) string {
	t.Helper()
	lease, err := gw.hello(workerHelloBody{Parties: parties})
	if err != nil {
		t.Fatal(err)
	}
	return lease.Lease
}

func oneWay() *transport.Envelope                  { return transport.NewEnvelope(envDeliver, []byte("x")) }
func reqEnv() *transport.Envelope                  { return transport.NewEnvelope(envDeliverRequest, []byte("x")) }
func pollNow(lease string, max int) workerPollBody { return workerPollBody{Lease: lease, Max: max} }

func TestGatewayAdmissionCap(t *testing.T) {
	t.Parallel()
	_, gw, _ := newGatewayFixture(t, GatewayConfig{})
	gw.maxQueue, gw.minPerTenant = 4, 1
	helloParties(t, gw, "urn:org:w")

	for i := 0; i < 4; i++ {
		if _, err := gw.enqueue(context.Background(), "urn:org:w", oneWay()); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	_, err := gw.enqueue(context.Background(), "urn:org:w", oneWay())
	if !errors.Is(err, ErrGatewayBusy) {
		t.Fatalf("over-cap enqueue = %v, want ErrGatewayBusy", err)
	}
	// Admission rejections must classify temporary: the sender's
	// retransmission masks a transient burst instead of giving up.
	if transport.Permanent(err) {
		t.Fatalf("gateway-busy must be a temporary error, got permanent: %v", err)
	}
}

// TestGatewayRoundRobinDispatch: two backlogged tenants on one link
// alternate — every pass over the link's parties hands each one
// envelope, whatever its backlog — and a tenant whose queue runs dry
// leaves the poll to the other.
func TestGatewayRoundRobinDispatch(t *testing.T) {
	t.Parallel()
	_, gw, _ := newGatewayFixture(t, GatewayConfig{})
	gw.maxQueue, gw.minPerTenant = 64, 16
	heavy, light := id.Party("urn:org:heavy"), id.Party("urn:org:light")
	lease := helloParties(t, gw, heavy, light)
	enqueue := func(p id.Party, n int) {
		for i := 0; i < n; i++ {
			if _, err := gw.enqueue(context.Background(), string(p), oneWay()); err != nil {
				t.Fatal(err)
			}
		}
	}
	poll := func(max int) []string {
		jobs, err := gw.poll(context.Background(), pollNow(lease, max))
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		for _, j := range jobs.Jobs {
			order = append(order, j.Tenant)
		}
		return order
	}
	enqueue(heavy, 12)
	enqueue(light, 3)

	order := poll(4)
	if len(order) != 4 {
		t.Fatalf("dispatched %v, want 4 envelopes", order)
	}
	for i := 0; i < len(order); i += 2 {
		if pass := order[i : i+2]; pass[0] == pass[1] {
			t.Fatalf("pass %d handed %v; each backlogged tenant gets one envelope per pass (order %v)", i/2, pass, order)
		}
	}
	// One of light's three is left: the next poll hands it over once and
	// fills the rest from heavy's backlog.
	counts := map[string]int{}
	for _, p := range poll(4) {
		counts[p]++
	}
	if counts[string(light)] != 1 || counts[string(heavy)] != 3 {
		t.Fatalf("second poll = %v, want light:1 heavy:3", counts)
	}
}

// TestGatewayEqualShares: every tenant gets the same admission cap, an
// equal part of the queue budget floored at the per-tenant minimum.
func TestGatewayEqualShares(t *testing.T) {
	t.Parallel()
	_, gw, _ := newGatewayFixture(t, GatewayConfig{})
	gw.maxQueue, gw.minPerTenant = 12, 2
	a, b := id.Party("urn:org:a"), id.Party("urn:org:b")
	helloParties(t, gw, a, b)
	admitted := func(p id.Party) int {
		n := 0
		for {
			if _, err := gw.enqueue(context.Background(), string(p), oneWay()); err != nil {
				if !errors.Is(err, ErrGatewayBusy) {
					t.Fatal(err)
				}
				return n
			}
			n++
		}
	}
	if na, nb := admitted(a), admitted(b); na != 6 || nb != 6 {
		t.Fatalf("admitted a:%d b:%d, want 6 each (12 split two ways)", na, nb)
	}
	gw.maxQueue = 2
	c := id.Party("urn:org:c")
	helloParties(t, gw, c)
	if n := admitted(c); n != 2 {
		t.Fatalf("admitted c:%d, want the floor of 2", n)
	}
}

func TestGatewayLeaseExpiryRequeues(t *testing.T) {
	t.Parallel()
	_, gw, clk := newGatewayFixture(t, GatewayConfig{})
	w := id.Party("urn:org:w")
	lease1 := helloParties(t, gw, w)

	env := reqEnv()
	type outcome struct {
		reply *transport.Envelope
		err   error
	}
	res := make(chan outcome, 1)
	go func() {
		r, err := gw.enqueue(context.Background(), string(w), env)
		res <- outcome{r, err}
	}()
	// Wait until the request is queued, then dispatch it to lease1.
	waitFor(t, func() bool { return gw.Status().Queued == 1 })
	jobs, err := gw.poll(context.Background(), pollNow(lease1, 8))
	if err != nil || len(jobs.Jobs) != 1 {
		t.Fatalf("poll = %v jobs, err %v", len(jobs.Jobs), err)
	}

	// The link dies silently; its lease runs out.
	clk.Advance(31 * time.Second)
	lease2, err := gw.hello(workerHelloBody{Parties: []id.Party{w}})
	if err != nil {
		t.Fatal(err)
	}
	if st := gw.Status(); st.Queued != 1 || st.InFlight != 0 {
		t.Fatalf("after expiry: %+v, want the in-flight item re-queued", st)
	}
	jobs, err = gw.poll(context.Background(), pollNow(lease2.Lease, 8))
	if err != nil || len(jobs.Jobs) != 1 || jobs.Jobs[0].Env.ID != env.ID {
		t.Fatalf("re-dispatch = %+v, err %v", jobs, err)
	}
	gw.result(workerResultBody{Lease: lease2.Lease, Tenant: string(w), ID: env.ID, Reply: transport.NewEnvelope("ok", nil)})
	out := <-res
	if out.err != nil || out.reply == nil || out.reply.Kind != "ok" {
		t.Fatalf("requester got %+v / %v", out.reply, out.err)
	}
}

func TestGatewaySplitBrainFirstResultWins(t *testing.T) {
	t.Parallel()
	_, gw, _ := newGatewayFixture(t, GatewayConfig{})
	w := id.Party("urn:org:w")
	lease1 := helloParties(t, gw, w)

	env := reqEnv()
	replies := make(chan *transport.Envelope, 1)
	go func() {
		r, _ := gw.enqueue(context.Background(), string(w), env)
		replies <- r
	}()
	waitFor(t, func() bool { return gw.Status().Queued == 1 })
	if _, err := gw.poll(context.Background(), pollNow(lease1, 8)); err != nil {
		t.Fatal(err)
	}

	// A second link hellos for the same party while the first still lives:
	// the newest hello wins and the in-flight item is re-queued for it.
	lease2, err := gw.hello(workerHelloBody{Parties: []id.Party{w}})
	if err != nil {
		t.Fatal(err)
	}
	if lease2.Requeued != 1 {
		t.Fatalf("takeover requeued %d items, want 1", lease2.Requeued)
	}
	jobs, err := gw.poll(context.Background(), pollNow(lease2.Lease, 8))
	if err != nil || len(jobs.Jobs) != 1 {
		t.Fatalf("new link poll = %+v, err %v", jobs, err)
	}

	// The OLD link finished the execution first; its result must still be
	// accepted, and the new link's duplicate must be ignored.
	gw.result(workerResultBody{Lease: lease1, Tenant: string(w), ID: env.ID, Reply: transport.NewEnvelope("old", nil)})
	gw.result(workerResultBody{Lease: lease2.Lease, Tenant: string(w), ID: env.ID, Reply: transport.NewEnvelope("new", nil)})
	if r := <-replies; r == nil || r.Kind != "old" {
		t.Fatalf("requester reply = %+v, want the first (old-link) result", r)
	}
}

func TestGatewayDrain(t *testing.T) {
	t.Parallel()
	_, gw, _ := newGatewayFixture(t, GatewayConfig{})
	w := id.Party("urn:org:w")
	lease := helloParties(t, gw, w)
	env := reqEnv()
	go func() { _, _ = gw.enqueue(context.Background(), string(w), env) }()
	waitFor(t, func() bool { return gw.Status().Queued == 1 })
	if _, err := gw.poll(context.Background(), pollNow(lease, 8)); err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- gw.Drain(context.Background()) }()
	waitFor(t, func() bool { return gw.Status().Draining })

	// Draining admits no new work...
	if _, err := gw.enqueue(context.Background(), string(w), oneWay()); !errors.Is(err, ErrGatewayDraining) {
		t.Fatalf("enqueue while draining = %v, want ErrGatewayDraining", err)
	}
	// ...and polls report the flag so links can wind down.
	jobs, err := gw.poll(context.Background(), pollNow(lease, 8))
	if err != nil || !jobs.Draining {
		t.Fatalf("poll while draining = %+v, err %v", jobs, err)
	}
	gw.result(workerResultBody{Lease: lease, Tenant: string(w), ID: env.ID, Reply: transport.NewEnvelope("ok", nil)})
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestGatewayCloseFailsPending(t *testing.T) {
	t.Parallel()
	h, gw, _ := newGatewayFixture(t, GatewayConfig{})
	w := id.Party("urn:org:w")
	helloParties(t, gw, w)
	res := make(chan error, 1)
	go func() {
		_, err := gw.enqueue(context.Background(), string(w), reqEnv())
		res <- err
	}()
	waitFor(t, func() bool { return gw.Status().Queued == 1 })
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-res; !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("pending request after close = %v, want ErrWorkerFailed", err)
	}
}

func TestGatewayRejectsHostedPartyAsWorker(t *testing.T) {
	t.Parallel()
	clk := clock.NewManual(time.Unix(1_700_000_000, 0))
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	h, err := NewHost(network, "gw-host")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	gw, err := h.EnableWorkerGateway(GatewayConfig{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	p := id.Party("urn:org:hosted")
	dir := NewDirectory()
	if _, err := h.Add(plainServices(t, dir, p)); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.hello(workerHelloBody{Parties: []id.Party{p}}); err == nil {
		t.Fatal("hello for a hosted coordinator party must fail")
	}
}

// --- link integration -------------------------------------------------

type wbPing struct {
	mu    sync.Mutex
	seen  int
	block chan struct{} // when set, ProcessRequest waits on it
}

func (h *wbPing) Protocol() string { return "ping" }

func (h *wbPing) Process(context.Context, *Message) error { return nil }

func (h *wbPing) ProcessRequest(ctx context.Context, msg *Message) (*Message, error) {
	h.mu.Lock()
	h.seen++
	block := h.block
	h.mu.Unlock()
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &Message{Protocol: "ping", Run: msg.Run, Step: msg.Step + 1, Kind: "pong"}, nil
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWorkerLinkEndToEnd(t *testing.T) {
	t.Parallel()
	alice, bob := id.Party("urn:org:wl-alice"), id.Party("urn:org:wl-bob")
	dir := NewDirectory()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })

	h, err := NewHost(network, "wl-gw")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	if _, err := h.EnableWorkerGateway(GatewayConfig{}); err != nil {
		t.Fatal(err)
	}

	coA, err := New(network, "wl-alice-addr", plainServices(t, dir, alice))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coA.Close() })
	hA := &wbPing{}
	coA.Register(hA)

	coB, err := ConnectWorker(network, WorkerConfig{Gateway: h.Addr()}, plainServices(t, dir, bob))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coB.Close() })
	hB := &wbPing{}
	coB.Register(hB)

	// Inbound: a listening peer requests through the gateway mailbox.
	for i := 0; i < 3; i++ {
		msg := &Message{Protocol: "ping", Run: id.NewRun(), Step: 1, Payload: []byte(fmt.Sprintf("in-%d", i))}
		reply, err := coA.DeliverRequest(context.Background(), bob, msg)
		if err != nil {
			t.Fatalf("alice -> worker: %v", err)
		}
		if reply.Kind != "pong" {
			t.Fatalf("reply = %+v", reply)
		}
	}
	// Outbound: the worker requests out over its dialled endpoint.
	msg := &Message{Protocol: "ping", Run: id.NewRun(), Step: 1, Payload: []byte("out")}
	reply, err := coB.DeliverRequest(context.Background(), alice, msg)
	if err != nil {
		t.Fatalf("worker -> alice: %v", err)
	}
	if reply.Kind != "pong" {
		t.Fatalf("reply = %+v", reply)
	}
}

// downableEndpoint routes control requests straight into a gateway's
// control handler, failing while down — a deterministic stand-in for a
// gateway outage on the wire.
type downableEndpoint struct {
	gw *WorkerGateway

	mu   sync.Mutex
	down bool
}

type tempNetErr struct{}

func (tempNetErr) Error() string   { return "link down" }
func (tempNetErr) Temporary() bool { return true }

func (e *downableEndpoint) setDown(v bool) {
	e.mu.Lock()
	e.down = v
	e.mu.Unlock()
}

func (e *downableEndpoint) Addr() string { return "~test-worker" }

func (e *downableEndpoint) Send(ctx context.Context, to string, env *transport.Envelope) error {
	_, err := e.Request(ctx, to, env)
	return err
}

func (e *downableEndpoint) Request(ctx context.Context, to string, env *transport.Envelope) (*transport.Envelope, error) {
	e.mu.Lock()
	down := e.down
	e.mu.Unlock()
	if down {
		return nil, tempNetErr{}
	}
	return e.gw.handleControl(ctx, env)
}

func (e *downableEndpoint) Close() error { return nil }

func TestWorkerLinkReconnectFlushesOutbox(t *testing.T) {
	t.Parallel()
	w := id.Party("urn:org:wl-flaky")
	dir := NewDirectory()
	_, gw, _ := newGatewayFixture(t, GatewayConfig{Clock: clock.Real{}})

	svc := plainServices(t, dir, w)
	blocked := make(chan struct{})
	handler := &wbPing{block: blocked}
	co := &Coordinator{svc: svc, handlers: map[string]Handler{"ping": handler}}
	ep := &downableEndpoint{gw: gw}
	link := &WorkerLink{
		svc:       svc,
		out:       ep,
		control:   "gw",
		recv:      transport.NewTenantChain(transport.HandlerFunc(co.handle), nil),
		pollWait:  50 * time.Millisecond,
		outboxCap: workerOutboxCap,
		stop:      make(chan struct{}),
	}
	if err := link.start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(link.Close)

	// Wait for the link's hello, then submit a request that the handler
	// holds open while we cut the wire.
	waitFor(t, func() bool { return link.currentLease() != "" })
	replies := make(chan *transport.Envelope, 1)
	go func() {
		r, _ := gw.enqueue(context.Background(), string(w), deliverRequestEnvelope(t))
		replies <- r
	}()
	waitFor(t, func() bool {
		handler.mu.Lock()
		defer handler.mu.Unlock()
		return handler.seen == 1
	})

	// Cut the wire mid-execution, then let the handler finish: the result
	// cannot reach the gateway and must land in the outbox.
	ep.setDown(true)
	close(blocked)
	waitFor(t, func() bool {
		link.mu.Lock()
		defer link.mu.Unlock()
		return len(link.outbox) == 1
	})

	// Keep the wire down until the link notices — a poll fails and the
	// lease drops — so the heal exercises the reconnect path rather than a
	// lucky in-flight poll.
	waitFor(t, func() bool { return link.currentLease() == "" })

	// Heal the wire: the link re-hellos (fresh lease) and the flush
	// delivers the buffered result to the requester.
	ep.setDown(false)
	if r := <-replies; r == nil || r.Kind != envReply {
		t.Fatalf("requester reply = %+v, want the flushed %s", r, envReply)
	}
	link.mu.Lock()
	rest := len(link.outbox)
	link.mu.Unlock()
	if rest != 0 {
		t.Fatalf("outbox holds %d results after flush, want 0", rest)
	}
}

// failingResults refuses every control request; the first one waits to
// be released, holding a flush open while other results are buffered.
type failingResults struct {
	entered, release chan struct{}
	once             sync.Once
}

func (e *failingResults) Addr() string { return "~test-worker" }

func (e *failingResults) Send(ctx context.Context, to string, env *transport.Envelope) error {
	_, err := e.Request(ctx, to, env)
	return err
}

func (e *failingResults) Request(context.Context, string, *transport.Envelope) (*transport.Envelope, error) {
	e.once.Do(func() {
		close(e.entered)
		<-e.release
	})
	return nil, tempNetErr{}
}

func (e *failingResults) Close() error { return nil }

// TestWorkerOutboxCappedAcrossFailedFlush: results buffered while a flush
// is failing join the returned ones under the same cap, oldest dropped.
func TestWorkerOutboxCappedAcrossFailedFlush(t *testing.T) {
	t.Parallel()
	ep := &failingResults{entered: make(chan struct{}), release: make(chan struct{})}
	link := &WorkerLink{
		svc:       plainServices(t, NewDirectory(), "urn:org:w"),
		out:       ep,
		control:   "gw",
		outboxCap: 2,
		stop:      make(chan struct{}),
	}
	link.outbox = []workerResultBody{{ID: "r1"}, {ID: "r2"}}
	flushed := make(chan struct{})
	go func() {
		link.flushOutbox()
		close(flushed)
	}()
	<-ep.entered
	// The link holds no lease, so these go straight to the outbox.
	link.sendResult(workerResultBody{ID: "r3"})
	link.sendResult(workerResultBody{ID: "r4"})
	close(ep.release)
	<-flushed
	link.mu.Lock()
	defer link.mu.Unlock()
	var ids []id.Msg
	for _, r := range link.outbox {
		ids = append(ids, r.ID)
	}
	if len(ids) != 2 || ids[0] != "r3" || ids[1] != "r4" {
		t.Fatalf("outbox after a failed flush = %v, want the newest 2 of 4 results", ids)
	}
}

// deliverRequestEnvelope builds a b2b-deliver-request envelope carrying a
// ping message — the minimal inbound protocol traffic a worker executes.
func deliverRequestEnvelope(t *testing.T) *transport.Envelope {
	t.Helper()
	msg := &Message{Protocol: "ping", Run: id.NewRun(), Step: 1, Payload: []byte("x")}
	body, err := canon.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	return transport.NewEnvelope(envDeliverRequest, body)
}
