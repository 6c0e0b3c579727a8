package protocol

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/credential"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
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

// workerPKI certifies a key for each party under one root: the verifier
// a gateway checks hellos with, and each party's issuer.
func workerPKI(tb testing.TB, parties ...id.Party) (*evidence.Verifier, map[id.Party]*evidence.Issuer) {
	tb.Helper()
	clk := clock.Real{}
	caKey, err := sig.GenerateEd25519("ca")
	if err != nil {
		tb.Fatal(err)
	}
	ca, err := credential.NewRootAuthority("urn:ttp:ca", caKey, clk)
	if err != nil {
		tb.Fatal(err)
	}
	creds := credential.NewStore(clk)
	if err := creds.AddRoot(ca.Certificate()); err != nil {
		tb.Fatal(err)
	}
	issuers := make(map[id.Party]*evidence.Issuer)
	for _, p := range parties {
		key, err := sig.GenerateEd25519(string(p) + "#key")
		if err != nil {
			tb.Fatal(err)
		}
		cert, err := ca.Issue(p, key.KeyID(), key.PublicKey())
		if err != nil {
			tb.Fatal(err)
		}
		if err := creds.Add(cert); err != nil {
			tb.Fatal(err)
		}
		issuers[p] = &evidence.Issuer{Party: p, Signer: key, Clock: clk}
	}
	return &evidence.Verifier{Keys: creds}, issuers
}

// newGatewayFixture builds a host with a worker gateway.
func newGatewayFixture(t *testing.T, cfg GatewayConfig) (*Host, *WorkerGateway) {
	t.Helper()
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
	return h, gw
}

// testConn is a worker connection the gateway forwards to: it records
// what arrives and answers each envelope with what the test hands it
// (an "ok" envelope when answer is nil).
type testConn struct {
	arrived chan *transport.Envelope
	answer  chan *transport.Envelope
	done    chan struct{}
	once    sync.Once
}

func newTestConn(answerNow bool) *testConn {
	c := &testConn{arrived: make(chan *transport.Envelope, 64), done: make(chan struct{})}
	if !answerNow {
		c.answer = make(chan *transport.Envelope)
	}
	return c
}

func (c *testConn) Request(ctx context.Context, env *transport.Envelope) (*transport.Envelope, error) {
	c.arrived <- env
	if c.answer == nil {
		return transport.NewEnvelope("ok", nil), nil
	}
	select {
	case reply := <-c.answer:
		return reply, nil
	case <-c.done:
		return nil, errors.New("connection lost")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *testConn) Done() <-chan struct{} { return c.done }

func (c *testConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// helloToken is what an authenticated hello hands the gateway's link
// step: a fresh run, issued now.
func helloToken() *evidence.Token {
	return &evidence.Token{Kind: evidence.KindWorkerHello, Run: id.NewRun(), IssuedAt: time.Now()}
}

// linkParties routes parties down conn as authenticated hellos would, and
// returns the link.
func linkParties(t *testing.T, gw *WorkerGateway, conn transport.Conn, parties ...id.Party) *gatewayLink {
	t.Helper()
	for _, p := range parties {
		if err := gw.link(conn, string(p), helloToken()); err != nil {
			t.Fatal(err)
		}
	}
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.links[conn]
}

func oneWay() *transport.Envelope { return transport.NewEnvelope(envDeliver, []byte("x")) }
func reqEnv() *transport.Envelope { return transport.NewEnvelope(envDeliverRequest, []byte("x")) }

// admit offers the gateway one delivery for party and returns its
// admission verdict: nil once the gateway holds it, the refusal
// otherwise. An admitted delivery waits for its answer in the
// background until the test ends.
func admit(t *testing.T, gw *WorkerGateway, party id.Party) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	held := func() int {
		st := gw.Status().Tenants[string(party)]
		return st.Queued + st.InFlight
	}
	before := held()
	res := make(chan error, 1)
	go func() {
		_, err := gw.enqueue(ctx, string(party), oneWay())
		res <- err
	}()
	for {
		select {
		case err := <-res:
			return err
		default:
		}
		if held() > before {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGatewayAdmissionCap(t *testing.T) {
	t.Parallel()
	_, gw := newGatewayFixture(t, GatewayConfig{})
	gw.maxQueue, gw.minPerTenant, gw.slots = 4, 1, 0
	linkParties(t, gw, newTestConn(true), "urn:org:w")

	for i := 0; i < 4; i++ {
		if err := admit(t, gw, "urn:org:w"); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	err := admit(t, gw, "urn:org:w")
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
// leaves the dispatch to the other.
func TestGatewayRoundRobinDispatch(t *testing.T) {
	t.Parallel()
	_, gw := newGatewayFixture(t, GatewayConfig{})
	gw.maxQueue, gw.minPerTenant, gw.slots = 64, 16, 0
	heavy, light := id.Party("urn:org:heavy"), id.Party("urn:org:light")
	l := linkParties(t, gw, newTestConn(true), heavy, light)
	enqueue := func(p id.Party, n int) {
		for i := 0; i < n; i++ {
			if err := admit(t, gw, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	dispatch := func(max int) []string {
		gw.mu.Lock()
		defer gw.mu.Unlock()
		var order []string
		for _, it := range gw.collectLocked(l, max) {
			order = append(order, it.tenant)
		}
		return order
	}
	enqueue(heavy, 12)
	enqueue(light, 3)

	order := dispatch(4)
	if len(order) != 4 {
		t.Fatalf("dispatched %v, want 4 envelopes", order)
	}
	for i := 0; i < len(order); i += 2 {
		if pass := order[i : i+2]; pass[0] == pass[1] {
			t.Fatalf("pass %d handed %v; each backlogged tenant gets one envelope per pass (order %v)", i/2, pass, order)
		}
	}
	// One of light's three is left: the next dispatch hands it over once
	// and fills the rest from heavy's backlog.
	counts := map[string]int{}
	for _, p := range dispatch(4) {
		counts[p]++
	}
	if counts[string(light)] != 1 || counts[string(heavy)] != 3 {
		t.Fatalf("second dispatch = %v, want light:1 heavy:3", counts)
	}
}

// TestGatewayEqualShares: every tenant gets the same admission cap, an
// equal part of the queue budget floored at the per-tenant minimum.
func TestGatewayEqualShares(t *testing.T) {
	t.Parallel()
	_, gw := newGatewayFixture(t, GatewayConfig{})
	gw.maxQueue, gw.minPerTenant, gw.slots = 12, 2, 0
	a, b := id.Party("urn:org:a"), id.Party("urn:org:b")
	linkParties(t, gw, newTestConn(true), a, b)
	admitted := func(p id.Party) int {
		n := 0
		for {
			if err := admit(t, gw, p); err != nil {
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
	linkParties(t, gw, newTestConn(true), c)
	if n := admitted(c); n != 2 {
		t.Fatalf("admitted c:%d, want the floor of 2", n)
	}
}

// TestGatewayNewestHelloTakesParty: a newer authenticated hello for a
// party moves it to the new connection; the envelope in flight on the
// old one is re-queued there, the first answer from either completes it,
// and the old link ends as superseded. A replayed hello is refused.
func TestGatewayNewestHelloTakesParty(t *testing.T) {
	t.Parallel()
	_, gw := newGatewayFixture(t, GatewayConfig{})
	w := id.Party("urn:org:w")
	old, young := newTestConn(false), newTestConn(false)
	first := helloToken()
	if err := gw.link(old, string(w), first); err != nil {
		t.Fatal(err)
	}
	oldLink := linkParties(t, gw, old)

	env := reqEnv()
	replies := make(chan *transport.Envelope, 1)
	go func() {
		r, _ := gw.enqueue(context.Background(), string(w), env)
		replies <- r
	}()
	if got := <-old.arrived; got.ID != env.ID {
		t.Fatalf("old link got %s, want %s", got.ID, env.ID)
	}
	if err := gw.link(young, string(w), helloToken()); err != nil {
		t.Fatal(err)
	}
	if got := <-young.arrived; got.ID != env.ID {
		t.Fatalf("new link got %s, want the re-queued %s", got.ID, env.ID)
	}
	select {
	case <-oldLink.done:
	default:
		t.Fatal("the old link serves no party any more but did not end")
	}
	if !oldLink.superseded {
		t.Fatal("the old link ended without being marked superseded")
	}

	// The OLD connection answers first; its answer completes the item and
	// the new one's duplicate is ignored.
	old.answer <- transport.NewEnvelope("old", nil)
	if r := <-replies; r == nil || r.Kind != "old" {
		t.Fatalf("requester reply = %+v, want the first (old-link) answer", r)
	}
	young.answer <- transport.NewEnvelope("new", nil)
	waitFor(t, func() bool { st := gw.Status(); return st.InFlight == 0 && st.Queued == 0 })

	if err := gw.link(newTestConn(true), string(w), first); !errors.Is(err, ErrWorkerUnauthenticated) {
		t.Fatalf("replayed older hello = %v, want ErrWorkerUnauthenticated", err)
	}
}

// TestGatewayRequeuesOnDeadConnection: the envelope in flight on a
// connection that ends goes back to its tenant's queue, and the worker's
// next hello, on a new connection, gets it.
func TestGatewayRequeuesOnDeadConnection(t *testing.T) {
	t.Parallel()
	_, gw := newGatewayFixture(t, GatewayConfig{})
	w := id.Party("urn:org:w")
	dead := newTestConn(false)
	linkParties(t, gw, dead, w)
	env := reqEnv()
	replies := make(chan *transport.Envelope, 1)
	go func() {
		r, _ := gw.enqueue(context.Background(), string(w), env)
		replies <- r
	}()
	<-dead.arrived
	_ = dead.Close()
	waitFor(t, func() bool { st := gw.Status(); return st.Links == 0 && st.Queued == 1 })

	fresh := newTestConn(true)
	linkParties(t, gw, fresh, w)
	if got := <-fresh.arrived; got.ID != env.ID {
		t.Fatalf("re-dispatch = %s, want %s", got.ID, env.ID)
	}
	if r := <-replies; r == nil || r.Kind != "ok" {
		t.Fatalf("requester got %+v", r)
	}
}

func TestGatewayDrain(t *testing.T) {
	t.Parallel()
	_, gw := newGatewayFixture(t, GatewayConfig{})
	w := id.Party("urn:org:w")
	conn := newTestConn(false)
	linkParties(t, gw, conn, w)
	go func() { _, _ = gw.enqueue(context.Background(), string(w), reqEnv()) }()
	<-conn.arrived

	drained := make(chan error, 1)
	go func() { drained <- gw.Drain(context.Background()) }()
	waitFor(t, func() bool { return gw.Status().Draining })

	// Draining admits no new work...
	if _, err := gw.enqueue(context.Background(), string(w), oneWay()); !errors.Is(err, ErrGatewayDraining) {
		t.Fatalf("enqueue while draining = %v, want ErrGatewayDraining", err)
	}
	// ...while the work in flight finishes.
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with work in flight", err)
	default:
	}
	conn.answer <- transport.NewEnvelope("ok", nil)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestGatewayDeliveryWaitsForWorker: a one-way delivery to a worker
// tenant returns once the worker answered it, as on every network.
func TestGatewayDeliveryWaitsForWorker(t *testing.T) {
	t.Parallel()
	_, gw := newGatewayFixture(t, GatewayConfig{})
	w := id.Party("urn:org:w")
	conn := newTestConn(false)
	linkParties(t, gw, conn, w)
	res := make(chan error, 1)
	go func() {
		_, err := gw.enqueue(context.Background(), string(w), oneWay())
		res <- err
	}()
	<-conn.arrived
	select {
	case err := <-res:
		t.Fatalf("delivery returned %v before the worker answered", err)
	case <-time.After(20 * time.Millisecond):
	}
	conn.answer <- transport.NewEnvelope("ack", nil)
	if err := <-res; err != nil {
		t.Fatal(err)
	}
}

func TestGatewayCloseFailsPending(t *testing.T) {
	t.Parallel()
	h, gw := newGatewayFixture(t, GatewayConfig{})
	w := id.Party("urn:org:w")
	gw.slots = 0
	linkParties(t, gw, newTestConn(true), w)
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
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	h, err := NewHost(network, "gw-host")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	gw, err := h.EnableWorkerGateway(GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := id.Party("urn:org:hosted")
	dir := NewDirectory()
	if _, err := h.Add(plainServices(t, dir, p)); err != nil {
		t.Fatal(err)
	}
	if err := gw.link(newTestConn(true), string(p), helloToken()); err == nil {
		t.Fatal("hello for a hosted coordinator party must fail")
	}
}

// --- link integration -------------------------------------------------

type wbPing struct {
	mu    sync.Mutex
	seen  int
	block chan struct{} // when set, ProcessRequest waits on it
	// entered, when set, receives the connection each request arrived on.
	entered chan transport.Conn
}

func (h *wbPing) Protocol() string { return "ping" }

func (h *wbPing) ProcessRequest(ctx context.Context, msg *Message) (*Message, error) {
	h.mu.Lock()
	h.seen++
	block, entered := h.block, h.entered
	h.mu.Unlock()
	if entered != nil {
		entered <- transport.CallerConn(ctx)
	}
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &Message{Protocol: "ping", Run: msg.Run, Step: msg.Step + 1, Kind: "pong"}, nil
}

func (h *wbPing) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seen
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

// workerNet is a network both sides of a worker test run on.
type workerNet struct {
	network transport.Network
	addr    func(name string) string
}

func workerNetworks(t *testing.T) map[string]workerNet {
	inproc := transport.NewInprocNetwork()
	tcp := transport.NewTCPNetwork()
	t.Cleanup(func() { _ = inproc.Close(); _ = tcp.Close() })
	return map[string]workerNet{
		"inproc": {inproc, func(name string) string { return name }},
		"tcp":    {tcp, func(string) string { return "127.0.0.1:0" }},
	}
}

// workerFixture is a gateway host, a listening peer alice and a worker
// party served behind the gateway.
type workerFixture struct {
	host    *Host
	gw      *WorkerGateway
	alice   *Coordinator
	hAlice  *wbPing
	dir     *Directory
	ver     *evidence.Verifier
	issuers map[id.Party]*evidence.Issuer
}

func newWorkerFixture(t *testing.T, wn workerNet, parties ...id.Party) *workerFixture {
	t.Helper()
	f := &workerFixture{dir: NewDirectory(), hAlice: &wbPing{}}
	alice := id.Party("urn:org:wl-alice")
	f.ver, f.issuers = workerPKI(t, append(parties, alice)...)
	var err error
	if f.host, err = NewHost(wn.network, wn.addr("wl-gw")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.host.Close() })
	if f.gw, err = f.host.EnableWorkerGateway(GatewayConfig{Verifier: f.ver}); err != nil {
		t.Fatal(err)
	}
	if f.alice, err = New(wn.network, wn.addr("wl-alice-addr"), plainServices(t, f.dir, alice)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.alice.Close() })
	f.alice.Register(f.hAlice)
	return f
}

// connect runs a worker for p with handler h.
func (f *workerFixture) connect(t *testing.T, wn workerNet, p id.Party, h Handler) *Coordinator {
	t.Helper()
	svc := plainServices(t, f.dir, p)
	svc.Issuer = f.issuers[p]
	co, err := ConnectWorker(wn.network, f.host.Addr(), svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	co.Register(h)
	return co
}

func ping(tb testing.TB, from *Coordinator, to id.Party, payload string) error {
	msg := &Message{Protocol: "ping", Run: id.NewRun(), Step: 1, Payload: []byte(payload)}
	reply, err := from.DeliverRequest(context.Background(), to, msg)
	if err == nil && reply.Kind != "pong" {
		err = fmt.Errorf("reply = %+v", reply)
	}
	return err
}

func TestWorkerLinkEndToEnd(t *testing.T) {
	t.Parallel()
	for kind, wn := range workerNetworks(t) {
		t.Run(kind, func(t *testing.T) {
			bob := id.Party("urn:org:wl-bob")
			f := newWorkerFixture(t, wn, bob)
			coB := f.connect(t, wn, bob, &wbPing{})

			// Inbound: a listening peer requests through the gateway mailbox.
			for i := 0; i < 3; i++ {
				if err := ping(t, f.alice, bob, fmt.Sprintf("in-%d", i)); err != nil {
					t.Fatalf("alice -> worker: %v", err)
				}
			}
			// Outbound: the worker requests out over its client endpoint.
			if err := ping(t, coB, f.alice.Party(), "out"); err != nil {
				t.Fatalf("worker -> alice: %v", err)
			}
			if st := f.gw.Status(); st.Links != 1 || !st.Tenants[string(bob)].Linked {
				t.Fatalf("gateway status %+v, want bob linked on one connection", st)
			}
		})
	}
}

// refusePing refuses every ping.
type refusePing struct{ calls atomic.Int64 }

func (h *refusePing) Protocol() string { return "ping" }

func (h *refusePing) ProcessRequest(context.Context, *Message) (*Message, error) {
	h.calls.Add(1)
	return nil, errors.New("ping refused")
}

// TestGatewayRelaysAnsweredRefusal: a worker's refusal, which the
// worker's replay window would give every repeat again, reaches the
// sender through the gateway still answered, so the sender does not
// repeat it — over TCP as in process.
func TestGatewayRelaysAnsweredRefusal(t *testing.T) {
	t.Parallel()
	for kind, wn := range workerNetworks(t) {
		t.Run(kind, func(t *testing.T) {
			bob := id.Party("urn:org:wl-bob")
			f := newWorkerFixture(t, wn, bob)
			h := &refusePing{}
			f.connect(t, wn, bob, h)
			for i := 1; i <= 2; i++ {
				start := time.Now()
				err := f.alice.Deliver(context.Background(), bob, &Message{Protocol: "ping", Run: id.NewRun(), Step: 1, Kind: "note"})
				if took := time.Since(start); err == nil || !strings.Contains(err.Error(), "ping refused") || h.calls.Load() != int64(i) ||
					i == 2 && took > 50*time.Millisecond {
					t.Fatalf("delivery %d: %v after %d handler calls in %v, want the refusal within 50ms", i, err, h.calls.Load(), took)
				}
			}
		})
	}
}

// TestGatewayRefusesUnauthenticatedHello: a hello for an enrolled worker
// party that is unsigned, or signed by another party, is refused; the
// worker keeps its route and nothing reaches the impostor.
func TestGatewayRefusesUnauthenticatedHello(t *testing.T) {
	t.Parallel()
	wn := workerNetworks(t)["tcp"]
	bob, mallory := id.Party("urn:org:wl-bob"), id.Party("urn:org:wl-mallory")
	f := newWorkerFixture(t, wn, bob, mallory)
	hBob := &wbPing{}
	f.connect(t, wn, bob, hBob)

	var stolen atomic.Int64
	impostor, err := wn.network.(transport.Dialer).Dial(transport.HandlerFunc(func(context.Context, *transport.Envelope) (*transport.Envelope, error) {
		stolen.Add(1)
		return nil, errors.New("impostor")
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer impostor.Close()
	hello := func(iss *evidence.Issuer) error {
		msg := &Message{Protocol: "worker", Run: id.NewRun(), Step: 1, Kind: envWorkerHello}
		claim := &workerHelloBody{Party: bob}
		if err := msg.SetBody(claim); err != nil {
			return err
		}
		if iss != nil {
			d, err := claimDigest(claim)
			if err != nil {
				return err
			}
			tok, err := iss.Issue(evidence.KindWorkerHello, msg.Run, 1, d)
			if err != nil {
				return err
			}
			msg.Tokens = []*evidence.Token{tok}
		}
		body, err := marshalMessage(msg)
		if err != nil {
			return err
		}
		env := transport.NewEnvelope(envWorkerHello, body)
		env.Tenant = WorkerControlTenant
		_, err = impostor.Request(context.Background(), f.host.Addr(), env)
		return err
	}
	for name, iss := range map[string]*evidence.Issuer{"unsigned": nil, "signed by another party": f.issuers[mallory]} {
		if err := hello(iss); err == nil || !strings.Contains(err.Error(), ErrWorkerUnauthenticated.Error()) {
			t.Fatalf("%s hello = %v, want refused as unauthenticated", name, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := ping(t, f.alice, bob, "after"); err != nil {
			t.Fatalf("alice -> bob after the impostor: %v", err)
		}
	}
	if n := stolen.Load(); n != 0 {
		t.Fatalf("the impostor received %d envelopes", n)
	}
	if n := hBob.count(); n != 3 {
		t.Fatalf("bob handled %d requests, want 3", n)
	}
}

// TestWorkerLinkSurvivesKilledConnection: the worker's connection dies
// while it executes a request. The gateway re-queues the request, the
// worker says hello again on a new connection and gets it, and its replay
// window answers it with the one execution's result.
func TestWorkerLinkSurvivesKilledConnection(t *testing.T) {
	t.Parallel()
	wn := workerNetworks(t)["tcp"]
	bob := id.Party("urn:org:wl-bob")
	f := newWorkerFixture(t, wn, bob)
	release := make(chan struct{})
	h := &wbPing{block: release, entered: make(chan transport.Conn, 4)}
	f.connect(t, wn, bob, h)

	res := make(chan error, 1)
	go func() { res <- ping(t, f.alice, bob, "once") }()
	conn := <-h.entered
	if conn == nil {
		t.Fatal("the worker's handler saw no connection")
	}
	h.mu.Lock()
	h.entered = nil
	h.mu.Unlock()
	_ = conn.Close()
	waitFor(t, func() bool {
		st := f.gw.Status()
		return st.Links == 1 && st.Tenants[string(bob)].Linked && st.InFlight == 1
	})
	close(release)
	if err := <-res; err != nil {
		t.Fatalf("request over a killed worker connection: %v", err)
	}
	if n := h.count(); n != 1 {
		t.Fatalf("worker executed %d times, want 1", n)
	}
}
