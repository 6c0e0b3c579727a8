package container_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"nonrep/internal/access"
	"nonrep/internal/container"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/sharing"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

const (
	dealer       = id.Party("urn:org:dealer")
	manufacturer = id.Party("urn:org:manufacturer")
	ordersURI    = id.Service("urn:org:manufacturer/orders")
)

// OrderBook is a demo component (the "EJB").
type OrderBook struct {
	mu     sync.Mutex
	orders map[string]int
	fail   bool

	txBegun, txCommitted, txRolledBack int
}

// PlaceOrder records an order and returns its total price.
func (o *OrderBook) PlaceOrder(_ context.Context, model string, qty int) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.fail {
		return 0, fmt.Errorf("injected failure")
	}
	if qty <= 0 {
		return 0, fmt.Errorf("quantity must be positive")
	}
	if o.orders == nil {
		o.orders = make(map[string]int)
	}
	o.orders[model] += qty
	return qty * 1000, nil
}

// CancelOrder removes an order.
func (o *OrderBook) CancelOrder(_ context.Context, model string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.orders, model)
	return nil
}

// Begin implements container.Transactional.
func (o *OrderBook) Begin() error { o.txBegun++; return nil }

// Commit implements container.Transactional.
func (o *OrderBook) Commit() error { o.txCommitted++; return nil }

// Rollback implements container.Transactional.
func (o *OrderBook) Rollback() error { o.txRolledBack++; return nil }

// MarshalState implements container.Persistent.
func (o *OrderBook) MarshalState() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return json.Marshal(o.orders)
}

type fixture struct {
	domain *testpki.Domain
	book   *OrderBook
	acl    *access.Manager
	cont   *container.Container
	srv    *invoke.Server
	proxy  *container.Proxy
}

func newFixture(t *testing.T, opts ...container.Option) *fixture {
	t.Helper()
	d := testpki.MustDomain(dealer, manufacturer)
	t.Cleanup(d.Close)

	acl := access.NewManager()
	acl.Activate(dealer, "dealer")

	cont := container.New(acl, opts...)
	book := &OrderBook{}
	desc := container.Descriptor{
		Service: ordersURI,
		Methods: map[string]container.MethodPolicy{
			"PlaceOrder":  {NonRepudiation: true, Protocols: []string{invoke.ProtocolDirect}, Roles: []access.Role{"dealer"}},
			"CancelOrder": {NonRepudiation: true, Protocols: []string{invoke.ProtocolDirect}},
		},
	}
	if err := cont.Deploy(desc, book); err != nil {
		t.Fatal(err)
	}
	srv := invoke.NewServer(d.Node(manufacturer).Coordinator(), cont)
	t.Cleanup(func() { _ = srv.Close() })
	cli := invoke.NewClient(d.Node(dealer).Coordinator())
	proxy := container.NewProxy(cli, manufacturer, ordersURI)
	return &fixture{domain: d, book: book, acl: acl, cont: cont, srv: srv, proxy: proxy}
}

func TestProxyCallThroughNRMiddleware(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	var price int
	res, err := f.proxy.CallValue(context.Background(), &price, "PlaceOrder", "roadster", 2)
	if err != nil {
		t.Fatal(err)
	}
	if price != 2000 {
		t.Fatalf("price = %d", price)
	}
	if len(res.Evidence) != 4 {
		t.Fatalf("evidence tokens = %d, want 4", len(res.Evidence))
	}
	// The invocation is in both evidence logs.
	if got := f.domain.Node(dealer).Log().Len(); got != 4 {
		t.Errorf("dealer log = %d records", got)
	}
}

func TestAccessDenialBecomesNotExecutedEvidence(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	f.acl.DeactivateAll(dealer)
	res, err := f.proxy.Call(context.Background(), "PlaceOrder", "roadster", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusNotExecuted {
		t.Fatalf("status = %v, want not-executed (request received but not executed)", res.Status)
	}
	if !strings.Contains(res.Err, "denied") {
		t.Fatalf("err = %q", res.Err)
	}
	// The denial itself is fully evidenced.
	if len(res.Evidence) != 4 {
		t.Fatalf("evidence tokens = %d, want 4", len(res.Evidence))
	}
}

// TestUnlistedProtocolIsNotExecuted: a method whose descriptor lists no
// protocols runs under direct alone; invoked under voluntary it is
// received but not executed, and the refusal names what it does run
// under.
func TestUnlistedProtocolIsNotExecuted(t *testing.T) {
	t.Parallel()
	book := &OrderBook{}
	f := newFixtureWith(t, book)
	vol := invoke.NewServer(f.domain.Node(manufacturer).Coordinator(), f.cont, invoke.ForProtocol(invoke.ProtocolVoluntary))
	t.Cleanup(func() { _ = vol.Close() })
	cli := invoke.NewClient(f.domain.Node(dealer).Coordinator(), invoke.WithProtocol(invoke.ProtocolVoluntary))
	res, err := container.NewProxy(cli, manufacturer, ordersURI).Call(context.Background(), "PlaceOrder", "roadster", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusNotExecuted {
		t.Fatalf("status = %v, want not-executed", res.Status)
	}
	if !strings.Contains(res.Err, invoke.ProtocolDirect) {
		t.Fatalf("refusal %q does not name the method's protocols", res.Err)
	}
	if len(book.orders) != 0 {
		t.Fatalf("component ran: orders = %v", book.orders)
	}
}

// TestRefusedProtocolLeavesVerifiableEvidence: a method offered under
// voluntary alone, invoked under direct, is refused before the component
// runs, and the client holds the server's signed not-executed response
// origin, bound to the run's request.
func TestRefusedProtocolLeavesVerifiableEvidence(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(dealer, manufacturer)
	t.Cleanup(d.Close)
	cont := container.New(access.NewManager())
	book := &OrderBook{}
	if err := cont.Deploy(container.Descriptor{
		Service: ordersURI,
		Methods: map[string]container.MethodPolicy{"PlaceOrder": {Protocols: []string{invoke.ProtocolVoluntary}}},
	}, book); err != nil {
		t.Fatal(err)
	}
	srv := invoke.NewServer(d.Node(manufacturer).Coordinator(), cont)
	t.Cleanup(func() { _ = srv.Close() })
	proxy := container.NewProxy(invoke.NewClient(d.Node(dealer).Coordinator()), manufacturer, ordersURI)
	res, err := proxy.Call(context.Background(), "PlaceOrder", "roadster", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusNotExecuted {
		t.Fatalf("status = %v, want not-executed", res.Status)
	}
	if len(book.orders) != 0 {
		t.Fatalf("component ran: orders = %v", book.orders)
	}
	a := &evidence.Anchors{Run: res.Run, Server: manufacturer}
	for _, tok := range res.Evidence {
		switch tok.Kind {
		case evidence.KindNRO:
			a.NRO = tok
		case evidence.KindNRR:
			a.NRR = tok
		case evidence.KindNROResp:
			a.NROResp = tok
		}
	}
	if err := d.Realm.Verifier().ExpectBound(a.NROResp, evidence.KindNROResp, a); err != nil {
		t.Fatalf("not-executed response origin: %v", err)
	}
}

func TestComponentErrorBecomesFailedEvidence(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	res, err := f.proxy.Call(context.Background(), "PlaceOrder", "roadster", -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusFailed {
		t.Fatalf("status = %v", res.Status)
	}
	if !strings.Contains(res.Err, "positive") {
		t.Fatalf("err = %q", res.Err)
	}
}

func TestArgumentMismatch(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	res, err := f.proxy.Call(context.Background(), "PlaceOrder", "roadster")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusFailed {
		t.Fatalf("status = %v", res.Status)
	}
	if !strings.Contains(res.Err, "takes 2 args") {
		t.Fatalf("err = %q", res.Err)
	}
}

func TestUnknownMethodAndService(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	res, err := f.proxy.Call(context.Background(), "Steal", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusFailed {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestDeployValidation(t *testing.T) {
	t.Parallel()
	cont := container.New(access.NewManager())
	// Missing method.
	err := cont.Deploy(container.Descriptor{
		Service: "urn:x/s",
		Methods: map[string]container.MethodPolicy{"Nope": {}},
	}, &OrderBook{})
	if !errors.Is(err, container.ErrUnknownMethod) {
		t.Fatalf("Deploy = %v, want ErrUnknownMethod", err)
	}
	// Bad signature: method without ctx.
	type bad struct{}
	_ = bad{}
	err = cont.Deploy(container.Descriptor{
		Service: "urn:x/s",
		Methods: map[string]container.MethodPolicy{"Begin": {}},
	}, &OrderBook{}) // Begin() has no ctx / error-last is fine? Begin() error — no ctx.
	if !errors.Is(err, container.ErrBadSignature) {
		t.Fatalf("Deploy = %v, want ErrBadSignature", err)
	}
	// A protocol that is not an invocation protocol, and an empty role.
	for _, p := range []container.MethodPolicy{
		{Protocols: []string{invoke.ProtocolDirect, invoke.ProtocolResolve}},
		{Protocols: []string{"direct"}},
		{Roles: []access.Role{"dealer", ""}},
	} {
		err = cont.Deploy(container.Descriptor{
			Service: "urn:x/s",
			Methods: map[string]container.MethodPolicy{"PlaceOrder": p},
		}, &OrderBook{})
		if err == nil || !strings.Contains(err.Error(), "PlaceOrder") {
			t.Fatalf("Deploy(%+v) = %v, want a descriptor error", p, err)
		}
	}
	// Valid deploy then duplicate.
	desc := container.Descriptor{
		Service: "urn:x/s",
		Methods: map[string]container.MethodPolicy{"PlaceOrder": {}},
	}
	if err := cont.Deploy(desc, &OrderBook{}); err != nil {
		t.Fatal(err)
	}
	if err := cont.Deploy(desc, &OrderBook{}); err == nil {
		t.Fatal("duplicate Deploy succeeded")
	}
}

func TestChainOrderAndInterceptors(t *testing.T) {
	t.Parallel()
	var order []string
	mk := func(name string) container.Interceptor {
		return &namedInterceptor{name: name, trace: &order}
	}
	terminal := container.InvokerFunc(func(context.Context, *container.Invocation) (any, error) {
		order = append(order, "terminal")
		return "done", nil
	})
	out, err := container.Chain(terminal, mk("a"), mk("b"), mk("c")).Invoke(context.Background(), &container.Invocation{})
	if err != nil || out != "done" {
		t.Fatal(out, err)
	}
	want := "a>b>c>terminal<c<b<a"
	if got := strings.Join(order, ""); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

type namedInterceptor struct {
	name  string
	trace *[]string
}

func (n *namedInterceptor) Name() string { return n.name }

func (n *namedInterceptor) Invoke(ctx context.Context, inv *container.Invocation, next container.Invoker) (any, error) {
	*n.trace = append(*n.trace, n.name+">")
	out, err := next.Invoke(ctx, inv)
	*n.trace = append(*n.trace, "<"+n.name)
	return out, err
}

func TestTxInterceptor(t *testing.T) {
	t.Parallel()
	book := &OrderBook{}
	f := newFixtureWith(t, book, container.WithInterceptors(&container.TxInterceptor{Target: book}))
	if _, err := f.proxy.Call(context.Background(), "PlaceOrder", "gt", 1); err != nil {
		t.Fatal(err)
	}
	if book.txBegun != 1 || book.txCommitted != 1 || book.txRolledBack != 0 {
		t.Fatalf("tx counts = %d/%d/%d", book.txBegun, book.txCommitted, book.txRolledBack)
	}
	// A failing call rolls back.
	if _, err := f.proxy.Call(context.Background(), "PlaceOrder", "gt", -1); err != nil {
		t.Fatal(err)
	}
	if book.txRolledBack != 1 {
		t.Fatalf("rollbacks = %d", book.txRolledBack)
	}
}

// newFixtureWith builds a fixture around a caller-supplied component.
func newFixtureWith(t *testing.T, book *OrderBook, opts ...container.Option) *fixture {
	t.Helper()
	d := testpki.MustDomain(dealer, manufacturer)
	t.Cleanup(d.Close)
	acl := access.NewManager()
	cont := container.New(acl, opts...)
	desc := container.Descriptor{
		Service: ordersURI,
		Methods: map[string]container.MethodPolicy{
			"PlaceOrder":  {NonRepudiation: true},
			"CancelOrder": {NonRepudiation: true},
		},
	}
	if err := cont.Deploy(desc, book); err != nil {
		t.Fatal(err)
	}
	srv := invoke.NewServer(d.Node(manufacturer).Coordinator(), cont)
	t.Cleanup(func() { _ = srv.Close() })
	cli := invoke.NewClient(d.Node(dealer).Coordinator())
	return &fixture{
		domain: d, book: book, acl: acl, cont: cont, srv: srv,
		proxy: container.NewProxy(cli, manufacturer, ordersURI),
	}
}

func TestPersistenceInterceptor(t *testing.T) {
	t.Parallel()
	book := &OrderBook{}
	states := store.NewMemStateStore()
	f := newFixtureWith(t, book, container.WithInterceptors(
		&container.PersistenceInterceptor{Target: book, States: states}))
	if _, err := f.proxy.Call(context.Background(), "PlaceOrder", "gt", 3); err != nil {
		t.Fatal(err)
	}
	state, err := book.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !states.Has(sigSum(state)) {
		t.Fatal("component state not persisted")
	}
}

func TestLoggingAndMetaInterceptors(t *testing.T) {
	t.Parallel()
	var logged []string
	logic := &container.LoggingInterceptor{Log: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}}
	meta := &container.MetaInterceptor{Entries: map[string]string{"tenant": "ve-1"}}
	var seenMeta string
	terminal := container.InvokerFunc(func(_ context.Context, inv *container.Invocation) (any, error) {
		seenMeta = inv.Meta["tenant"]
		return nil, nil
	})
	if _, err := container.Chain(terminal, logic, meta).Invoke(context.Background(), &container.Invocation{
		Service: "urn:x/s", Method: "M", Caller: dealer,
	}); err != nil {
		t.Fatal(err)
	}
	if seenMeta != "ve-1" {
		t.Fatal("meta not propagated")
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "urn:x/s.M") {
		t.Fatalf("logged = %v", logged)
	}
}

// Design document entity shared between two organisations (Figure 8).
type designDoc struct {
	mu    sync.Mutex
	Parts []string `json:"parts"`
}

func (d *designDoc) SharedObjectID() string { return "design-doc" }

func (d *designDoc) MarshalState() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return json.Marshal(struct {
		Parts []string `json:"parts"`
	}{Parts: d.Parts})
}

func (d *designDoc) RestoreState(state []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var v struct {
		Parts []string `json:"parts"`
	}
	if err := json.Unmarshal(state, &v); err != nil {
		return err
	}
	d.Parts = v.Parts
	return nil
}

// AddPart mutates the shared entity.
func (d *designDoc) AddPart(_ context.Context, part string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.Parts = append(d.Parts, part)
	return nil
}

func TestB2BObjectInterceptorCoordinatesEntityUpdates(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(dealer, manufacturer)
	t.Cleanup(d.Close)
	ctlM := sharing.NewController(d.Node(manufacturer).Coordinator())
	ctlD := sharing.NewController(d.Node(dealer).Coordinator())
	group := []id.Party{dealer, manufacturer}

	entityM := &designDoc{}
	entityD := &designDoc{}
	initial, err := entityM.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctlM.Create("design-doc", initial, group); err != nil {
		t.Fatal(err)
	}
	if err := ctlD.Create("design-doc", initial, group); err != nil {
		t.Fatal(err)
	}
	// Dealer's entity tracks remote agreed updates.
	dealerSide := &container.B2BObjectInterceptor{Controller: ctlD, Entity: entityD}
	dealerSide.Bind()

	ic := &container.B2BObjectInterceptor{Controller: ctlM, Entity: entityM}
	terminal := container.InvokerFunc(func(ctx context.Context, inv *container.Invocation) (any, error) {
		return nil, entityM.AddPart(ctx, "chassis-x1")
	})
	if _, err := container.Chain(terminal, ic).Invoke(context.Background(), &container.Invocation{Method: "AddPart"}); err != nil {
		t.Fatal(err)
	}
	// Both entities converged through coordination.
	if len(entityM.Parts) != 1 || entityM.Parts[0] != "chassis-x1" {
		t.Fatalf("manufacturer entity = %+v", entityM.Parts)
	}
	if len(entityD.Parts) != 1 || entityD.Parts[0] != "chassis-x1" {
		t.Fatalf("dealer entity = %+v", entityD.Parts)
	}

	// A veto rolls the entity back atomically.
	ctlD.AddValidator("design-doc", sharing.ValidatorFunc(
		func(_ context.Context, ch *sharing.Change) sharing.Verdict {
			return sharing.Reject("no more parts")
		}))
	terminal2 := container.InvokerFunc(func(ctx context.Context, inv *container.Invocation) (any, error) {
		return nil, entityM.AddPart(ctx, "spoiler-z9")
	})
	_, err = container.Chain(terminal2, ic).Invoke(context.Background(), &container.Invocation{Method: "AddPart"})
	if !errors.Is(err, container.ErrUpdateRejected) {
		t.Fatalf("err = %v, want ErrUpdateRejected", err)
	}
	if len(entityM.Parts) != 1 {
		t.Fatalf("entity not rolled back: %+v", entityM.Parts)
	}
}

func sigSum(b []byte) sig.Digest { return sig.Sum(b) }
