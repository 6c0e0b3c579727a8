package protocol_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
)

// hostFixture is a realm with one multi-tenant host and a dedicated
// coordinator sharing a directory.
type hostFixture struct {
	t     *testing.T
	realm *testpki.Realm
	dir   *protocol.Directory
	host  *protocol.Host
}

func newHostFixture(t *testing.T, network transport.Network, addr string, parties ...id.Party) *hostFixture {
	t.Helper()
	realm := testpki.MustRealm(parties...)
	dir := protocol.NewDirectory()
	host, err := protocol.NewHost(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = host.Close() })
	return &hostFixture{t: t, realm: realm, dir: dir, host: host}
}

func (f *hostFixture) services(p id.Party) *protocol.Services {
	return &protocol.Services{
		Party:     p,
		Issuer:    f.realm.Party(p).Issuer,
		Verifier:  f.realm.Verifier(),
		Log:       testpki.Log(f.t, f.realm.Clock),
		States:    store.NewMemStateStore(),
		Clock:     f.realm.Clock,
		Directory: f.dir,
	}
}

func TestHostRoutesManyTenants(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })

	const tenants = 8
	parties := make([]id.Party, tenants)
	for i := range parties {
		parties[i] = id.Party(fmt.Sprintf("urn:org:t%d", i))
	}
	f := newHostFixture(t, network, "shared-host", parties...)

	handlers := make([]*pingHandler, tenants)
	cos := make([]*protocol.Coordinator, tenants)
	for i, p := range parties {
		co, err := f.host.Add(f.services(p))
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = &pingHandler{}
		co.Register(handlers[i])
		cos[i] = co
	}
	if got := len(f.host.Parties()); got != tenants {
		t.Fatalf("host serves %d parties, want %d", got, tenants)
	}

	// Every tenant requests every other tenant through the shared
	// endpoint; each handler must see exactly tenants-1 requests.
	for i, from := range cos {
		for j, to := range parties {
			if i == j {
				continue
			}
			msg := &protocol.Message{Protocol: "ping", Run: id.NewRun(), Step: 1, Payload: []byte("x")}
			reply, err := from.DeliverRequest(context.Background(), to, msg)
			if err != nil {
				t.Fatalf("%s -> %s: %v", parties[i], to, err)
			}
			if reply.Kind != "pong" {
				t.Fatalf("reply = %+v", reply)
			}
		}
	}
	for i, h := range handlers {
		if got := h.requests.Load(); got != tenants-1 {
			t.Fatalf("tenant %d handled %d requests, want %d", i, got, tenants-1)
		}
	}
}

func TestHostInteroperatesWithDedicated(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newHostFixture(t, network, "shared-host", alice, bob)

	hosted, err := f.host.Add(f.services(alice))
	if err != nil {
		t.Fatal(err)
	}
	hostedHandler := &pingHandler{}
	hosted.Register(hostedHandler)

	dedicated, err := protocol.New(network, string(bob), f.services(bob))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dedicated.Close() })
	dedicatedHandler := &pingHandler{}
	dedicated.Register(dedicatedHandler)

	// Dedicated -> hosted: resolved through the tenant-qualified address.
	msg := &protocol.Message{Protocol: "ping", Run: id.NewRun(), Step: 1}
	if _, err := dedicated.DeliverRequest(context.Background(), alice, msg); err != nil {
		t.Fatal(err)
	}
	if got := hostedHandler.requests.Load(); got != 1 {
		t.Fatalf("hosted handled %d, want 1", got)
	}
	// Hosted -> dedicated.
	msg = &protocol.Message{Protocol: "ping", Run: id.NewRun(), Step: 1}
	if _, err := hosted.DeliverRequest(context.Background(), bob, msg); err != nil {
		t.Fatal(err)
	}
	if got := dedicatedHandler.requests.Load(); got != 1 {
		t.Fatalf("dedicated handled %d, want 1", got)
	}
	// The hosted coordinator's advertised address is tenant-qualified.
	wire, tenant := transport.SplitTenantAddr(hosted.Addr())
	if wire != f.host.Addr() || tenant != string(alice) {
		t.Fatalf("hosted addr = %q (host %q)", hosted.Addr(), f.host.Addr())
	}
}

func TestHostOneListenerOverTCP(t *testing.T) {
	t.Parallel()
	network := transport.NewTCPNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newHostFixture(t, network, "127.0.0.1:0", alice, bob)

	coA, err := f.host.Add(f.services(alice))
	if err != nil {
		t.Fatal(err)
	}
	coB, err := f.host.Add(f.services(bob))
	if err != nil {
		t.Fatal(err)
	}
	coB.Register(&pingHandler{})

	wireA, _ := transport.SplitTenantAddr(coA.Addr())
	wireB, _ := transport.SplitTenantAddr(coB.Addr())
	if wireA != wireB || wireA != f.host.Addr() {
		t.Fatalf("tenants on different listeners: %q vs %q", coA.Addr(), coB.Addr())
	}
	msg := &protocol.Message{Protocol: "ping", Run: id.NewRun(), Step: 1, Payload: []byte("tcp")}
	reply, err := coA.DeliverRequest(context.Background(), bob, msg)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != "pong" {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestHostTenantLifecycle(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	f := newHostFixture(t, network, "shared-host", alice, bob, id.Party("urn:org:probe"))

	coA, err := f.host.Add(f.services(alice))
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate tenant registration fails.
	if _, err := f.host.Add(f.services(alice)); !errors.Is(err, protocol.ErrTenantEnrolled) {
		t.Fatalf("duplicate Add = %v, want ErrTenantEnrolled", err)
	}
	coB, err := f.host.Add(f.services(bob))
	if err != nil {
		t.Fatal(err)
	}
	coB.Register(&pingHandler{})

	// Closing one tenant's coordinator detaches only that tenant.
	if err := coA.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.host.Coordinator(alice); err == nil {
		t.Fatal("closed tenant still resolvable")
	}
	if _, err := f.host.Coordinator(bob); err != nil {
		t.Fatal(err)
	}
	// The surviving tenant still serves traffic over the shared endpoint.
	dedicated, err := protocol.New(network, "dedicated", f.services(id.Party("urn:org:probe")))
	if err == nil {
		t.Cleanup(func() { _ = dedicated.Close() })
		msg := &protocol.Message{Protocol: "ping", Run: id.NewRun(), Step: 1}
		if _, err := dedicated.DeliverRequest(context.Background(), bob, msg); err != nil {
			t.Fatal(err)
		}
	}
	// Traffic for the detached tenant now fails.
	msg := &protocol.Message{Protocol: "ping", Run: id.NewRun(), Step: 1}
	if _, err := coB.DeliverRequest(context.Background(), alice, msg); err == nil {
		t.Fatal("request to detached tenant succeeded")
	}

	// Adding after host close fails.
	if err := f.host.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.host.Add(f.services(id.Party("urn:org:probe"))); !errors.Is(err, protocol.ErrHostClosed) {
		t.Fatalf("Add after Close = %v, want ErrHostClosed", err)
	}
}

// TestHostConcurrentAddAndDispatch hammers tenant registration while
// traffic flows — the copy-on-write shard maps must stay consistent
// under -race.
func TestHostConcurrentAddAndDispatch(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })

	const tenants = 32
	parties := make([]id.Party, tenants)
	for i := range parties {
		parties[i] = id.Party(fmt.Sprintf("urn:org:c%d", i))
	}
	f := newHostFixture(t, network, "shared-host", append(parties, "urn:org:probe-c")...)

	// Seed one tenant to direct traffic at while others register.
	seed, err := f.host.Add(f.services(parties[0]))
	if err != nil {
		t.Fatal(err)
	}
	seed.Register(&pingHandler{})
	probe, err := protocol.New(network, "probe", f.services(id.Party("urn:org:probe-c")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = probe.Close() })

	var wg sync.WaitGroup
	errs := make(chan error, tenants*2)
	for i := 1; i < tenants; i++ {
		wg.Add(1)
		go func(p id.Party) {
			defer wg.Done()
			co, err := f.host.Add(f.services(p))
			if err != nil {
				errs <- err
				return
			}
			co.Register(&pingHandler{})
		}(parties[i])
	}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := &protocol.Message{Protocol: "ping", Run: id.NewRun(), Step: 1}
			if _, err := probe.DeliverRequest(context.Background(), parties[0], msg); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(f.host.Parties()); got != tenants {
		t.Fatalf("host serves %d parties, want %d", got, tenants)
	}
}

// TestTenantDetachUnregistersDirectory: detaching a hosted organisation —
// whether through Host.Remove or the hosted coordinator's Close — must
// withdraw its directory registration, so peers fail fast at resolution
// instead of addressing a tenant the host no longer serves; and a tenant
// that re-enrolled elsewhere first must keep its new registration.
func TestTenantDetachUnregistersDirectory(t *testing.T) {
	t.Parallel()
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	a, b := id.Party("urn:org:detach-a"), id.Party("urn:org:detach-b")
	f := newHostFixture(t, network, "detach-host", a, b)

	coA, err := f.host.Add(f.services(a))
	if err != nil {
		t.Fatal(err)
	}
	coB, err := f.host.Add(f.services(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.dir.Resolve(a); err != nil {
		t.Fatalf("hosted tenant not registered: %v", err)
	}

	// Host.Remove withdraws the registration.
	f.host.Remove(a)
	if _, err := f.dir.Resolve(a); err == nil {
		t.Fatal("detached tenant still resolvable through the directory")
	}
	// Closing the hosted coordinator withdraws it too (the endpoint path).
	if err := coB.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.dir.Resolve(b); err == nil {
		t.Fatal("closed hosted coordinator still resolvable through the directory")
	}
	// Detach is idempotent and must not disturb an unrelated party.
	f.host.Remove(a)
	_ = coA // the removed tenant's coordinator may be closed late...
	if err := coA.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-enrolment after detach works, and a LATE cleanup of the old
	// coordinator must not clobber the successor's registration: the
	// directory only unregisters while the address still matches.
	coA2, err := f.host.Add(f.services(a))
	if err != nil {
		t.Fatalf("re-enrol after detach: %v", err)
	}
	f.dir.Register(a, "somewhere-else")
	f.host.Remove(a)
	if addr, err := f.dir.Resolve(a); err != nil || addr != "somewhere-else" {
		t.Fatalf("late detach clobbered the successor registration: %q, %v", addr, err)
	}
	_ = coA2
}
