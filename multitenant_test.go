// End-to-end tests of the multi-tenant coordinator host: many hosted
// organisations behind one shared endpoint, interoperating with
// dedicated organisations, with per-tenant evidence isolation — under
// coalesced cross-tenant batches too — and evidence byte-compatible with
// dedicated organisations' under adjudication and deep vault audit.
package nonrep_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"nonrep"
	"nonrep/internal/invoke"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

// TestHostedDomainEndToEnd hosts 16 organisations behind one shared
// endpoint, drives the full interaction path against every one of them
// from a dedicated organisation and between tenants, and then runs the
// full adjudication path: complete run reports, clean log audits, and a
// deep vault verify over a hosted organisation's evidence — proving
// hosted evidence is byte-compatible with dedicated evidence.
func TestHostedDomainEndToEnd(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()

	host, err := nonrep.NewHost(domain)
	if err != nil {
		t.Fatal(err)
	}

	const tenants = 16
	hosted := make([]*nonrep.Org, tenants)
	servers := make(map[nonrep.Party]*invoke.Server, tenants+1)
	for i := range hosted {
		p := nonrep.Party(fmt.Sprintf("urn:org:tenant-%02d", i))
		opts := []nonrep.OrgOption{}
		if i == 0 {
			// One tenant keeps its evidence in a vault for the deep audit.
			opts = append(opts, nonrep.WithVault(t.TempDir()))
		}
		hosted[i], err = domain.AddHostedOrg(host, p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		servers[p] = hosted[i].ServeExecutor(echoExecutor())
	}
	if got := len(host.Parties()); got != tenants {
		t.Fatalf("host serves %d parties, want %d", got, tenants)
	}

	dedicated, err := domain.AddOrg("urn:org:dedicated")
	if err != nil {
		t.Fatal(err)
	}
	servers[dedicated.Party()] = dedicated.ServeExecutor(echoExecutor())

	adj := domain.Adjudicator()
	invoke := func(from, to *nonrep.Org) *nonrep.Result {
		t.Helper()
		res, err := from.Invoke(context.Background(), to.Party(), nonrep.Request{
			Service:   nonrep.Service(string(to.Party()) + "/svc"),
			Operation: "Do",
		})
		if err != nil {
			t.Fatalf("%s -> %s: %v", from.Party(), to.Party(), err)
		}
		if res.Status != nonrep.StatusOK || len(res.Evidence) != 4 {
			t.Fatalf("%s -> %s: status %v, %d tokens", from.Party(), to.Party(), res.Status, len(res.Evidence))
		}
		// The client's response receipt lands at the server
		// asynchronously; wait so audits see the complete exchange.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := servers[to.Party()].WaitReceipt(ctx, res.Run); err != nil {
			t.Fatalf("%s -> %s receipt: %v", from.Party(), to.Party(), err)
		}
		return res
	}

	// Dedicated -> every hosted tenant, hosted -> hosted (ring), and
	// hosted -> dedicated: all three directions over one shared endpoint.
	var runs []nonrep.Run
	for i, org := range hosted {
		runs = append(runs, invoke(dedicated, org).Run)
		runs = append(runs, invoke(org, hosted[(i+1)%tenants]).Run)
	}
	backRun := invoke(hosted[3], dedicated).Run

	// Adjudication: each hosted server's log alone proves its runs, and
	// every log audits clean — exactly as dedicated organisations' do.
	for i, run := range runs[:4] {
		server := hosted[i/2]
		if i%2 == 1 {
			server = hosted[(i/2+1)%tenants]
		}
		report, _ := adj.AuditRunStream(server.Vault().Query(nonrep.VaultQuery{}), run)
		if !report.Complete() {
			t.Fatalf("hosted run %d report incomplete: %+v", i, report)
		}
	}
	if report, _ := adj.AuditRunStream(dedicated.Vault().Query(nonrep.VaultQuery{}), backRun); !report.Complete() {
		t.Fatalf("hosted->dedicated run incomplete: %+v", report)
	}
	for i, org := range hosted {
		if report := adj.AuditStream(org.Vault().Query(nonrep.VaultQuery{})); !report.Clean() {
			t.Fatalf("tenant %d log audit: chain=%q faults=%v", i, report.ChainError, report.Faults)
		}
	}

	// The vault-backed tenant passes the deep audit nrverify -deep runs.
	if v := hosted[0].Vault(); v == nil {
		t.Fatal("tenant 0 has no vault")
	} else if err := v.DeepVerify(); err != nil {
		t.Fatalf("hosted vault deep verify: %v", err)
	}
}

// TestHostedTenantIsolation proves the tenancy boundary: with pipelining
// coalescing concurrent envelopes across tenants into shared b2b-batch
// wire envelopes, each hosted organisation's evidence log still records
// exactly its own runs — never another tenant's — and every run's
// evidence lands exactly once.
func TestHostedTenantIsolation(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithPipelining())
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()

	host, err := nonrep.NewHost(domain)
	if err != nil {
		t.Fatal(err)
	}
	orgA, err := domain.AddHostedOrg(host, "urn:org:tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	orgB, err := domain.AddHostedOrg(host, "urn:org:tenant-b")
	if err != nil {
		t.Fatal(err)
	}
	orgA.ServeExecutor(echoExecutor())
	orgB.ServeExecutor(echoExecutor())
	client, err := domain.AddOrg("urn:org:client")
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent invocations against both tenants: the client's coalescer
	// queues by the host's wire address, so batches mix sub-envelopes for
	// tenant A and tenant B.
	const perTenant = 16
	runsOf := map[nonrep.Party][]nonrep.Run{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 2*perTenant)
	for i := 0; i < perTenant; i++ {
		for _, target := range []*nonrep.Org{orgA, orgB} {
			wg.Add(1)
			go func(target *nonrep.Org) {
				defer wg.Done()
				res, err := client.Invoke(context.Background(), target.Party(), nonrep.Request{
					Service:   nonrep.Service(string(target.Party()) + "/svc"),
					Operation: "Do",
				})
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				runsOf[target.Party()] = append(runsOf[target.Party()], res.Run)
				mu.Unlock()
			}(target)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Receipts arrive asynchronously; give them a moment to land before
	// asserting exact record counts.
	deadline := time.Now().Add(2 * time.Second)
	for _, org := range []*nonrep.Org{orgA, orgB} {
		for time.Now().Before(deadline) && org.Log().Len() < 4*perTenant {
			time.Sleep(10 * time.Millisecond)
		}
	}

	isRunOf := func(p nonrep.Party, run nonrep.Run) bool {
		for _, r := range runsOf[p] {
			if r == run {
				return true
			}
		}
		return false
	}
	for _, org := range []*nonrep.Org{orgA, orgB} {
		p := org.Party()
		other := orgA.Party()
		if p == other {
			other = orgB.Party()
		}
		// Exactly its own evidence: 4 records per run, all runs its own.
		if got := org.Log().Len(); got != 4*perTenant {
			t.Fatalf("%s log has %d records, want %d", p, got, 4*perTenant)
		}
		for _, rec := range testpki.Query(t, org.Log(), store.Query{}) {
			if !isRunOf(p, rec.Token.Run) {
				t.Fatalf("%s log contains record of run %s (another tenant's: %v)",
					p, rec.Token.Run, isRunOf(other, rec.Token.Run))
			}
		}
		for _, run := range runsOf[p] {
			if got := len(testpki.Query(t, org.Log(), store.Query{Run: run})); got != 4 {
				t.Fatalf("%s run %s has %d records, want exactly 4", p, run, got)
			}
		}
	}

	// Pipelining composed for hosted tenants: some evidence carries
	// aggregate (Merkle batch) signatures.
	batched := false
	for _, rec := range testpki.Query(t, orgA.Log(), store.Query{}) {
		if len(rec.Token.Signature.BatchPath) > 0 {
			batched = true
			break
		}
	}
	if !batched {
		t.Fatal("no aggregate signatures on hosted tenant evidence — pipelining did not compose with hosting")
	}
}

// TestHostedOverTCPOneListener runs a multi-tenant host on the TCP
// transport: all hosted organisations share one listener, the full
// interaction path works across it, and Domain.Close stops the listener.
func TestHostedOverTCPOneListener(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			_ = domain.Close()
		}
	}()

	host, err := nonrep.NewHost(domain)
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 4
	orgs := make([]*nonrep.Org, tenants)
	for i := range orgs {
		orgs[i], err = domain.AddHostedOrg(host, nonrep.Party(fmt.Sprintf("urn:org:tcp-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		orgs[i].ServeExecutor(echoExecutor())
	}
	for _, org := range orgs {
		wire, _, ok := splitHostAddr(org.Addr())
		if !ok || wire != host.Addr() {
			t.Fatalf("org %s addr %q not behind host %q", org.Party(), org.Addr(), host.Addr())
		}
	}
	res, err := orgs[0].Invoke(context.Background(), orgs[1].Party(), nonrep.Request{
		Service: nonrep.Service(string(orgs[1].Party()) + "/svc"), Operation: "Do",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evidence) != 4 {
		t.Fatalf("evidence = %d tokens, want 4", len(res.Evidence))
	}

	if err := domain.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
	if conn, err := net.DialTimeout("tcp", host.Addr(), 250*time.Millisecond); err == nil {
		_ = conn.Close()
		t.Fatalf("host listener %s survived Domain.Close", host.Addr())
	}
}

// splitHostAddr splits a tenant-qualified address without importing the
// transport package's helper into the public test surface.
func splitHostAddr(addr string) (wire, tenant string, ok bool) {
	for i := 0; i < len(addr); i++ {
		if addr[i] == '#' {
			return addr[:i], addr[i+1:], true
		}
	}
	return addr, "", false
}
