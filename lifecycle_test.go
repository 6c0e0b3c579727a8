// Regression tests for domain lifecycle bugs: the AddOrg check-then-act
// enrolment race, the dead ErrNotEnrolled sentinel, TCP listeners
// surviving Domain.Close, and a re-enrolled party's key replacing the one
// its earlier evidence was signed with.
package nonrep_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"nonrep"
	"nonrep/internal/evidence"
)

// TestAddOrgConcurrentSamePartyRace is the regression test for the
// enrolment check-then-act race: many concurrent AddOrg calls for one
// party must produce exactly one organisation; every loser must fail
// with ErrAlreadyEnrolled instead of silently overwriting the winner
// (leaking its node, log lock and directory registration).
func TestAddOrgConcurrentSamePartyRace(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()

	const attempts = 16
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		wins   []*nonrep.Org
		losses []error
	)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			org, err := domain.AddOrg("urn:org:contended")
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				losses = append(losses, err)
				return
			}
			wins = append(wins, org)
		}()
	}
	wg.Wait()

	if len(wins) != 1 {
		t.Fatalf("%d concurrent enrolments succeeded, want exactly 1", len(wins))
	}
	if len(losses) != attempts-1 {
		t.Fatalf("%d enrolments failed, want %d", len(losses), attempts-1)
	}
	for _, err := range losses {
		if !errors.Is(err, nonrep.ErrAlreadyEnrolled) {
			t.Fatalf("loser error = %v, want ErrAlreadyEnrolled", err)
		}
	}
	// The surviving organisation is the registered one and still works.
	got, err := domain.Org("urn:org:contended")
	if err != nil {
		t.Fatal(err)
	}
	if got != wins[0] {
		t.Fatal("registered organisation is not the winning enrolment")
	}
}

// TestAddOrgConcurrentDistinctParties enrols many different parties
// concurrently; all must succeed and be resolvable.
func TestAddOrgConcurrentDistinctParties(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()

	const orgs = 16
	var wg sync.WaitGroup
	errs := make([]error, orgs)
	for i := 0; i < orgs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = domain.AddOrg(nonrep.Party(fmt.Sprintf("urn:org:p%02d", i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("enrolment %d: %v", i, err)
		}
	}
	for i := 0; i < orgs; i++ {
		if _, err := domain.Org(nonrep.Party(fmt.Sprintf("urn:org:p%02d", i))); err != nil {
			t.Fatalf("Org(%d): %v", i, err)
		}
	}
}

// TestEnrolmentSentinels is the regression test for the dead
// ErrNotEnrolled sentinel: Domain.Org must return an error matching it
// with errors.Is, and duplicate enrolment must match ErrAlreadyEnrolled.
func TestEnrolmentSentinels(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()

	if _, err := domain.Org("urn:org:ghost"); !errors.Is(err, nonrep.ErrNotEnrolled) {
		t.Fatalf("Org(unknown) = %v, want errors.Is(…, ErrNotEnrolled)", err)
	}
	if _, err := domain.AddOrg("urn:org:dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := domain.AddOrg("urn:org:dup"); !errors.Is(err, nonrep.ErrAlreadyEnrolled) {
		t.Fatalf("AddOrg(duplicate) = %v, want errors.Is(…, ErrAlreadyEnrolled)", err)
	}
}

// TestCloseWhileInvoking closes the domain while invocations are in
// flight: in-flight calls may fail, but nothing may deadlock, panic or
// race.
func TestCloseWhileInvoking(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	client, err := domain.AddOrg("urn:org:closer-client")
	if err != nil {
		t.Fatal(err)
	}
	server, err := domain.AddOrg("urn:org:closer-server")
	if err != nil {
		t.Fatal(err)
	}
	server.ServeExecutor(echoExecutor())

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 32; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				// Errors are expected once the domain closes underneath us.
				_, _ = client.Invoke(ctx, server.Party(), nonrep.Request{
					Service: "urn:org:closer-server/svc", Operation: "Do",
				})
				cancel()
			}
		}()
	}
	close(start)
	if err := domain.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestAddOrgRaceLeaksNoTCPListener composes the two lifecycle bugs the
// way they amplified each other: when concurrent enrolments of one party
// race under WithTCP, the pre-fix loser silently overwrote the winner in
// the org table and its listener survived Domain.Close forever. Post-fix
// at most one enrolment wins, and no listener returned by any enrolment
// attempt may outlive Close.
func TestAddOrgRaceLeaksNoTCPListener(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		addrs []string
	)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			org, err := domain.AddOrg("urn:org:raced")
			if err != nil {
				return
			}
			mu.Lock()
			addrs = append(addrs, org.Addr())
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(addrs) != 1 {
		t.Fatalf("%d enrolments won the race, want exactly 1", len(addrs))
	}
	if err := domain.Close(); err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond); err == nil {
			_ = conn.Close()
			t.Fatalf("listener at %s survived the enrolment race and Domain.Close", addr)
		}
	}
}

// TestDomainCloseStopsTCPListeners is the regression test for leaked TCP
// listeners: after Domain.Close, no organisation's coordinator address
// may accept connections.
func TestDomainCloseStopsTCPListeners(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 3; i++ {
		org, err := domain.AddOrg(nonrep.Party(fmt.Sprintf("urn:org:tcp-close-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, org.Addr())
	}
	for _, addr := range addrs {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatalf("pre-close dial %s: %v", addr, err)
		}
		_ = conn.Close()
	}
	if err := domain.Close(); err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond); err == nil {
			_ = conn.Close()
			t.Fatalf("listener at %s survived Domain.Close", addr)
		}
	}
}

// TestReenrolledWorkerKeepsEarlierEvidence enrols a worker party,
// completes a call, lets the worker go and enrols the same party again
// with fresh keys. The second incarnation signs under a key id of its own,
// so the first incarnation's tokens still verify and its run still judges
// complete — a re-enrolment that rebound the first key id would leave
// that evidence unverifiable.
func TestReenrolledWorkerKeepsEarlierEvidence(t *testing.T) {
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
	client, err := domain.AddOrg("urn:org:reenrol-client", nonrep.WithVault(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	const worker = nonrep.Party("urn:org:reenrol-worker")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	call := func() *nonrep.Result {
		t.Helper()
		org, err := domain.AddWorkerOrg(host, worker)
		if err != nil {
			t.Fatal(err)
		}
		srv := org.ServeExecutor(nonrep.ExecutorFunc(func(context.Context, *evidence.RequestSnapshot) ([]nonrep.Param, error) {
			return nil, nil
		}))
		res, err := client.Invoke(ctx, worker, nonrep.Request{Service: "urn:org:reenrol-worker/svc", Operation: "Do"})
		if err != nil || res.Status != nonrep.StatusOK {
			t.Fatalf("call: %v (%+v)", err, res)
		}
		if err := srv.WaitReceipt(ctx, res.Run); err != nil {
			t.Fatal(err)
		}
		if err := org.Close(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := call(), call()

	verifier := &evidence.Verifier{Keys: domain.Credentials()}
	signers := map[string]bool{}
	for _, res := range []*nonrep.Result{first, second} {
		for _, tok := range res.Evidence {
			if err := verifier.Verify(tok); err != nil {
				t.Fatalf("run %s: %s token under %s: %v", res.Run, tok.Kind, tok.Signature.KeyID, err)
			}
			if tok.Kind == evidence.KindNRR {
				signers[tok.Signature.KeyID] = true
			}
		}
	}
	if len(signers) != 2 {
		t.Fatalf("the two incarnations signed under key ids %v, want two", signers)
	}
	report, err := domain.Adjudicator().AuditRunStream(client.Vault().Query(nonrep.VaultQuery{Run: first.Run}), first.Run)
	if err != nil || !report.Complete() || len(report.Faults) != 0 {
		t.Fatalf("first incarnation's run judged %+v (%v)", report, err)
	}
}
