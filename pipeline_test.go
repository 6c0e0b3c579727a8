// End-to-end tests of the batched hot-path interaction pipeline:
// aggregate signing, envelope coalescing and the verification fast path,
// exercised through the public API under concurrency, faults and audit.
package nonrep_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"nonrep"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
)

// TestPipelineEndToEnd drives concurrent invocations through a pipelined
// domain with vault-backed evidence logs, then checks the acceptance
// properties of batching: every token individually verifiable, complete
// per-run evidence in both vaults, and a clean deep audit (what
// nrverify -deep runs against stored evidence).
func TestPipelineEndToEnd(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithPipelining())
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()

	client, err := domain.AddOrg("urn:org:client", nonrep.WithVault(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	server, err := domain.AddOrg("urn:org:server", nonrep.WithVault(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	exec := nonrep.ExecutorFunc(func(_ context.Context, req *evidence.RequestSnapshot) ([]nonrep.Param, error) {
		p, err := nonrep.ValueParam("echo", req.Operation)
		return []nonrep.Param{p}, err
	})
	srv := server.ServeExecutor(exec)

	const runs = 24
	results := make([]*nonrep.Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := nonrep.ValueParam("order", fmt.Sprintf("item-%d", i))
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = client.Invoke(context.Background(), server.Party(), nonrep.Request{
				Service:   "urn:org:server/orders",
				Operation: "Place",
				Params:    []nonrep.Param{p},
			})
		}(i)
	}
	wg.Wait()

	verifier := &evidence.Verifier{Keys: domain.Credentials()}
	batched := false
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		res := results[i]
		if res.Status != nonrep.StatusOK {
			t.Fatalf("run %d status %v", i, res.Status)
		}
		if len(res.Evidence) != 4 {
			t.Fatalf("run %d evidence = %d tokens, want 4", i, len(res.Evidence))
		}
		// Every token — batch-signed or not — must verify individually.
		for _, tok := range res.Evidence {
			if err := verifier.Verify(tok); err != nil {
				t.Fatalf("run %d %s token: %v", i, tok.Kind, err)
			}
			if len(tok.Signature.BatchPath) > 0 {
				batched = true
			}
		}
		// Receipts are delivered asynchronously; wait before auditing.
		if err := srv.WaitReceipt(context.Background(), res.Run); err != nil {
			t.Fatalf("run %d receipt: %v", i, err)
		}
	}
	if !batched {
		t.Fatal("24 concurrent invocations produced no aggregate signatures")
	}

	// Both vaults hold complete per-run evidence, exactly once.
	for i, res := range results {
		serverRecs := testpki.Query(t, server.Vault(), store.Query{Run: res.Run})
		if len(serverRecs) != 4 {
			t.Fatalf("run %d: server vault has %d records, want 4 (NRO, NRR, NROResp, NRRResp)", i, len(serverRecs))
		}
		clientRecs := testpki.Query(t, client.Vault(), store.Query{Run: res.Run})
		if len(clientRecs) != 4 {
			t.Fatalf("run %d: client vault has %d records, want 4", i, len(clientRecs))
		}
	}

	// The deep audit nrverify -deep performs must pass over batch-signed
	// evidence: chained records, sealed segments, every signature checked.
	for name, org := range map[string]*nonrep.Org{"client": client, "server": server} {
		if err := org.Vault().DeepVerify(); err != nil {
			t.Fatalf("%s vault deep verify: %v", name, err)
		}
		report := domain.Adjudicator().AuditStream(org.Vault().Query(nonrep.VaultQuery{}))
		if !report.Clean() {
			t.Fatalf("%s audit not clean: chain=%q faults=%v", name, report.ChainError, report.Faults)
		}
	}
}

// TestPipelineOverTCP checks that batch envelopes survive wire framing:
// a pipelined domain on the TCP transport must complete concurrent
// invocations with individually verifiable evidence.
func TestPipelineOverTCP(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithTCP(), nonrep.WithPipelining())
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	client, err := domain.AddOrg("urn:org:client")
	if err != nil {
		t.Fatal(err)
	}
	server, err := domain.AddOrg("urn:org:server")
	if err != nil {
		t.Fatal(err)
	}
	exec := nonrep.ExecutorFunc(func(context.Context, *evidence.RequestSnapshot) ([]nonrep.Param, error) {
		return nil, nil
	})
	srv := server.ServeExecutor(exec)
	defer srv.Close()

	const runs = 12
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := client.Invoke(context.Background(), server.Party(), nonrep.Request{
				Service: "urn:org:server/svc", Operation: "Do",
			})
			if err == nil && len(res.Evidence) != 4 {
				err = fmt.Errorf("evidence = %d tokens, want 4", len(res.Evidence))
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d over TCP: %v", i, err)
		}
	}
}

// TestPipelineUnderFaults runs the coalescing pipeline over a lossy,
// duplicating network: every invocation must still complete, and the
// per-run evidence in the server's log must appear exactly once — a
// dropped or duplicated batch retransmits and de-duplicates exactly like
// single envelopes.
func TestPipelineUnderFaults(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomainWith([]id.Party{iClient, iServer},
		testpki.WithFaults(transport.FaultPlan{Seed: 23, DropRate: 0.15, DupRate: 0.1, MaxDrops: 40}),
		testpki.WithPipeline())
	defer d.Close()
	srv := invoke.NewServer(d.Node(iServer).Coordinator(), echoExec())
	defer srv.Close()
	cli := invoke.NewClient(d.Node(iClient).Coordinator())

	const runs = 16
	results := make([]*invoke.Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cli.Invoke(context.Background(), iServer, invoke.Request{
				Service: "urn:org:server/svc", Operation: "Do",
			})
		}(i)
	}
	wg.Wait()

	log := d.Node(iServer).Log()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d failed despite retransmission: %v", i, errs[i])
		}
		if err := srv.WaitReceipt(context.Background(), results[i].Run); err != nil {
			t.Fatalf("run %d receipt: %v", i, err)
		}
		// Exactly one record per protocol step: no double-append of
		// received evidence from replayed or duplicated batches.
		recs := testpki.Query(t, log, store.Query{Run: results[i].Run})
		if len(recs) != 4 {
			t.Fatalf("run %d: server log has %d records, want exactly 4", i, len(recs))
		}
		kinds := make(map[evidence.Kind]int)
		for _, rec := range recs {
			kinds[rec.Token.Kind]++
		}
		for kind, n := range kinds {
			if n != 1 {
				t.Fatalf("run %d: %s appended %d times", i, kind, n)
			}
		}
	}
}
