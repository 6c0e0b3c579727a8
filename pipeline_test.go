// End-to-end tests of the hot-path interaction pipeline — evidence signed
// one protocol step per signature and the verification fast path, both
// always on — exercised through the public API under concurrency, faults
// and audit.
package nonrep_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nonrep"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/obs"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
)

// TestPipelineEndToEnd drives concurrent invocations through a domain
// with vault-backed evidence logs, then checks the acceptance properties
// of step signing: every token individually verifiable, complete
// per-run evidence in both vaults, and a clean deep audit (what
// nrverify -deep runs against stored evidence).
func TestPipelineEndToEnd(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
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
		t.Fatal("24 concurrent invocations produced no step signed as a batch")
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

// TestPipelineOverTCP checks that concurrent exchanges share the
// multiplexed connections: a domain on the TCP transport must complete
// concurrent invocations with a run's full evidence each.
func TestPipelineOverTCP(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithTCP())
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

// TestPipelineUnderFaults runs concurrent invocations over a lossy,
// duplicating network: every invocation must still complete, and the
// per-run evidence in the server's log must appear exactly once — a
// dropped or duplicated envelope retransmits and de-duplicates.
func TestPipelineUnderFaults(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomainWith([]id.Party{iClient, iServer},
		testpki.WithFaults(transport.FaultPlan{Seed: 23, DropRate: 0.15, DupRate: 0.1, MaxDrops: 40}))
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
		// received evidence from replayed or duplicated envelopes.
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

// TestPipelinedCallEvidenceBytes bounds what one call costs the two
// vaults together when its exchanges ride the persistent multiplexed TCP
// connection that concurrent runs share with each other: a 64-byte value
// echoed, the four tokens of the run in each vault, plus the call's share
// of seals and indexes. The transport carries the messages and stores
// nothing, so the call costs no more than TestDirectCallEvidenceBytes'
// on the in-memory network; TestPipelinedEvidenceDoesNotGrowWithLoad
// holds the same bound under concurrent callers.
func TestPipelinedCallEvidenceBytes(t *testing.T) {
	t.Parallel()
	if perCall, _, _ := callEvidenceBytes(t, 1, 20, nonrep.WithTCP()); perCall > 1150 {
		t.Fatalf("one call over the multiplexed connection costs the two vaults %.1f B, want at most 1 150", perCall)
	}
}

// TestPipelinedEvidenceDoesNotGrowWithLoad makes the calls of
// TestDirectCallEvidenceBytes from 32 concurrent callers: one call
// still costs the two vaults no more than a sequential one, because every
// signature covers one protocol step — the client's request origin, the
// server's receipt and response origin, the client's response receipt —
// and never tokens of concurrent runs. So no stored token's inclusion
// path holds more than its step-mate's digest, and the two organisations
// issue exactly four tokens under three signatures per call. Signing
// concurrent runs' tokens under one Merkle root cost about 1 845 B a call
// here, each token storing a path that grew with the signer's load.
func TestPipelinedEvidenceDoesNotGrowWithLoad(t *testing.T) {
	t.Parallel()
	perCall, domain, orgs := callEvidenceBytes(t, 32, 50, nonrep.WithTelemetry())
	if perCall > 1150 {
		t.Fatalf("one call of 32 concurrent callers costs the two vaults %.1f B, want at most 1 150", perCall)
	}
	var tokens, signatures int64
	snap := domain.Telemetry().Registry().Snapshot()
	for _, org := range orgs {
		tokens += snap.Counter(obs.MTokensIssuedTotal, string(org.Party()))
		signatures += snap.Counter(obs.MSignaturesTotal, string(org.Party()))
		recs := org.Vault().Query(nonrep.VaultQuery{})
		n := 0
		for recs.Next() {
			if path := recs.Record().Token.Signature.BatchPath; len(path) > 1 {
				t.Fatalf("%s's vault: a %s token stores an inclusion path of %d", org.Party(), recs.Record().Token.Kind, len(path))
			}
			n++
		}
		if err := recs.Err(); err != nil || n != 4*(1+32*50) {
			t.Fatalf("%s's vault: %d records read (%v), want %d", org.Party(), n, err, 4*(1+32*50))
		}
	}
	if signatures == 0 || 3*tokens != 4*signatures {
		t.Fatalf("%d tokens issued under %d signatures, want four under three per call", tokens, signatures)
	}
}

// TestDirectCallEvidenceBytes bounds what one call costs the two vaults
// together: a 64-byte value echoed, the four tokens of the run in each
// vault, plus the call's share of seals and indexes. The run's records
// lie in two commits in each vault — the client's {NRO} then {NRR,
// NROResp, NRRResp}, the server's {NRO, NRR, NROResp} then {NRRResp}.
// Every commit led with a plain frame before segment format 7, about
// 1 585 B here; since, the second commit leans on the run's leader in the
// first, about 1 440 B (about 1 430 since index format 4, about 1 335
// since segment format 8, about 1 244 since segment format 9). Since the
// server signs its receipt and response origin under one signature on
// every domain, the response origin borrows the receipt's signature in
// both vaults: about 1 190 B. Since segment format 10 the client's
// receipt rebuilds its digest from the response origin in both vaults:
// about 1 133 B. TestPipelinedEvidenceDoesNotGrowWithLoad holds the same
// bound under concurrent callers.
func TestDirectCallEvidenceBytes(t *testing.T) {
	t.Parallel()
	if perCall, _, _ := callEvidenceBytes(t, 1, 20); perCall > 1150 {
		t.Fatalf("one direct call costs the two vaults %.1f B, want at most 1 150", perCall)
	}
}

// TestDirectStepSharesOneSignature checks that on a default domain the
// server signs its receipt and its response origin
// under one signature, that both vaults store that pair side by side —
// the server's {NRO, NRR, NROResp}, the client's {NRR, NROResp, NRRResp} —
// so that the response origin borrows the receipt's signature in each,
// and that either vault alone still proves a whole run.
func TestDirectStepSharesOneSignature(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	const clientParty, serverParty = nonrep.Party("urn:org:client"), nonrep.Party("urn:org:server")
	const svc = nonrep.Service("urn:org:server/echo")
	client, err := domain.AddOrg(clientParty, nonrep.WithVault(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	server, err := domain.AddOrg(serverParty, nonrep.WithVault(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	desc := nonrep.Descriptor{Service: svc, Methods: map[string]nonrep.MethodPolicy{"Echo": {NonRepudiation: true}}}
	if err := server.Deploy(desc, blobEcho{}); err != nil {
		t.Fatal(err)
	}
	server.Serve()
	proxy := client.Proxy(serverParty, svc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const calls = 12
	runs := make([]id.Run, calls)
	for i := range runs {
		res, err := proxy.Call(ctx, "Echo", []byte(fmt.Sprintf("call %d", i)))
		if err != nil || res.Status != evidence.StatusOK {
			t.Fatalf("call %d: %v (%+v)", i, err, res)
		}
		runs[i] = res.Run
	}
	// Each call returned after the server took its receipt.
	if n := server.Vault().Len(); n != 4*calls {
		t.Fatalf("the server holds %d records after %d calls, want %d", n, calls, 4*calls)
	}
	for _, org := range []*nonrep.Org{client, server} {
		sizes, err := org.Vault().Sizes()
		if err != nil {
			t.Fatal(err)
		}
		var count store.FrameCount
		for _, s := range sizes {
			count.Add(s.FrameCount)
		}
		if count.SigBorrowers != calls {
			t.Fatalf("%s's vault: %d frames borrow a signature after %d calls, want one response origin per call",
				org.Party(), count.SigBorrowers, calls)
		}
		byKind := make(map[evidence.Kind]*evidence.Token)
		recs := org.Vault().Query(nonrep.VaultQuery{Run: runs[0]})
		for recs.Next() {
			byKind[recs.Record().Token.Kind] = recs.Record().Token
		}
		if err := recs.Err(); err != nil {
			t.Fatal(err)
		}
		nrr, nroResp := byKind[evidence.KindNRR], byKind[evidence.KindNROResp]
		if nrr == nil || nroResp == nil || string(nrr.Signature.Bytes) != string(nroResp.Signature.Bytes) ||
			nrr.Signature.BatchIndex != 0 || nroResp.Signature.BatchIndex != 1 {
			t.Fatalf("%s's vault: the receipt and the response origin do not share one signature", org.Party())
		}
		// A fresh adjudicator, no verify cache shared with the parties,
		// judges a sampled run from this vault alone.
		run := runs[calls/2]
		report, err := domain.Adjudicator().AuditRunStream(org.Vault().Query(nonrep.VaultQuery{Run: run}), run)
		if err != nil || !report.Complete() || len(report.Faults) != 0 {
			t.Fatalf("%s's vault alone: run %s judged %+v (%v)", org.Party(), run, report, err)
		}
	}
}

// callEvidenceBytes makes calls on a domain of the given options — a
// 64-byte value echoed — from callers concurrent callers, calls each,
// and returns what one costs the client's and the server's vaults
// together, seals and indexes included, with the domain (closed when the
// test ends) and its two organisations, the client first.
func callEvidenceBytes(t *testing.T, callers, calls int, opts ...nonrep.DomainOption) (float64, *nonrep.Domain, []*nonrep.Org) {
	t.Helper()
	domain, err := nonrep.NewDomain(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = domain.Close() })
	const clientParty, serverParty = nonrep.Party("urn:bench:client"), nonrep.Party("urn:bench:server")
	const svc = nonrep.Service("urn:bench:server/echo")
	dirs := []string{t.TempDir(), t.TempDir()}
	client, err := domain.AddOrg(clientParty, nonrep.WithVault(dirs[0]))
	if err != nil {
		t.Fatal(err)
	}
	server, err := domain.AddOrg(serverParty, nonrep.WithVault(dirs[1]))
	if err != nil {
		t.Fatal(err)
	}
	desc := nonrep.Descriptor{Service: svc, Methods: map[string]nonrep.MethodPolicy{"Echo": {NonRepudiation: true}}}
	if err := server.Deploy(desc, blobEcho{}); err != nil {
		t.Fatal(err)
	}
	server.Serve()
	proxy := client.Proxy(serverParty, svc, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Each caller draws its values from its own source; the first call
	// and the first caller's share one.
	rngs := make([]*rand.Rand, callers)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i + 1)))
	}
	call := func(rng *rand.Rand) error {
		var blob [64]byte
		rng.Read(blob[:])
		res, err := proxy.Call(ctx, "Echo", blob[:])
		if err == nil && res.Status != evidence.StatusOK {
			err = fmt.Errorf("status %v", res.Status)
		}
		return err
	}
	// settled seals what made calls left in both vaults and sums their
	// directories. It first waits for the server to hold every run's four
	// records — which it does once the calls returned, each receipt being
	// acknowledged — as a receipt committed after the seal would open the
	// next segment as a plain frame and make the count depend on timing.
	settled := func(made int) int64 {
		t.Helper()
		for server.Vault().Len() < 4*made {
			if ctx.Err() != nil {
				t.Fatalf("the server holds %d records after %d calls", server.Vault().Len(), made)
			}
			time.Sleep(time.Millisecond)
		}
		var n int64
		for i, org := range []*nonrep.Org{client, server} {
			if err := org.Vault().SealNow(); err != nil {
				t.Fatal(err)
			}
			err := filepath.Walk(dirs[i], func(_ string, fi os.FileInfo, err error) error {
				if err == nil && fi.Mode().IsRegular() && fi.Name() != "LOCK" {
					n += fi.Size()
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	if err := call(rngs[0]); err != nil {
		t.Fatalf("call: %v", err)
	}
	before := settled(1)
	var wg sync.WaitGroup
	for _, rng := range rngs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if err := call(rng); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	perCall := float64(settled(1+callers*calls)-before) / float64(callers*calls)
	t.Logf("one call of %d concurrent callers costs the two vaults %.1f B", callers, perCall)
	return perCall, domain, []*nonrep.Org{client, server}
}
