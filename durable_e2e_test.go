// Root end-to-end acceptance for durable invocations over outbound
// worker links: CallAsync journals the job in the calling organisation's
// vault, the serving organisation is killed mid-execution behind the
// worker gateway, and after it re-enrols the job resumes under its
// original run — adjudication over the client's vault finds exactly one
// NRO/NRR pair.
package nonrep_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonrep"
	"nonrep/internal/evidence"
	"nonrep/internal/vault"
)

const (
	durPayer  = nonrep.Party("urn:org:dur-payer")
	durBiller = nonrep.Party("urn:org:dur-biller")
	billerSvc = nonrep.Service("urn:org:dur-biller/billing")
)

// settleExec returns an executor that records each call and echoes the
// operation.
func settleExec() (nonrep.Executor, *atomic.Int64) {
	var calls atomic.Int64
	exec := nonrep.ExecutorFunc(func(_ context.Context, req *evidence.RequestSnapshot) ([]evidence.Param, error) {
		calls.Add(1)
		p, err := evidence.ValueParam("settled", req.Operation)
		return []evidence.Param{p}, err
	})
	return exec, &calls
}

func TestDurableCallAsyncWorkerCrashResume(t *testing.T) {
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

	client, err := domain.AddOrg(durPayer,
		nonrep.WithVault(t.TempDir()),
		nonrep.WithDurableRetry(nonrep.JobRetryPolicy{
			MaxAttempts:    20,
			Backoff:        25 * time.Millisecond,
			MaxBackoff:     200 * time.Millisecond,
			AttemptTimeout: 2 * time.Second,
			NoJitter:       true,
		}))
	if err != nil {
		t.Fatal(err)
	}

	// First worker instance: enters the executor and then hangs until its
	// link is torn down — the mid-execution crash. It never produces a
	// response, so no evidence of this attempt leaves the doomed process.
	entered := make(chan struct{})
	var enterOnce sync.Once
	worker1, err := domain.AddWorkerOrg(host, durBiller)
	if err != nil {
		t.Fatal(err)
	}
	worker1.ServeExecutor(nonrep.ExecutorFunc(func(ctx context.Context, _ *evidence.RequestSnapshot) ([]evidence.Param, error) {
		enterOnce.Do(func() { close(entered) })
		<-ctx.Done()
		return nil, ctx.Err()
	}))

	proxy := client.Proxy(durBiller, billerSvc, nil)
	job, err := proxy.CallAsync(context.Background(), "Settle", "invoice-7")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never entered the executor")
	}
	// Kill the worker mid-execution. Its link releases the lease and the
	// gateway re-queues the dispatched request for the next incarnation.
	if err := worker1.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted worker re-enrols behind the same gateway — a fresh
	// process with fresh credentials and empty state; only the client's
	// journal carries the run across.
	worker2, err := domain.AddWorkerOrg(host, durBiller)
	if err != nil {
		t.Fatalf("re-enrol after crash: %v", err)
	}
	exec, calls := settleExec()
	worker2.ServeExecutor(exec)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("job did not resume after worker restart: %v", err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v (%s)", res.Status, res.Err)
	}
	if n := calls.Load(); n < 1 {
		t.Fatalf("restarted worker executed %d times", n)
	}
	run := res.Run
	// Outcome records ride group commits; barrier before auditing the
	// journal of the still-running runtime.
	if err := client.Durable().Sync(); err != nil {
		t.Fatal(err)
	}

	// Exactly-once by evidence: however the crash and retries interleaved,
	// the client's vault holds one token of each kind for the run, plus its
	// job journal bracket.
	v := client.Vault()
	records, err := v.QueryAll(vault.Query{Run: run})
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[evidence.Kind]int)
	for _, r := range records {
		kinds[r.Token.Kind]++
	}
	for _, k := range []evidence.Kind{evidence.KindNRO, evidence.KindNRR, evidence.KindNROResp, evidence.KindNRRResp} {
		if kinds[k] != 1 {
			t.Fatalf("client vault holds %d %s tokens for run %s (kinds: %v)", kinds[k], k, run, kinds)
		}
	}
	if kinds[evidence.KindJobEnqueued] != 1 || kinds[evidence.KindJobDone] != 1 {
		t.Fatalf("job journal bracket for run %s: %v", run, kinds)
	}
	if err := v.DeepVerify(); err != nil {
		t.Fatalf("client vault after crash-resume: %v", err)
	}

	// Adjudication from the client's vault alone proves the complete
	// exchange, with no duplicate-evidence faults from the crashed attempt.
	adj := domain.Adjudicator()
	all, err := v.QueryAll(vault.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if report := adj.AuditStream(nonrep.Records(all)); !report.Clean() {
		t.Fatalf("client log audit: %+v", report)
	}
	if report, _ := adj.AuditRunStream(nonrep.Records(all), run); !report.Complete() || len(report.Faults) != 0 {
		t.Fatalf("run audit: %+v", report)
	}

	// The job handle and introspection surfaces agree on the outcome.
	if got := job.(*nonrep.Job); got.State() != nonrep.JobSucceeded {
		t.Fatalf("job state = %v", got.State())
	}
	infos := client.Jobs()
	if len(infos) != 1 || infos[0].Job != run || infos[0].State != nonrep.JobSucceeded {
		t.Fatalf("Org.Jobs() = %+v", infos)
	}
	if all := domain.Jobs(); len(all[durPayer]) != 1 {
		t.Fatalf("Domain.Jobs() = %+v", all)
	}
}

// TestDurableCallAsyncHappyPath exercises the durable path without
// faults: CallAsync through the worker gateway completes, and recovery on
// a fresh process over the same vault finds nothing pending.
func TestDurableCallAsyncHappyPath(t *testing.T) {
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
	vaultDir := t.TempDir()
	client, err := domain.AddOrg("urn:org:dur-hp-payer",
		nonrep.WithVault(vaultDir), nonrep.WithDurable())
	if err != nil {
		t.Fatal(err)
	}
	worker, err := domain.AddWorkerOrg(host, "urn:org:dur-hp-biller")
	if err != nil {
		t.Fatal(err)
	}
	exec, calls := settleExec()
	worker.ServeExecutor(exec)

	proxy := client.Proxy("urn:org:dur-hp-biller", "urn:org:dur-hp-biller/billing", nil)
	job, err := proxy.CallAsync(context.Background(), "Settle", "invoice-1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v (%s)", res.Status, res.Err)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times", calls.Load())
	}
	if err := client.Vault().DeepVerify(); err != nil {
		t.Fatal(err)
	}

	// Restart the client organisation over the same vault: the finished
	// job must not resurface.
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := domain.AddOrg("urn:org:dur-hp-payer",
		nonrep.WithVault(vaultDir), nonrep.WithDurable())
	if err != nil {
		t.Fatal(err)
	}
	if jobs := reopened.Jobs(); len(jobs) != 0 {
		t.Fatalf("recovered %d jobs after a clean completion: %+v", len(jobs), jobs)
	}
}

// blobEcho is the benchmark's echo component: it returns the bytes it was
// given.
type blobEcho struct{}

func (blobEcho) Echo(_ context.Context, b []byte) ([]byte, error) { return b, nil }

// TestDurableCallEvidenceBytes bounds what one durable call of the
// benchmark's evidence_plane shape — a 64-byte value echoed — costs the
// calling organisation's vault: the job's enqueued and done records and
// the run's four tokens, the spec and the journaled response snapshot
// stored as structured notes, plus the call's share of seals and indexes.
// Notes stored as text (segment format 4) cost about 2 080 bytes here,
// and one pinned hash per record in the index about 1 550; one per
// window of four records brought it to about 1 410. Since segment format
// 7 the run's later commits lean on its request origin, which leads the
// run though the job's journal record comes first: about 1 285; since
// index format 4 stores one offset per window, not per record, about
// 1 270; since segment format 8 the opening frames take their parties
// from the vault's earlier runs, about 1 210; since segment format 9 the
// tokens take their signer and parties from the frames they lean on and
// write their generated nonce and Ed25519 signature without a header,
// about 1 154; since the server signs its receipt and response origin
// under one signature, which the response origin borrows, about 1 127;
// since segment format 10 the job's records and the journaled response
// origin rebuild their digests from their notes, about 1 034; since the
// job's journal record rides its request origin's commit, behind it, and
// borrows its run, parties, time and digest, about 994.
func TestDurableCallEvidenceBytes(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	const clientParty, serverParty = nonrep.Party("urn:bench:client"), nonrep.Party("urn:bench:server")
	const svc = nonrep.Service("urn:bench:server/echo")
	dir := t.TempDir()
	client, err := domain.AddOrg(clientParty, nonrep.WithVault(dir), nonrep.WithDurable())
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
	rng := rand.New(rand.NewSource(1))
	call := func() {
		t.Helper()
		var blob [64]byte
		rng.Read(blob[:])
		param, err := evidence.ValueParam("arg0", blob[:])
		if err != nil {
			t.Fatal(err)
		}
		job, err := proxy.CallAsync(ctx, "Echo", param)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := job.Wait(ctx); err != nil || res.Status != evidence.StatusOK {
			t.Fatalf("durable call: %v (%+v)", err, res)
		}
	}
	// settled seals what the calls left, as the benchmark does, and sums
	// the vault directory.
	settled := func() int64 {
		t.Helper()
		if err := client.Durable().Sync(); err != nil {
			t.Fatal(err)
		}
		if err := client.Vault().SealNow(); err != nil {
			t.Fatal(err)
		}
		var n int64
		err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
			if err == nil && fi.Mode().IsRegular() && fi.Name() != "LOCK" {
				n += fi.Size()
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	call()
	before := settled()
	const calls = 20
	for i := 0; i < calls; i++ {
		call()
	}
	perCall := float64(settled()-before) / calls
	t.Logf("one durable call costs its client vault %.1f B", perCall)
	if perCall > 1005 {
		t.Fatalf("one durable call costs its client vault %.1f B, want at most 1 005", perCall)
	}
}
