package durable_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"nonrep/internal/core"
	"nonrep/internal/durable"
	"nonrep/internal/evidence"
	"nonrep/internal/invoke"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// crashCase names one injection point in the journal-write/exchange
// sequence where the client process is killed.
type crashCase struct {
	name  string
	layer string // "runtime" (job journal) or "invoke" (evidence journal)
	point string
	// journaled reports whether the job record exists when the crash
	// hits, i.e. whether recovery must find it.
	journaled bool
}

// crashMatrix covers a kill between every pair of adjacent journal writes
// of a durable invocation.
var crashMatrix = []crashCase{
	{"before-job-journal", "runtime", "pre-enqueue-append", false},
	{"after-job-journal", "runtime", "post-enqueue-append", true},
	{"before-nro-append", "invoke", "pre-nro-append", true},
	{"after-nro-append", "invoke", "post-nro-append", true},
	{"after-reply-verified", "invoke", "post-reply-verify", true},
	{"between-reply-appends", "invoke", "mid-reply-append", true},
	{"before-receipt", "invoke", "pre-receipt", true},
	{"before-done-journal", "runtime", "pre-done-append", true},
}

var errSimulatedCrash = errors.New("simulated process crash")

// runCrashCase kills a client "process" (node + vault + runtime) at the
// case's injection point, restarts it over the same vault directory, and
// asserts the recovered job completes exactly-once by evidence.
func runCrashCase(t *testing.T, f *fixture, sn *core.Node, calls *atomic.Int64, vdir, tag string, tc crashCase) {
	t.Helper()
	ctx := context.Background()
	callsBefore := calls.Load()

	// ---- Phase 1: the process that will crash. ----
	v1, err := vault.Open(vdir, f.clk)
	if err != nil {
		t.Fatal(err)
	}
	cn1 := f.node(client, "cli-"+tag+"-1", v1)
	cli1 := invoke.NewClient(cn1.Coordinator())
	j1 := durable.NewJournal(client, cn1.Services().Issuer, v1, f.clk)
	rt1 := durable.NewSized(cli1, j1, durable.Config{
		Retry: durable.RetryPolicy{MaxAttempts: 5, Backoff: time.Minute, NoJitter: true},
		Clock: f.clk,
	}, 1, durable.QueueCap)
	var crashed atomic.Bool
	hook := func(point string) error {
		if point == tc.point && crashed.CompareAndSwap(false, true) {
			return errSimulatedCrash
		}
		return nil
	}
	if tc.layer == "runtime" {
		rt1.SetCrashHook(hook)
	} else {
		cli1.SetCrashHook(hook)
	}

	jb, submitErr := rt1.Submit(ctx, server, orderRequest())
	switch tc.point {
	case "pre-enqueue-append", "post-enqueue-append":
		// The crash hits inside Submit itself.
		if !errors.Is(submitErr, errSimulatedCrash) {
			t.Fatalf("Submit err = %v, want the simulated crash", submitErr)
		}
	default:
		if submitErr != nil {
			t.Fatal(submitErr)
		}
		// Wait until the injection point fired; the job is then either
		// parked on a retry timer that never fires (the manual clock is
		// not advanced) or abandoned — both are the dead process's state.
		waitFor(t, func() bool { return crashed.Load() })
	}
	if !crashed.Load() {
		t.Fatal("crash hook never fired")
	}
	// Kill the process: workers stop, the vault closes, the address goes
	// away. Journaled state is all that survives.
	if err := rt1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cn1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v1.Close(); err != nil {
		t.Fatal(err)
	}

	// ---- Phase 2: the restarted process recovers from the journal. ----
	v2, err := vault.Open(vdir, f.clk)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	cn2 := f.node(client, "cli-"+tag+"-2", v2)
	defer cn2.Close()
	cli2 := invoke.NewClient(cn2.Coordinator())
	j2 := durable.NewJournal(client, cn2.Services().Issuer, v2, f.clk)
	rt2 := durable.NewSized(cli2, j2, durable.Config{
		Retry: durable.RetryPolicy{MaxAttempts: 5, Backoff: time.Minute, NoJitter: true},
		Clock: f.clk,
	}, 1, durable.QueueCap)
	defer rt2.Close()

	recovered, err := rt2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !tc.journaled {
		if len(recovered) != 0 {
			t.Fatalf("recovered %d jobs, want 0: the crash preceded the journal write", len(recovered))
		}
		if calls.Load() != callsBefore {
			t.Fatalf("executor ran for a job that was never journaled")
		}
		return
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(recovered))
	}
	rjb := recovered[0]
	if jb != nil && rjb.ID() != jb.ID() {
		t.Fatalf("recovered job %s, submitted %s", rjb.ID(), jb.ID())
	}
	res, err := rjb.Wait(ctx)
	if err != nil {
		t.Fatalf("recovered job: %v", err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v (%s)", res.Status, res.Err)
	}
	// Outcome records ride group commits; barrier before auditing the
	// journal of the still-running runtime.
	if err := rt2.Sync(); err != nil {
		t.Fatal(err)
	}
	run := rjb.ID()

	// Exactly-once execution: however late the crash hit, the server's
	// at-most-once layer kept the business operation to a single run.
	if got := calls.Load() - callsBefore; got != 1 {
		t.Fatalf("executor ran %d times, want exactly 1", got)
	}

	// Exactly-once by evidence: one token of each kind for the run, in
	// both vaults, on intact chains.
	records, err := v2.QueryAll(vault.Query{Run: run})
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[evidence.Kind]int)
	for _, r := range records {
		kinds[r.Token.Kind]++
	}
	for _, k := range []evidence.Kind{evidence.KindNRO, evidence.KindNRR, evidence.KindNROResp, evidence.KindNRRResp} {
		if kinds[k] != 1 {
			t.Fatalf("client vault holds %d %s tokens for run %s, want exactly 1 (kinds: %v)", kinds[k], k, run, kinds)
		}
	}
	if kinds[evidence.KindJobEnqueued] != 1 || kinds[evidence.KindJobDone] != 1 {
		t.Fatalf("job journal for run %s: %v, want one enqueued and one done", run, kinds)
	}
	srvKinds := make(map[evidence.Kind]int)
	for _, r := range testpki.Query(t, sn.Log(), store.Query{Run: run}) {
		srvKinds[r.Token.Kind]++
	}
	for _, k := range []evidence.Kind{evidence.KindNRO, evidence.KindNRR, evidence.KindNROResp} {
		if srvKinds[k] != 1 {
			t.Fatalf("server log holds %d %s tokens for run %s", srvKinds[k], k, run)
		}
	}
	if err := v2.DeepVerify(); err != nil {
		t.Fatalf("client vault after recovery: %v", err)
	}

	// Clean adjudication: the full client log audits clean, and the run's
	// evidence proves the complete exchange.
	adj := core.NewAdjudicator(f.realm.Store)
	all, err := v2.QueryAll(vault.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if report := adj.AuditStream(core.Records(all)); !report.Clean() {
		t.Fatalf("client log audit: chain=%v %q faults=%v", report.ChainOK, report.ChainError, report.Faults)
	}
	if report, _ := adj.AuditRunStream(core.Records(all), run); !report.Complete() || len(report.Faults) != 0 {
		t.Fatalf("run audit incomplete: %+v", report)
	}
}

// TestCrashRecoveryExactlyOnce kills the client process at every point
// between adjacent journal writes and asserts recovery resumes the job to
// exactly one NRO/NRR pair.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	t.Parallel()
	for _, tc := range crashMatrix {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			f := newFixture(t, client, server)
			sn := f.node(server, "srv", nil)
			defer sn.Close()
			exec, calls := echoExec()
			srv := invoke.NewServer(sn.Coordinator(), exec)
			defer srv.Close()
			runCrashCase(t, f, sn, calls, t.TempDir(), tc.name, tc)
		})
	}
}

// TestChaosCrashRecovery runs randomized crash/recover cycles for a
// bounded wall-clock budget (NONREP_CHAOS_SECONDS, default 1). The server
// — and its at-most-once state — survives across cycles, as a live
// counterparty would.
func TestChaosCrashRecovery(t *testing.T) {
	seconds := 1
	if s := os.Getenv("NONREP_CHAOS_SECONDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("NONREP_CHAOS_SECONDS = %q: %v", s, err)
		}
		seconds = n
	}
	if seconds <= 0 {
		t.Skip("chaos disabled")
	}
	f := newFixture(t, client, server)
	sn := f.node(server, "srv", nil)
	defer sn.Close()
	exec, calls := echoExec()
	srv := invoke.NewServer(sn.Coordinator(), exec)
	defer srv.Close()

	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("chaos seed %d, budget %ds", seed, seconds)
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	cycle := 0
	for time.Now().Before(deadline) {
		tc := crashMatrix[rng.Intn(len(crashMatrix))]
		tag := fmt.Sprintf("chaos-%d", cycle)
		t.Logf("cycle %d: %s", cycle, tc.name)
		runCrashCase(t, f, sn, calls, t.TempDir(), tag, tc)
		cycle++
	}
	if cycle == 0 {
		t.Fatal("no chaos cycles completed within the budget")
	}
}
