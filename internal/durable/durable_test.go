package durable_test

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/clock"
	"nonrep/internal/core"
	"nonrep/internal/durable"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

const (
	client = id.Party("urn:org:payer")
	server = id.Party("urn:org:biller")
	ttp    = id.Party("urn:ttp:notary")
)

// fixture is a minimal trust domain whose nodes the test assembles by
// hand, so a "process" (node + vault + runtime) can be killed and
// restarted over the same journal.
type fixture struct {
	t       *testing.T
	realm   *testpki.Realm
	network *transport.InprocNetwork
	dir     *protocol.Directory
	clk     *clock.Manual
}

func newFixture(t *testing.T, parties ...id.Party) *fixture {
	t.Helper()
	realm := testpki.MustRealm(parties...)
	network := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = network.Close() })
	return &fixture{t: t, realm: realm, network: network, dir: protocol.NewDirectory(), clk: realm.Clock}
}

// node starts a trusted interceptor for p at addr over the given log
// (nil for a temporary vault).
func (f *fixture) node(p id.Party, addr string, log store.Log) *core.Node {
	f.t.Helper()
	retry := testpki.FastRetry
	n, err := core.NewNode(core.NodeConfig{
		Party:     p,
		Signer:    f.realm.Party(p).Signer,
		Creds:     f.realm.Store,
		Clock:     f.clk,
		Network:   f.network,
		Addr:      addr,
		Directory: f.dir,
		Log:       log,
		Retry:     &retry,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	return n
}

// runtime wires a durable runtime over a node with a deterministic retry
// policy paced by the fixture's manual clock.
func (f *fixture) runtime(n *core.Node, policy durable.RetryPolicy) (*durable.Runtime, *durable.Journal) {
	policy.NoJitter = true
	j := durable.NewJournal(n.Party(), n.Services().Issuer, n.Log(), f.clk)
	rt := durable.NewSized(invoke.NewClient(n.Coordinator()), j, durable.Config{Retry: policy, Clock: f.clk}, 1, durable.QueueCap)
	return rt, j
}

func echoExec() (invoke.Executor, *atomic.Int64) {
	var calls atomic.Int64
	exec := invoke.ExecutorFunc(func(_ context.Context, req *evidence.RequestSnapshot) ([]evidence.Param, error) {
		calls.Add(1)
		out, err := evidence.ValueParam("echo", req.Operation)
		if err != nil {
			return nil, err
		}
		return []evidence.Param{out}, nil
	})
	return exec, &calls
}

func orderRequest() invoke.Request {
	spec, err := evidence.ValueParam("spec", map[string]string{"item": "turbine-blade", "qty": "12"})
	if err != nil {
		panic(err)
	}
	return invoke.Request{
		Service:   id.Service("urn:org:biller/orders"),
		Operation: "PlaceOrder",
		Params:    []evidence.Param{spec},
		Txn:       id.NewTxn(),
	}
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

// advanceUntil repeatedly advances the manual clock by step until cond
// holds, releasing retry timers however the runtime interleaves their
// creation with our advances.
func advanceUntil(t *testing.T, clk *clock.Manual, step time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		clk.Advance(step)
		time.Sleep(2 * time.Millisecond)
	}
}

func countKind(t *testing.T, log store.Log, kind evidence.Kind) int {
	t.Helper()
	return len(testpki.Query(t, log, store.Query{Kind: kind}))
}

func terminal(jb *durable.Job) bool {
	s := jb.State()
	return s == durable.StateSucceeded || s == durable.StateFailed
}

func TestSubmitHappyPath(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client, server)
	cn := f.node(client, "cli", nil)
	defer cn.Close()
	sn := f.node(server, "srv", nil)
	defer sn.Close()
	exec, calls := echoExec()
	srv := invoke.NewServer(sn.Coordinator(), exec)
	defer srv.Close()
	rt, j := f.runtime(cn, durable.RetryPolicy{})
	defer rt.Close()

	jb, err := rt.Submit(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	res, err := jb.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v (%s)", res.Status, res.Err)
	}
	if res.Run != jb.ID() {
		t.Fatalf("run %s != job %s: a call job must run under its job identifier", res.Run, jb.ID())
	}
	if jb.State() != durable.StateSucceeded || jb.Attempts() != 1 {
		t.Fatalf("state=%s attempts=%d", jb.State(), jb.Attempts())
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times", calls.Load())
	}

	// job-done rides the next group commit; Sync is its barrier.
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	log := cn.Log()
	if got := countKind(t, log, evidence.KindJobEnqueued); got != 1 {
		t.Fatalf("job-enqueued records = %d", got)
	}
	if got := countKind(t, log, evidence.KindJobDone); got != 1 {
		t.Fatalf("job-done records = %d", got)
	}
	if got := countKind(t, log, evidence.KindJobAttempt); got != 0 {
		t.Fatalf("job-attempt records = %d", got)
	}
	// The run's evidence rides the same chain as the job records.
	if got := len(testpki.Query(t, log, store.Query{Run: jb.ID()})); got != 6 {
		t.Fatalf("run records = %d, want 6 (4 evidence + enqueued + done)", got)
	}
	if err := log.VerifyChain(); err != nil {
		t.Fatal(err)
	}

	// Introspection surfaces.
	if got, ok := rt.Job(jb.ID()); !ok || got != jb {
		t.Fatal("Job() lookup failed")
	}
	infos := rt.Jobs()
	if len(infos) != 1 || infos[0].State != durable.StateSucceeded || infos[0].Type != durable.JobCall {
		t.Fatalf("Jobs() = %+v", infos)
	}

	// Nothing left pending for a future Recover.
	j2 := durable.NewJournal(client, cn.Services().Issuer, log, f.clk)
	specs, _, err := j2.Pending(f.realm.Verifier())
	if err != nil || len(specs) != 0 {
		t.Fatalf("Pending = %d specs, err %v", len(specs), err)
	}
}

func TestRetryAfterTransientFailure(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client, server)
	cn := f.node(client, "cli", nil)
	defer cn.Close()
	sn := f.node(server, "srv", nil)
	defer sn.Close()
	rt, j := f.runtime(cn, durable.RetryPolicy{MaxAttempts: 5, Backoff: 50 * time.Millisecond})
	defer rt.Close()

	// No invoke server yet: the first attempt fails with an unclassified
	// error, which must be treated as temporary.
	jb, err := rt.Submit(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return jb.Attempts() == 1 && countKind(t, cn.Log(), evidence.KindJobAttempt) == 1 })
	if terminal(jb) {
		t.Fatalf("job terminal after first failure: %+v", jb.Info())
	}

	// Bring the service up and release the backoff timer.
	exec, calls := echoExec()
	srv := invoke.NewServer(sn.Coordinator(), exec)
	defer srv.Close()
	advanceUntil(t, f.clk, 100*time.Millisecond, func() bool { return terminal(jb) })

	res, err := jb.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v (%s)", res.Status, res.Err)
	}
	if jb.Attempts() != 2 {
		t.Fatalf("attempts = %d, want 2", jb.Attempts())
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times", calls.Load())
	}
	if err := j.Sync(); err != nil { // job-done rides the next group commit
		t.Fatal(err)
	}
	if got := countKind(t, cn.Log(), evidence.KindJobDone); got != 1 {
		t.Fatalf("job-done records = %d", got)
	}
}

func TestPermanentFailureFailsWithoutRetry(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client, server)
	cn := f.node(client, "cli", nil)
	defer cn.Close()
	rt, j := f.runtime(cn, durable.RetryPolicy{MaxAttempts: 5, Backoff: 50 * time.Millisecond})
	defer rt.Close()

	// A directory entry pointing at an address nothing listens on is a
	// permanent transport failure: no retries, immediate terminal fail.
	ghost := id.Party("urn:org:ghost")
	f.dir.Register(ghost, "nobody-home")
	jb, err := rt.Submit(context.Background(), ghost, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jb.Wait(context.Background()); err == nil {
		t.Fatal("want error")
	}
	if jb.State() != durable.StateFailed || jb.Attempts() != 1 {
		t.Fatalf("state=%s attempts=%d, want failed after one attempt", jb.State(), jb.Attempts())
	}
	if err := j.Sync(); err != nil { // job-done rides the next group commit
		t.Fatal(err)
	}
	if got := countKind(t, cn.Log(), evidence.KindJobDone); got != 1 {
		t.Fatalf("job-done records = %d", got)
	}
	if info := jb.Info(); info.Error == "" {
		t.Fatal("Info must carry the failure")
	}
}

func TestQueueFullRejectsBeforeJournaling(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client, server)
	cn := f.node(client, "cli", nil)
	defer cn.Close()
	sn := f.node(server, "srv", nil)
	defer sn.Close()
	var entered atomic.Int64
	release := make(chan struct{})
	exec := invoke.ExecutorFunc(func(ctx context.Context, _ *evidence.RequestSnapshot) ([]evidence.Param, error) {
		entered.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
		}
		out, err := evidence.ValueParam("echo", "done")
		return []evidence.Param{out}, err
	})
	srv := invoke.NewServer(sn.Coordinator(), exec)
	defer srv.Close()

	j := durable.NewJournal(client, cn.Services().Issuer, cn.Log(), f.clk)
	rt := durable.NewSized(invoke.NewClient(cn.Coordinator()), j, durable.Config{Clock: f.clk}, 1, 1)
	defer rt.Close()

	jb1, err := rt.Submit(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return entered.Load() == 1 }) // worker busy
	jb2, err := rt.Submit(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(context.Background(), server, orderRequest()); !errors.Is(err, durable.ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// The rejected job must not exist in the journal — only the two
	// admitted ones.
	if got := countKind(t, cn.Log(), evidence.KindJobEnqueued); got != 2 {
		t.Fatalf("job-enqueued records = %d, want 2 (rejection must precede the journal write)", got)
	}
	close(release)
	for _, jb := range []*durable.Job{jb1, jb2} {
		if res, err := jb.Wait(context.Background()); err != nil || res.Status != evidence.StatusOK {
			t.Fatalf("job %s: %v %+v", jb.ID(), err, res)
		}
	}
}

// TestQueueFullWaitsForDeadline saturates a width-1 runtime and submits
// with a cancellable context: the submit must wait for a queue slot
// rather than fail, be admitted when the worker drains the queue, and
// only report ErrQueueFull once its context expires first.
func TestQueueFullWaitsForDeadline(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client, server)
	cn := f.node(client, "cli", nil)
	defer cn.Close()
	sn := f.node(server, "srv", nil)
	defer sn.Close()
	var entered atomic.Int64
	release := make(chan struct{})
	exec := invoke.ExecutorFunc(func(ctx context.Context, _ *evidence.RequestSnapshot) ([]evidence.Param, error) {
		entered.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
		}
		out, err := evidence.ValueParam("echo", "done")
		return []evidence.Param{out}, err
	})
	srv := invoke.NewServer(sn.Coordinator(), exec)
	defer srv.Close()

	j := durable.NewJournal(client, cn.Services().Issuer, cn.Log(), f.clk)
	rt := durable.NewSized(invoke.NewClient(cn.Coordinator()), j, durable.Config{Clock: f.clk}, 1, 1)
	defer rt.Close()

	jb1, err := rt.Submit(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return entered.Load() == 1 }) // worker busy
	jb2, err := rt.Submit(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}

	// An expired context surfaces ErrQueueFull (with the cause) instead
	// of blocking.
	expired, cancelExpired := context.WithCancel(context.Background())
	cancelExpired()
	if _, err := rt.Submit(expired, server, orderRequest()); !errors.Is(err, durable.ErrQueueFull) {
		t.Fatalf("expired-context submit = %v, want ErrQueueFull", err)
	}

	// A live context waits: the submit is admitted once the worker frees
	// the queued slot, not rejected.
	type res struct {
		jb  *durable.Job
		err error
	}
	admitted := make(chan res, 1)
	go func() {
		jb, err := rt.Submit(context.Background(), server, orderRequest())
		_ = jb // background-context submits still reject immediately
		admitted <- res{jb, err}
	}()
	if r := <-admitted; !errors.Is(r.err, durable.ErrQueueFull) {
		t.Fatalf("background-context submit = %v, want immediate ErrQueueFull", r.err)
	}
	waiting := make(chan res, 1)
	waitCtx, cancelWait := context.WithCancel(context.Background())
	defer cancelWait()
	go func() {
		jb, err := rt.Submit(waitCtx, server, orderRequest())
		waiting <- res{jb, err}
	}()
	select {
	case r := <-waiting:
		t.Fatalf("submit returned early: %v %v", r.jb, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release) // worker drains; a slot frees
	r := <-waiting
	if r.err != nil {
		t.Fatalf("waiting submit = %v, want admission after drain", r.err)
	}
	for _, jb := range []*durable.Job{jb1, jb2, r.jb} {
		if res, err := jb.Wait(context.Background()); err != nil || res.Status != evidence.StatusOK {
			t.Fatalf("job %s: %v %+v", jb.ID(), err, res)
		}
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client, server)
	cn := f.node(client, "cli", nil)
	defer cn.Close()
	rt, _ := f.runtime(cn, durable.RetryPolicy{})
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := rt.Submit(context.Background(), server, orderRequest()); !errors.Is(err, durable.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestJournalAbortRetriedUntilTTPAnswers(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client, server, ttp)
	cn := f.node(client, "cli", nil)
	defer cn.Close()
	tn := f.node(ttp, "ttp", nil)
	defer tn.Close()
	rt, _ := f.runtime(cn, durable.RetryPolicy{MaxAttempts: 5, Backoff: 50 * time.Millisecond})
	defer rt.Close()

	// A fair-protocol request snapshot and its NRO, as the invoke client
	// would present them when journaling a failed abort.
	req := orderRequest()
	snap := evidence.RequestSnapshot{
		Run:       id.NewRun(),
		Txn:       req.Txn,
		Client:    client,
		Server:    server,
		Service:   req.Service,
		Operation: req.Operation,
		Params:    req.Params,
		Protocol:  invoke.ProtocolFair,
	}
	digest, err := snap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	nro, err := cn.Services().Issuer.Issue(evidence.KindNRO, snap.Run, 1, digest,
		evidence.WithService(req.Service), evidence.WithTxn(req.Txn), evidence.WithRecipients(server))
	if err != nil {
		t.Fatal(err)
	}

	// The TTP is enrolled but not serving resolve traffic yet: the first
	// attempt fails and must be retried, not dropped.
	if err := rt.JournalAbort(context.Background(), ttp, snap, nro); err != nil {
		t.Fatal(err)
	}
	infos := rt.Jobs()
	if len(infos) != 1 || infos[0].Type != durable.JobAbort {
		t.Fatalf("Jobs() = %+v", infos)
	}
	jb, ok := rt.Job(infos[0].Job)
	if !ok {
		t.Fatal("abort job not tracked")
	}
	waitFor(t, func() bool { return jb.Attempts() == 1 && countKind(t, cn.Log(), evidence.KindJobAttempt) == 1 })

	invoke.NewResolveService(tn.Coordinator())
	advanceUntil(t, f.clk, 100*time.Millisecond, func() bool { return terminal(jb) })
	if _, err := jb.Wait(context.Background()); err != nil {
		t.Fatalf("abort job: %v", err)
	}
	if jb.Attempts() != 2 {
		t.Fatalf("attempts = %d, want 2", jb.Attempts())
	}
	// The TTP's abort decision is now evidenced in the client's log.
	if got := countKind(t, cn.Log(), evidence.KindAbort); got == 0 {
		t.Fatal("client log holds no TTP abort affidavit")
	}
	if err := cn.Log().VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalPendingCountsAttempts(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client)
	log := testpki.Log(t, f.clk)
	j := durable.NewJournal(client, f.realm.Party(client).Issuer, log, f.clk)

	s1 := &durable.JobSpec{Job: id.NewRun(), Type: durable.JobCall, Server: server, Operation: "A", Enqueued: f.clk.Now()}
	s2 := &durable.JobSpec{Job: id.NewRun(), Type: durable.JobCall, Server: server, Operation: "B", Enqueued: f.clk.Now()}
	for _, s := range []*durable.JobSpec{s1, s2} {
		if err := j.Enqueue(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Attempt(s1.Job, 1, "boom"); err != nil {
		t.Fatal(err)
	}
	if err := j.Attempt(s1.Job, 2, "boom again"); err != nil {
		t.Fatal(err)
	}
	if err := j.Done(s2.Job, 1, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil { // attempts and job-done ride the next group commit
		t.Fatal(err)
	}
	specs, attempts, err := j.Pending(f.realm.Verifier())
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Job != s1.Job || specs[0].Operation != "A" {
		t.Fatalf("Pending = %+v", specs)
	}
	if attempts[0] != 2 {
		t.Fatalf("attempts = %d, want 2", attempts[0])
	}
}

func TestJournalRejectsTamperedSpec(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client)
	log := testpki.Log(t, f.clk)
	issuer := f.realm.Party(client).Issuer
	j := durable.NewJournal(client, issuer, log, f.clk)

	// A forged entry: the signed token covers a different payload than
	// the spec stored in the note.
	forged := &durable.JobSpec{Job: id.NewRun(), Type: durable.JobCall, Server: server, Operation: "Forged", Enqueued: f.clk.Now()}
	raw, err := canon.Marshal(forged)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := issuer.Issue(evidence.KindJobEnqueued, forged.Job, 0, sig.Sum([]byte("something else entirely")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(store.Generated, tok, string(raw)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Pending(f.realm.Verifier()); err == nil {
		t.Fatal("Pending accepted a spec that does not match its signed digest")
	}
}

// TestJournalRefusesForgedSpecOverStaleSignature: recovery trusts a spec
// under the journal's signature, not under a digest that matches it. A
// job-enqueued record whose note is a forged spec, and whose token says
// the forged spec's digest beside the signature the journal made over the
// genuine one, is refused; the genuine record is recovered.
func TestJournalRefusesForgedSpecOverStaleSignature(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client)
	issuer := f.realm.Party(client).Issuer
	genuine := &durable.JobSpec{Job: id.NewRun(), Type: durable.JobCall, Server: server, Operation: "Genuine", Enqueued: f.clk.Now()}
	raw, err := canon.Marshal(genuine)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := issuer.Issue(evidence.KindJobEnqueued, genuine.Job, 0, sig.Sum(raw))
	if err != nil {
		t.Fatal(err)
	}
	forged := *genuine
	forged.Operation = "Forged"
	forgedRaw, err := canon.Marshal(&forged)
	if err != nil {
		t.Fatal(err)
	}
	stale := *tok
	stale.Digest = sig.Sum(forgedRaw)
	for _, c := range []struct {
		tok  *evidence.Token
		note []byte
		ok   bool
	}{{tok, raw, true}, {&stale, forgedRaw, false}} {
		log := testpki.Log(t, f.clk)
		j := durable.NewJournal(client, issuer, log, f.clk)
		if _, err := log.Append(store.Generated, c.tok, string(c.note)); err != nil {
			t.Fatal(err)
		}
		specs, _, err := j.Pending(f.realm.Verifier())
		if c.ok && (err != nil || len(specs) != 1 || specs[0].Operation != "Genuine") {
			t.Fatalf("the genuine spec: %+v, err %v", specs, err)
		}
		if !c.ok && err == nil {
			t.Fatalf("Pending recovered %+v: a forged spec over a stale signature", specs)
		}
	}
}

// TestJournalRecoversFromStructuredNotes: a vault stores the journal's
// JSON notes as structured trees, and after a restart recovery reads them
// back exactly — Pending still finds each pending spec's note hashing to
// its signed digest, and RunState returns the response snapshot journaled
// beside the NROResp, from sealed segments and the replayed tail alike.
func TestJournalRecoversFromStructuredNotes(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client, server)
	dir := t.TempDir()
	v, err := vault.Open(dir, f.clk, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	issuer := f.realm.Party(client).Issuer
	j := durable.NewJournal(client, issuer, v, f.clk)
	req := orderRequest()
	pending := &durable.JobSpec{Job: id.NewRun(), Type: durable.JobCall, Server: server, Service: req.Service,
		Operation: req.Operation, Params: req.Params, Txn: req.Txn, Enqueued: f.clk.Now()}
	finished := &durable.JobSpec{Job: id.NewRun(), Type: durable.JobCall, Server: server, Operation: "Other", Enqueued: f.clk.Now()}
	for _, s := range []*durable.JobSpec{pending, finished} {
		if err := j.Enqueue(s); err != nil {
			t.Fatal(err)
		}
	}
	// The reply group a resumed call journals: the NRR, then the NROResp
	// with the response snapshot, whose request digest is the NRR's.
	reqDigest := sig.Sum([]byte("request snapshot"))
	result, err := evidence.ValueParam("result0", []byte("twelve turbine blades"))
	if err != nil {
		t.Fatal(err)
	}
	snap := evidence.ResponseSnapshot{Run: pending.Job, Server: server, Status: evidence.StatusOK, Result: []evidence.Param{result}, RequestDigest: reqDigest}
	snapJSON, err := canon.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	serverIssuer := f.realm.Party(server).Issuer
	nrr, err := serverIssuer.Issue(evidence.KindNRR, pending.Job, 2, reqDigest, evidence.WithRecipients(client))
	if err != nil {
		t.Fatal(err)
	}
	nroResp, err := serverIssuer.Issue(evidence.KindNROResp, pending.Job, 3, sig.Sum(snapJSON), evidence.WithRecipients(client))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.AppendGroup([]store.Entry{
		{Dir: store.Received, Token: nrr, Note: "request receipt"},
		{Dir: store.Received, Token: nroResp, Note: string(snapJSON)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Attempt(pending.Job, 1, "connection refused"); err != nil {
		t.Fatal(err)
	}
	if err := j.Done(finished.Job, 1, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := vault.Open(dir, f.clk, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sizes, err := re.Sizes()
	if err != nil {
		t.Fatal(err)
	}
	var frames store.FrameCount
	for _, s := range sizes {
		frames.Add(s.FrameCount)
	}
	for _, kind := range []evidence.Kind{evidence.KindJobEnqueued, evidence.KindNROResp, evidence.KindJobAttempt, evidence.KindJobDone} {
		if c := frames.Kinds[kind]; c == nil || c.NoteBytes[store.NoteStructured] == 0 || c.NoteBytes[store.NoteLiteral] != 0 {
			t.Fatalf("%s notes stored as %+v, want structured only", kind, c)
		}
	}

	j = durable.NewJournal(client, issuer, re, f.clk)
	specs, attempts, err := j.Pending(f.realm.Verifier())
	if err != nil {
		t.Fatal(err)
	}
	want, err := canon.Marshal(pending)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || attempts[0] != 1 {
		t.Fatalf("Pending = %d specs, attempts %v, want the one pending job tried once", len(specs), attempts)
	}
	if got, err := canon.Marshal(specs[0]); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("recovered spec %s, want %s", got, want)
	}
	st, err := j.RunState(pending.Job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Response == nil || st.NRR == nil || st.NROResp == nil {
		t.Fatalf("RunState = %+v, want the reply group and its snapshot", st)
	}
	if got, err := canon.Marshal(st.Response); err != nil || !bytes.Equal(got, snapJSON) || sig.Sum(got) != st.NROResp.Digest {
		t.Fatalf("recovered snapshot %s, want %s", got, snapJSON)
	}
}

// TestSubmitJournalsJobInItsNROCommit: a durable Submit returns after one
// commit of the client's vault, which holds the run's NRO and then its
// job-enqueued record; the job record's note is the request snapshot the
// NRO covers, and the worker sends the request under that NRO rather than
// issuing another.
func TestSubmitJournalsJobInItsNROCommit(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client, server)
	v, err := vault.Open(t.TempDir(), f.clk)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	var mu sync.Mutex
	var commits [][]*store.Record
	defer v.OnCommit(func(recs []*store.Record) {
		mu.Lock()
		commits = append(commits, recs)
		mu.Unlock()
	})()
	cn := f.node(client, "cli", v)
	defer cn.Close()
	sn := f.node(server, "srv", nil)
	defer sn.Close()
	exec, calls := echoExec()
	srv := invoke.NewServer(sn.Coordinator(), exec)
	defer srv.Close()
	rt, j := f.runtime(cn, durable.RetryPolicy{})
	defer rt.Close()
	// The hook fires as Submit's journal commit returns, before the job is
	// queued, so nothing the worker does has committed yet.
	var journaled [][]*store.Record
	rt.SetCrashHook(func(point string) error {
		if point == "post-enqueue-append" {
			mu.Lock()
			journaled = slices.Clone(commits)
			mu.Unlock()
		}
		return nil
	})

	req := orderRequest()
	jb, err := rt.Submit(context.Background(), server, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(journaled) != 1 || len(journaled[0]) != 2 ||
		journaled[0][0].Token.Kind != evidence.KindNRO || journaled[0][1].Token.Kind != evidence.KindJobEnqueued {
		t.Fatalf("Submit committed %v, want one commit of the NRO and then the job record", commitKinds(journaled))
	}
	nro, job := journaled[0][0], journaled[0][1]
	snap := evidence.RequestSnapshot{Run: jb.ID(), Txn: req.Txn, Client: client, Server: server, Service: req.Service,
		Operation: req.Operation, Params: req.Params, Protocol: invoke.ProtocolDirect}
	want, err := canon.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if job.Note != string(want) || nro.Token.Run != jb.ID() || job.Token.Digest != nro.Token.Digest || nro.Token.Digest != sig.Sum(want) {
		t.Fatalf("job record note %s over %x, NRO over %x, want the request snapshot %s both cover", job.Note, job.Token.Digest, nro.Token.Digest, want)
	}

	if res, err := jb.Wait(context.Background()); err != nil || res.Status != evidence.StatusOK {
		t.Fatalf("job: %v %+v", err, res)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := len(testpki.Query(t, v, store.Query{Run: jb.ID(), Kind: evidence.KindNRO})); got != 1 || calls.Load() != 1 {
		t.Fatalf("the run holds %d NROs after %d executions, want one of each", got, calls.Load())
	}
}

func commitKinds(commits [][]*store.Record) [][]evidence.Kind {
	out := make([][]evidence.Kind, len(commits))
	for i, recs := range commits {
		for _, r := range recs {
			out[i] = append(out[i], r.Token.Kind)
		}
	}
	return out
}

// snapshotRecord is a call job's job-enqueued record: the token the
// journal's party signs over snap, and snap's canonical JSON as the note.
func snapshotRecord(t *testing.T, f *fixture, snap *evidence.RequestSnapshot) (*evidence.Token, []byte) {
	t.Helper()
	raw, err := canon.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := f.realm.Party(client).Issuer.Issue(evidence.KindJobEnqueued, snap.Run, 0, sig.Sum(raw))
	if err != nil {
		t.Fatal(err)
	}
	return tok, raw
}

func orderSnapshot(run id.Run) *evidence.RequestSnapshot {
	req := orderRequest()
	return &evidence.RequestSnapshot{Run: run, Txn: req.Txn, Client: client, Server: server, Service: req.Service,
		Operation: req.Operation, Params: req.Params, Protocol: invoke.ProtocolDirect}
}

// TestJournalRejectsTamperedSnapshot: a call job's note is the request
// snapshot its token signs. Pending recovers the job from a genuine one
// and refuses a note that is not the snapshot signed, and a signed
// snapshot of another run.
func TestJournalRejectsTamperedSnapshot(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client)
	genuine := orderSnapshot(id.NewRun())
	tok, raw := snapshotRecord(t, f, genuine)
	tampered := *genuine
	tampered.Operation = "Forged"
	tamperedRaw, err := canon.Marshal(&tampered)
	if err != nil {
		t.Fatal(err)
	}
	otherRaw, err := canon.Marshal(orderSnapshot(id.NewRun()))
	if err != nil {
		t.Fatal(err)
	}
	otherTok, err := f.realm.Party(client).Issuer.Issue(evidence.KindJobEnqueued, genuine.Run, 0, sig.Sum(otherRaw))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tok  *evidence.Token
		note []byte
		ok   bool
	}{{tok, raw, true}, {tok, tamperedRaw, false}, {otherTok, otherRaw, false}} {
		log := testpki.Log(t, f.clk)
		j := durable.NewJournal(client, f.realm.Party(client).Issuer, log, f.clk)
		if _, err := log.Append(store.Generated, c.tok, string(c.note)); err != nil {
			t.Fatal(err)
		}
		specs, _, err := j.Pending(f.realm.Verifier())
		if !c.ok {
			if err == nil {
				t.Fatalf("Pending recovered %+v from a note the journal did not sign for its run", specs)
			}
			continue
		}
		if err != nil || len(specs) != 1 {
			t.Fatalf("the genuine snapshot: %+v, err %v", specs, err)
		}
		s := specs[0]
		if s.Job != genuine.Run || s.Type != durable.JobCall || s.Server != server || s.Service != genuine.Service ||
			s.Operation != genuine.Operation || s.Txn != genuine.Txn || len(s.Params) != 1 || !s.Enqueued.Equal(tok.IssuedAt) {
			t.Fatalf("recovered spec %+v from snapshot %+v", s, genuine)
		}
	}
}

// TestJournalRefusesForgedSnapshotOverStaleSignature: a job-enqueued
// record whose note is a forged request snapshot, and whose token says the
// forged snapshot's digest beside the signature the journal made over the
// genuine one, is refused; the genuine record is recovered as its run's
// call job.
func TestJournalRefusesForgedSnapshotOverStaleSignature(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client)
	genuine := orderSnapshot(id.NewRun())
	tok, raw := snapshotRecord(t, f, genuine)
	forged := *genuine
	forged.Operation = "Forged"
	forgedRaw, err := canon.Marshal(&forged)
	if err != nil {
		t.Fatal(err)
	}
	stale := *tok
	stale.Digest = sig.Sum(forgedRaw)
	for _, c := range []struct {
		tok  *evidence.Token
		note []byte
		ok   bool
	}{{tok, raw, true}, {&stale, forgedRaw, false}} {
		log := testpki.Log(t, f.clk)
		j := durable.NewJournal(client, f.realm.Party(client).Issuer, log, f.clk)
		if _, err := log.Append(store.Generated, c.tok, string(c.note)); err != nil {
			t.Fatal(err)
		}
		specs, _, err := j.Pending(f.realm.Verifier())
		if c.ok && (err != nil || len(specs) != 1 || specs[0].Job != genuine.Run || specs[0].Operation != genuine.Operation) {
			t.Fatalf("the genuine snapshot: %+v, err %v", specs, err)
		}
		if !c.ok && err == nil {
			t.Fatalf("Pending recovered %+v: a forged snapshot over a stale signature", specs)
		}
	}
}

// TestSpecFormCallJobRecovers: a call job journaled as earlier builds did
// — its spec as the job-enqueued note, no NRO — recovers, and its run ends
// with exactly one NRO/NRR pair in each vault.
func TestSpecFormCallJobRecovers(t *testing.T) {
	t.Parallel()
	f := newFixture(t, client, server)
	cn := f.node(client, "cli", nil)
	defer cn.Close()
	sn := f.node(server, "srv", nil)
	defer sn.Close()
	exec, calls := echoExec()
	srv := invoke.NewServer(sn.Coordinator(), exec)
	defer srv.Close()
	rt, j := f.runtime(cn, durable.RetryPolicy{})
	defer rt.Close()

	jb := recoverSpecForm(t, f, j, rt)
	if res, err := jb.Wait(context.Background()); err != nil || res.Status != evidence.StatusOK || res.Run != jb.ID() {
		t.Fatalf("spec-form job: %v %+v", err, res)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times", calls.Load())
	}
	for _, log := range []store.Log{cn.Log(), sn.Log()} {
		for _, kind := range []evidence.Kind{evidence.KindNRO, evidence.KindNRR} {
			if got := len(testpki.Query(t, log, store.Query{Run: jb.ID(), Kind: kind})); got != 1 {
				t.Fatalf("a vault holds %d %s tokens for the run, want 1", got, kind)
			}
		}
	}
	if specs, _, err := j.Pending(f.realm.Verifier()); err != nil || len(specs) != 0 {
		t.Fatalf("Pending = %d specs, err %v, want none left", len(specs), err)
	}
}
