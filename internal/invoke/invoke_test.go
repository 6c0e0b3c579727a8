package invoke_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

const (
	client = id.Party("urn:org:dealer")
	server = id.Party("urn:org:manufacturer")
	ttp    = id.Party("urn:ttp:inline")
	ttpB   = id.Party("urn:ttp:inline-b")
)

// echoExec returns its operation and params as the result.
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
	spec, err := evidence.ValueParam("spec", map[string]string{"model": "roadster", "colour": "green"})
	if err != nil {
		panic(err)
	}
	return invoke.Request{
		Service:   id.Service("urn:org:manufacturer/orders"),
		Operation: "PlaceOrder",
		Params:    []evidence.Param{spec},
		Txn:       id.NewTxn(),
	}
}

func TestDirectHappyPath(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec, calls := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator())

	res, err := cli.Invoke(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v (%s)", res.Status, res.Err)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times", calls.Load())
	}
	if len(res.Evidence) != 4 {
		t.Fatalf("client holds %d tokens, want 4 (NRO, NRR, NROresp, NRRresp)", len(res.Evidence))
	}
	// The server must eventually receive the response receipt.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.WaitReceipt(ctx, res.Run); err != nil {
		t.Fatalf("WaitReceipt: %v", err)
	}
	received, resolved, err := srv.ReceiptState(res.Run)
	if err != nil || !received || resolved {
		t.Fatalf("ReceiptState = %v,%v,%v want received,unresolved", received, resolved, err)
	}

	// Both evidence logs hold a verifiable chain with 4 records each.
	for _, p := range []id.Party{client, server} {
		log := d.Node(p).Log()
		if log.Len() != 4 {
			t.Errorf("%s log has %d records, want 4", p, log.Len())
		}
		if err := log.VerifyChain(); err != nil {
			t.Errorf("%s log chain: %v", p, err)
		}
		if got := len(testpki.Query(t, log, store.Query{Run: res.Run})); got != 4 {
			t.Errorf("%s log ByRun = %d, want 4", p, got)
		}
	}
}

func TestDirectExecutorFailure(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec := invoke.ExecutorFunc(func(context.Context, *evidence.RequestSnapshot) ([]evidence.Param, error) {
		return nil, fmt.Errorf("backend database unavailable")
	})
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator())

	res, err := cli.Invoke(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusFailed {
		t.Fatalf("status = %v, want failed", res.Status)
	}
	if res.Err == "" {
		t.Fatal("missing failure description")
	}
	// Failure is still fully evidenced.
	if len(res.Evidence) != 4 {
		t.Fatalf("client holds %d tokens, want 4", len(res.Evidence))
	}
}

func TestDirectExecutorTimeout(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec := invoke.ExecutorFunc(func(ctx context.Context, _ *evidence.RequestSnapshot) ([]evidence.Param, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec, invoke.WithExecTimeout(20*time.Millisecond))
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator())

	res, err := cli.Invoke(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusTimeout {
		t.Fatalf("status = %v, want timeout", res.Status)
	}
}

func TestDirectNotExecuted(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec := invoke.ExecutorFunc(func(context.Context, *evidence.RequestSnapshot) ([]evidence.Param, error) {
		return nil, fmt.Errorf("%w: access denied", invoke.ErrNotExecuted)
	})
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator())

	res, err := cli.Invoke(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusNotExecuted {
		t.Fatalf("status = %v, want not-executed", res.Status)
	}
}

func TestDirectNotConsumed(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithConsumption(evidence.NotConsumed))

	res, err := cli.Invoke(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Result != nil {
		t.Fatal("not-consumed response was released to the application")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.WaitReceipt(ctx, res.Run); err != nil {
		t.Fatalf("WaitReceipt: %v", err)
	}
}

func TestAtMostOnce(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec, calls := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()

	// Craft a request message once and deliver it twice, as a
	// retransmitting client interceptor would after losing the reply.
	svc := d.Node(client).Services()
	run := id.NewRun()
	snap := evidence.RequestSnapshot{
		Run:       run,
		Client:    client,
		Server:    server,
		Service:   "urn:org:manufacturer/orders",
		Operation: "PlaceOrder",
		Protocol:  invoke.ProtocolDirect,
	}
	reqDigest, err := snap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	nro, err := svc.Issuer.Issue(evidence.KindNRO, run, 1, reqDigest)
	if err != nil {
		t.Fatal(err)
	}
	msg := invoke.NewRequestMessage(invoke.ProtocolDirect, run, snap, nro)

	first, err := d.Node(client).Coordinator().DeliverRequest(context.Background(), server, msg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.Node(client).Coordinator().DeliverRequest(context.Background(), server, msg)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times, want 1 (at-most-once)", calls.Load())
	}
	if string(first.Payload) != string(second.Payload) {
		t.Fatal("retried request got a different response")
	}
}

func TestServerRejectsTamperedEvidence(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec, calls := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()

	svc := d.Node(client).Services()
	run := id.NewRun()
	snap := evidence.RequestSnapshot{
		Run:       run,
		Client:    client,
		Server:    server,
		Service:   "urn:org:manufacturer/orders",
		Operation: "PlaceOrder",
		Protocol:  invoke.ProtocolDirect,
	}
	// The NRO covers a *different* request than the one submitted.
	otherDigest, err := (&evidence.RequestSnapshot{Run: run, Operation: "SomethingElse"}).Digest()
	if err != nil {
		t.Fatal(err)
	}
	nro, err := svc.Issuer.Issue(evidence.KindNRO, run, 1, otherDigest)
	if err != nil {
		t.Fatal(err)
	}
	msg := invoke.NewRequestMessage(invoke.ProtocolDirect, run, snap, nro)
	if _, err := d.Node(client).Coordinator().DeliverRequest(context.Background(), server, msg); err == nil {
		t.Fatal("server accepted mismatched NRO")
	}
	if calls.Load() != 0 {
		t.Fatal("request reached the component despite invalid evidence")
	}
}

func TestVoluntaryBaseline(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec, invoke.ForProtocol(invoke.ProtocolVoluntary))
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithProtocol(invoke.ProtocolVoluntary))

	res, err := cli.Invoke(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v", res.Status)
	}
	// Asymmetry: the client holds only its own NRO — no receipt, no
	// response origin (section 5, Wichert et al.).
	if len(res.Evidence) != 1 {
		t.Fatalf("client holds %d tokens, want 1", len(res.Evidence))
	}
	// The server still holds the client's NRO.
	if got := d.Node(server).Log().Len(); got != 1 {
		t.Fatalf("server log has %d records, want 1", got)
	}
}

func TestVoluntaryWithReceipt(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec,
		invoke.ForProtocol(invoke.ProtocolVoluntary), invoke.WithVoluntaryReceipt())
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithProtocol(invoke.ProtocolVoluntary))

	res, err := cli.Invoke(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evidence) != 2 {
		t.Fatalf("client holds %d tokens, want 2 (NRO + voluntary receipt)", len(res.Evidence))
	}
}

func TestInlineTTP(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server, ttp)
	defer d.Close()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	invoke.NewRelay(d.Node(ttp).Coordinator(), invoke.RouteToServer())
	cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.Via(ttp))

	res, err := cli.Invoke(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v (%s)", res.Status, res.Err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.WaitReceipt(ctx, res.Run); err != nil {
		t.Fatalf("receipt did not traverse the relay: %v", err)
	}
	// The TTP audited the whole exchange: NRO, NRR, NROresp, NRRresp.
	ttpLog := d.Node(ttp).Log()
	if ttpLog.Len() != 4 {
		t.Fatalf("TTP log has %d records, want 4", ttpLog.Len())
	}
	if err := ttpLog.VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedInlineTTP(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server, ttp, ttpB)
	defer d.Close()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	// Figure 3b: TTP-A (acting for the client) forwards to TTP-B (acting
	// for the server), which forwards to the server.
	invoke.NewRelay(d.Node(ttp).Coordinator(), invoke.RouteVia(ttpB))
	invoke.NewRelay(d.Node(ttpB).Coordinator(), invoke.RouteToServer())
	cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.Via(ttp))

	res, err := cli.Invoke(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v (%s)", res.Status, res.Err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.WaitReceipt(ctx, res.Run); err != nil {
		t.Fatalf("receipt did not traverse both relays: %v", err)
	}
	for _, p := range []id.Party{ttp, ttpB} {
		if got := d.Node(p).Log().Len(); got != 4 {
			t.Errorf("%s log has %d records, want 4", p, got)
		}
	}
}

func TestFairHappyPathAvoidsTTP(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server, ttp)
	defer d.Close()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec,
		invoke.ForProtocol(invoke.ProtocolFair),
		invoke.WithRecovery(ttp, time.Second))
	defer srv.Close()
	resolver := invoke.NewResolveService(d.Node(ttp).Coordinator())
	cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithOfflineTTP(ttp))

	res, err := cli.Invoke(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v", res.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.WaitReceipt(ctx, res.Run); err != nil {
		t.Fatal(err)
	}
	if decided, _ := resolver.Decision(res.Run); decided {
		t.Fatal("TTP was involved in a clean run")
	}
}

func TestFairResolveOnWithheldReceipt(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server, ttp)
	defer d.Close()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec,
		invoke.ForProtocol(invoke.ProtocolFair),
		invoke.WithRecovery(ttp, 30*time.Millisecond))
	defer srv.Close()
	resolver := invoke.NewResolveService(d.Node(ttp).Coordinator())
	cli := invoke.NewClient(d.Node(client).Coordinator(),
		invoke.WithOfflineTTP(ttp), invoke.WithholdReceipt())

	res, err := cli.Invoke(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v", res.Status)
	}
	// The server's watchdog must obtain a substitute receipt.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, resolved, err := srv.ReceiptState(res.Run)
		if err != nil {
			t.Fatal(err)
		}
		if resolved {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never resolved the withheld receipt")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if decided, resolved := resolver.Decision(res.Run); !decided || !resolved {
		t.Fatalf("TTP decision = %v,%v, want decided+resolved", decided, resolved)
	}
	// The substitute receipt is in the server's log.
	var found bool
	for _, rec := range testpki.Query(t, d.Node(server).Log(), store.Query{Run: res.Run}) {
		if rec.Token.Kind == evidence.KindSubstitute {
			found = true
		}
	}
	if !found {
		t.Fatal("substitute receipt not in server log")
	}
}

func TestFairAbortWhenServerUnreachable(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, ttp)
	defer d.Close()
	resolver := invoke.NewResolveService(d.Node(ttp).Coordinator())
	cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithOfflineTTP(ttp))

	// The server party exists in the realm/directory but runs no node:
	// submission fails, and the client aborts at the TTP.
	if _, err := d.Realm.AddParty(server); err != nil {
		t.Fatal(err)
	}
	d.Directory.Register(server, string(server))

	_, err := cli.Invoke(context.Background(), server, orderRequest())
	if !errors.Is(err, invoke.ErrAborted) {
		t.Fatalf("Invoke = %v, want ErrAborted", err)
	}
	// Find the run from the client log and confirm the TTP recorded an
	// abort decision.
	records := testpki.Query(t, d.Node(client).Log(), store.Query{})
	if len(records) == 0 {
		t.Fatal("client log empty")
	}
	run := records[0].Token.Run
	decided, resolved := resolver.Decision(run)
	if !decided || resolved {
		t.Fatalf("TTP decision = %v,%v, want decided+aborted", decided, resolved)
	}
	// A later resolve attempt by the server must not overturn the abort.
	var abortTok *evidence.Token
	for _, rec := range testpki.Query(t, d.Node(client).Log(), store.Query{Run: run}) {
		if rec.Token.Kind == evidence.KindAbort {
			abortTok = rec.Token
		}
	}
	if abortTok == nil {
		t.Fatal("abort affidavit not in client log")
	}
}
