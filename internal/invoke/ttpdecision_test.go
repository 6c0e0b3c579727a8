package invoke_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"nonrep/internal/core"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// rogueTTP answers every resolve and abort at the TTP's coordinator with
// the decision forge builds: the resolved flag and the tokens to attach.
func rogueTTP(d *testpki.Domain, forge func(svc *protocol.Services, run id.Run) (bool, []*evidence.Token, error)) {
	co := d.Node(ttp).Coordinator()
	decide := func(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
		resolved, toks, err := forge(co.Services(), msg.Run)
		if err != nil {
			return nil, err
		}
		reply := &protocol.Message{Protocol: invoke.ProtocolResolve, Run: msg.Run, Step: 3, Kind: "decision", Tokens: toks}
		return reply, reply.SetBody(map[string]bool{"resolved": resolved})
	}
	mux := protocol.NewRequestMux(invoke.ProtocolResolve, "resolve", map[string]protocol.RequestFunc{
		"resolve": decide,
		"abort":   decide,
	})
	co.Register(&mux)
}

// issueOver has svc's party issue a token of kind for run over the digest
// of content.
func issueOver(svc *protocol.Services, kind evidence.Kind, run id.Run, content string) ([]*evidence.Token, error) {
	tok, err := svc.Issuer.Issue(kind, run, 3, sig.Sum([]byte(content)))
	return []*evidence.Token{tok}, err
}

// TestServerRefusesUnboundTTPDecision: a server resolving a withheld
// receipt takes the TTP's answer only as the TTP's substitute over the
// run's consumed receipt note, or the TTP's abort over the run's request.
// An unsigned flag or a token over other content is refused, logged
// nowhere, and leaves the run unresolved: the receipt watch asks the TTP
// again one timeout later.
func TestServerRefusesUnboundTTPDecision(t *testing.T) {
	t.Parallel()
	const timeout = time.Hour
	for name, forge := range map[string]func(*protocol.Services, id.Run) (bool, []*evidence.Token, error){
		"resolved without token": func(*protocol.Services, id.Run) (bool, []*evidence.Token, error) {
			return true, nil, nil
		},
		"substitute over another receipt": func(svc *protocol.Services, run id.Run) (bool, []*evidence.Token, error) {
			toks, err := issueOver(svc, evidence.KindSubstitute, run, "another receipt")
			return true, toks, err
		},
		"abort over another request": func(svc *protocol.Services, run id.Run) (bool, []*evidence.Token, error) {
			toks, err := issueOver(svc, evidence.KindAbort, run, "another request")
			return false, toks, err
		},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d := testpki.MustDomain(client, server, ttp)
			defer d.Close()
			exec, _ := echoExec()
			srv := invoke.NewServer(d.Node(server).Coordinator(), exec,
				invoke.ForProtocol(invoke.ProtocolFair),
				invoke.WithRecovery(ttp, timeout))
			defer srv.Close()
			var asked atomic.Int32
			rogueTTP(d, func(svc *protocol.Services, run id.Run) (bool, []*evidence.Token, error) {
				asked.Add(1)
				return forge(svc, run)
			})
			cli := invoke.NewClient(d.Node(client).Coordinator(),
				invoke.WithOfflineTTP(ttp), invoke.WithholdReceipt())

			res, err := cli.Invoke(context.Background(), server, orderRequest())
			if err != nil {
				t.Fatal(err)
			}
			// A second question proves the first answer was refused and
			// the run put back for its next deadline.
			advanceUntil(t, d, timeout, func() bool { return asked.Load() >= 2 })
			if _, resolved, err := srv.ReceiptState(res.Run); err != nil || resolved {
				t.Fatalf("ReceiptState: resolved=%v, %v; want unresolved", resolved, err)
			}
			for _, rec := range testpki.Query(t, d.Node(server).Log(), store.Query{}) {
				if rec.Token.Issuer == ttp {
					t.Fatalf("refused TTP decision logged: record %d %s", rec.Seq, rec.Token.Kind)
				}
			}
		})
	}
}

// TestClientAbortRefusesUnboundTTPDecision: Client.Abort takes an abort
// only as the TTP's affidavit over the request it sent, and a resolution
// only as a substitute the TTP issued for the run. Anything else is
// refused, not reported as a granted abort, and not logged.
func TestClientAbortRefusesUnboundTTPDecision(t *testing.T) {
	t.Parallel()
	for name, forge := range map[string]func(*protocol.Services, id.Run) (bool, []*evidence.Token, error){
		"aborted without token": func(*protocol.Services, id.Run) (bool, []*evidence.Token, error) {
			return false, nil, nil
		},
		"abort over another request": func(svc *protocol.Services, run id.Run) (bool, []*evidence.Token, error) {
			toks, err := issueOver(svc, evidence.KindAbort, run, "another request")
			return false, toks, err
		},
		"abort for another run": func(svc *protocol.Services, _ id.Run) (bool, []*evidence.Token, error) {
			toks, err := issueOver(svc, evidence.KindAbort, id.NewRun(), "another request")
			return false, toks, err
		},
		"substitute as another kind": func(svc *protocol.Services, run id.Run) (bool, []*evidence.Token, error) {
			toks, err := issueOver(svc, evidence.KindAck, run, "a receipt")
			return true, toks, err
		},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d := testpki.MustDomain(client, ttp)
			defer d.Close()
			rogueTTP(d, forge)
			cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithOfflineTTP(ttp))

			req := orderRequest()
			run := id.NewRun()
			snap := evidence.RequestSnapshot{
				Run:       run,
				Txn:       req.Txn,
				Client:    client,
				Server:    server,
				Service:   req.Service,
				Operation: req.Operation,
				Params:    req.Params,
				Protocol:  invoke.ProtocolFair,
			}
			reqDigest, err := snap.Digest()
			if err != nil {
				t.Fatal(err)
			}
			nro, err := d.Node(client).Services().Issuer.Issue(evidence.KindNRO, run, 1, reqDigest)
			if err != nil {
				t.Fatal(err)
			}
			if err := cli.Abort(context.Background(), ttp, snap, nro); !errors.Is(err, invoke.ErrEvidenceInvalid) {
				t.Fatalf("Abort = %v, want ErrEvidenceInvalid", err)
			}
			if n := d.Node(client).Log().Len(); n != 0 {
				t.Fatalf("client logged %d records of a refused decision", n)
			}
		})
	}
}

// ttpNode starts the TTP's node over log, signing with signer. The node
// closes when the test ends; the log stays the caller's.
func ttpNode(t *testing.T, d *testpki.Domain, signer sig.Signer, log store.Log) *core.Node {
	t.Helper()
	node, err := core.NewNode(core.NodeConfig{
		Party: ttp, Signer: signer, Creds: d.Realm.Store, Clock: d.Realm.Clock,
		Network: d.Network, Directory: d.Directory, Retry: &testpki.FastRetry, Log: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	d.Directory.Register(ttp, string(ttp))
	return node
}

// parkingSigner holds its first signature until a second one is asked
// for, or a grace period passes: a TTP that serialises its decisions
// never asks for the second while the first is held, so only the grace
// period releases it there.
type parkingSigner struct {
	sig.Signer
	calls   atomic.Int32
	entered chan struct{} // closed by the first Sign
	second  chan struct{} // closed by the second Sign
}

func (s *parkingSigner) Sign(d sig.Digest) (sig.Signature, error) {
	switch s.calls.Add(1) {
	case 1:
		close(s.entered)
		select {
		case <-s.second:
		case <-time.After(500 * time.Millisecond):
		}
	case 2:
		close(s.second)
	}
	return s.Signer.Sign(d)
}

// fairRun runs one fair invocation whose client withholds its receipt and
// whose server waits an hour before resolving, so the test decides when
// the TTP hears of the run. It returns the server, the client, the run
// and the client's request snapshot and NRO, the evidence of an abort.
func fairRun(t *testing.T, d *testpki.Domain) (*invoke.Server, *invoke.Client, id.Run, evidence.RequestSnapshot, *evidence.Token) {
	t.Helper()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec,
		invoke.ForProtocol(invoke.ProtocolFair), invoke.WithRecovery(ttp, time.Hour))
	t.Cleanup(func() { _ = srv.Close() })
	cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithOfflineTTP(ttp), invoke.WithholdReceipt())
	req := orderRequest()
	res, err := cli.Invoke(context.Background(), server, req)
	if err != nil {
		t.Fatal(err)
	}
	snap := evidence.RequestSnapshot{
		Run: res.Run, Txn: req.Txn, Client: client, Server: server,
		Service: req.Service, Operation: req.Operation, Params: req.Params,
		Protocol: invoke.ProtocolFair,
	}
	return srv, cli, res.Run, snap, res.Evidence[0]
}

// advanceUntil moves the domain's clock on by step until done reports
// true, giving the receipt watch a moment after each step; it fails the
// test after two seconds of wall time.
func advanceUntil(t *testing.T, d *testpki.Domain, step time.Duration, done func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !done(); {
		if time.Now().After(deadline) {
			t.Fatal("the receipt watch did not act in time")
		}
		d.Realm.Clock.Advance(step)
		time.Sleep(2 * time.Millisecond)
	}
}

// decisions returns the substitute receipts and abort affidavits log
// holds for run.
func decisions(t *testing.T, log store.Log, run id.Run) []*evidence.Token {
	t.Helper()
	var toks []*evidence.Token
	for _, rec := range testpki.Query(t, log, store.Query{Run: run}) {
		if k := rec.Token.Kind; k == evidence.KindSubstitute || k == evidence.KindAbort {
			toks = append(toks, rec.Token)
		}
	}
	return toks
}

// TestTTPDecidesOnceUnderRace: a server's resolve and a client's abort of
// one run reach the TTP together, the resolve's decision parked at
// signing until the abort has been checked. The TTP grants one of them:
// its log holds exactly one decision token, both parties are told the
// same decision, and the server does not ask again.
func TestTTPDecidesOnceUnderRace(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	if _, err := d.Realm.AddParty(ttp); err != nil {
		t.Fatal(err)
	}
	signer := &parkingSigner{Signer: d.Realm.Party(ttp).Signer, entered: make(chan struct{}), second: make(chan struct{})}
	ttpLog := testpki.Log(t, d.Realm.Clock)
	invoke.NewResolveService(ttpNode(t, d, signer, ttpLog).Coordinator())
	srv, cli, run, snap, nro := fairRun(t, d)

	// The receipt timeout elapses: the server's watch asks the TTP.
	d.Realm.Clock.Advance(time.Hour)
	<-signer.entered
	abortErr := cli.Abort(ctx, ttp, snap, nro)
	serverLog := d.Node(server).Log()
	// The server is done with the run once it holds a substitute and
	// reports the run resolved, or holds an abort.
	var resolved bool
	advanceUntil(t, d, 0, func() bool {
		var err error
		if _, resolved, err = srv.ReceiptState(run); err != nil {
			t.Fatal(err)
		}
		told := decisions(t, serverLog, run)
		return resolved || len(told) > 0 && told[0].Kind == evidence.KindAbort
	})

	toks := decisions(t, ttpLog, run)
	if len(toks) != 1 {
		t.Fatalf("TTP logged %d decisions for one run, want 1 (abort: %v)", len(toks), abortErr)
	}
	told := decisions(t, serverLog, run)
	if len(told) != 1 || told[0].Kind != toks[0].Kind {
		t.Fatalf("server logged %d decisions, want the TTP's one %s", len(told), toks[0].Kind)
	}
	switch toks[0].Kind {
	case evidence.KindSubstitute:
		if !resolved || !errors.Is(abortErr, invoke.ErrAlreadyResolved) {
			t.Fatalf("TTP resolved; server resolved = %v, abort = %v; want true and ErrAlreadyResolved", resolved, abortErr)
		}
	case evidence.KindAbort:
		if resolved || abortErr != nil {
			t.Fatalf("TTP aborted; server resolved = %v, abort = %v; want false and nil", resolved, abortErr)
		}
	}
	// The decision ends the watch: another timeout asks nothing more.
	d.Realm.Clock.Advance(time.Hour)
	time.Sleep(20 * time.Millisecond)
	if n := len(decisions(t, serverLog, run)); n != 1 {
		t.Fatalf("server logged %d decisions after another timeout, want 1", n)
	}
}

// TestTTPDecisionSurvivesRestart: a TTP restarted over its vault still
// knows the run it aborted: a later resolve earns the abort, not a
// substitute receipt.
func TestTTPDecisionSurvivesRestart(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	if _, err := d.Realm.AddParty(ttp); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v1, err := vault.Open(dir, d.Realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	node1 := ttpNode(t, d, d.Realm.Party(ttp).Signer, v1)
	invoke.NewResolveService(node1.Coordinator())
	srv, cli, run, snap, nro := fairRun(t, d)
	if err := cli.Abort(ctx, ttp, snap, nro); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if err := node1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v1.Close(); err != nil {
		t.Fatal(err)
	}

	v2, err := vault.Open(dir, d.Realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = v2.Close() })
	resolver := invoke.NewResolveService(ttpNode(t, d, d.Realm.Party(ttp).Signer, v2).Coordinator())
	if decided, resolved, err := resolver.Decision(run); err != nil || !decided || resolved {
		t.Fatalf("restarted TTP decision = %v,%v (%v), want decided+aborted", decided, resolved, err)
	}
	// The receipt timeout elapses: the server's resolve earns the abort.
	serverLog := d.Node(server).Log()
	advanceUntil(t, d, time.Hour, func() bool { return len(decisions(t, serverLog, run)) > 0 })
	if told := decisions(t, serverLog, run); len(told) != 1 || told[0].Kind != evidence.KindAbort {
		t.Fatalf("server logged %d decisions after restart, want the TTP's abort", len(told))
	}
	if _, resolved, err := srv.ReceiptState(run); err != nil || resolved {
		t.Fatalf("ReceiptState after the abort: resolved=%v, %v; want unresolved", resolved, err)
	}
	if toks := decisions(t, v2, run); len(toks) != 1 || toks[0].Kind != evidence.KindAbort {
		t.Fatalf("restarted TTP log holds %d decisions, want the one abort", len(toks))
	}
}
