package invoke_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
	"nonrep/internal/testpki"
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
// nowhere, and leaves the run unresolved.
func TestServerRefusesUnboundTTPDecision(t *testing.T) {
	t.Parallel()
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
				invoke.WithRecovery(ttp, time.Hour))
			defer srv.Close()
			rogueTTP(d, forge)
			cli := invoke.NewClient(d.Node(client).Coordinator(),
				invoke.WithOfflineTTP(ttp), invoke.WithholdReceipt())

			res, err := cli.Invoke(context.Background(), server, orderRequest())
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.ResolveNow(context.Background(), res.Run); !errors.Is(err, invoke.ErrEvidenceInvalid) {
				t.Fatalf("ResolveNow = %v, want ErrEvidenceInvalid", err)
			}
			if _, resolved, err := srv.ReceiptState(res.Run); err != nil || resolved {
				t.Fatalf("ReceiptState: resolved=%v, %v; want unresolved", resolved, err)
			}
			for _, rec := range d.Node(server).Log().Records() {
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
