package invoke_test

import (
	"context"
	"errors"
	"testing"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

// TestRelayRejectsForgedRequest: the inline TTP polices access to the
// trust domain — an unattributable request never reaches the server.
func TestRelayRejectsForgedRequest(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server, ttp)
	defer d.Close()
	exec, calls := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	invoke.NewRelay(d.Node(ttp).Coordinator(), invoke.RouteToServer())

	// A request whose NRO covers a different request body.
	run := id.NewRun()
	snap := evidence.RequestSnapshot{
		Run: run, Client: client, Server: server,
		Service: "urn:org:manufacturer/orders", Operation: "PlaceOrder",
		Protocol: invoke.ProtocolInline,
	}
	otherDigest, err := (&evidence.RequestSnapshot{Run: run, Operation: "Other"}).Digest()
	if err != nil {
		t.Fatal(err)
	}
	nro, err := d.Node(client).Services().Issuer.Issue(evidence.KindNRO, run, 1, otherDigest)
	if err != nil {
		t.Fatal(err)
	}
	msg := invoke.NewRequestMessage(invoke.ProtocolInline, run, snap, nro)
	if _, err := d.Node(client).Coordinator().DeliverRequest(context.Background(), ttp, msg); err == nil {
		t.Fatal("relay forwarded forged request")
	}
	if calls.Load() != 0 {
		t.Fatal("forged request reached the component through the relay")
	}
}

// TestRelayRejectsReceiptForUnknownRun: stray receipts are refused, not
// forwarded blind, and the sender learns of the refusal.
func TestRelayRejectsReceiptForUnknownRun(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server, ttp)
	defer d.Close()
	relay := invoke.NewRelay(d.Node(ttp).Coordinator(), invoke.RouteToServer())
	_ = relay
	msg := &protocol.Message{
		Protocol: invoke.ProtocolInline,
		Run:      id.NewRun(),
		Step:     3,
		Kind:     "receipt",
	}
	if err := msg.SetBody(struct{}{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Node(client).Coordinator().Deliver(context.Background(), ttp, msg); !errors.Is(err, invoke.ErrNoSuchRun) {
		t.Fatalf("stray receipt delivered: err = %v, want ErrNoSuchRun", err)
	}
	if got := len(testpki.Query(t, d.Node(ttp).Log(), store.Query{Run: msg.Run})); got != 0 {
		t.Fatalf("relay logged %d records for unknown run", got)
	}
}

// TestInlineTTPTamperedResponseCaught: if the server's response evidence
// does not verify, the relay refuses to deliver it to the client.
func TestRelayWrongKindRejected(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, ttp)
	defer d.Close()
	invoke.NewRelay(d.Node(ttp).Coordinator(), invoke.RouteToServer())
	msg := &protocol.Message{
		Protocol: invoke.ProtocolInline,
		Run:      id.NewRun(),
		Kind:     "response", // not a kind the relay accepts as request
	}
	if err := msg.SetBody(struct{}{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Node(client).Coordinator().DeliverRequest(context.Background(), ttp, msg); err == nil {
		t.Fatal("relay accepted unexpected kind")
	}
}

// lyingServer answers every request with a well-formed, correctly signed
// response whose NRR covers a different request than the one it answers.
type lyingServer struct{ svc *protocol.Services }

func (s *lyingServer) Protocol() string { return invoke.ProtocolDirect }

func (s *lyingServer) ProcessRequest(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
	var req struct {
		Snapshot evidence.RequestSnapshot `json:"snapshot"`
	}
	if err := msg.Body(&req); err != nil {
		return nil, err
	}
	reqDigest, err := req.Snapshot.Digest()
	if err != nil {
		return nil, err
	}
	other := req.Snapshot
	other.Operation = "SomethingElse"
	otherDigest, err := other.Digest()
	if err != nil {
		return nil, err
	}
	resp := evidence.ResponseSnapshot{Run: msg.Run, Server: s.svc.Party, RequestDigest: reqDigest, Status: evidence.StatusOK}
	respDigest, err := resp.Digest()
	if err != nil {
		return nil, err
	}
	nrr, err := s.svc.Issuer.Issue(evidence.KindNRR, msg.Run, 1, otherDigest)
	if err != nil {
		return nil, err
	}
	nroResp, err := s.svc.Issuer.Issue(evidence.KindNROResp, msg.Run, 2, respDigest)
	if err != nil {
		return nil, err
	}
	reply := &protocol.Message{Protocol: msg.Protocol, Run: msg.Run, Txn: msg.Txn, Step: 2, Kind: "response",
		Tokens: []*evidence.Token{nrr, nroResp}}
	err = reply.SetBody(struct {
		Snapshot evidence.ResponseSnapshot `json:"snapshot"`
	}{resp})
	return reply, err
}

// TestRelayRefusesReceiptOverOtherRequest: the relay accepts a reply by the
// client's rule — an NRR over another request is refused, and nothing of
// the run enters the relay's audit trail.
func TestRelayRefusesReceiptOverOtherRequest(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server, ttp)
	defer d.Close()
	d.Node(server).Coordinator().Register(&lyingServer{svc: d.Node(server).Services()})
	invoke.NewRelay(d.Node(ttp).Coordinator(), invoke.RouteToServer())
	cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.Via(ttp))

	if _, err := cli.Invoke(context.Background(), server, orderRequest()); err == nil {
		t.Fatal("a reply whose NRR covers another request was accepted")
	}
	if recs := testpki.Query(t, d.Node(ttp).Log(), store.Query{}); len(recs) != 0 {
		t.Fatalf("relay logged %d records (first: %s %q) for a refused reply, want none", len(recs), recs[0].Token.Kind, recs[0].Note)
	}
}

// TestResolveServiceRejectsIncompleteEvidence: the TTP only substitutes a
// receipt for a server that can prove the full first two steps.
func TestResolveServiceRejectsIncompleteEvidence(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server, ttp)
	defer d.Close()
	invoke.NewResolveService(d.Node(ttp).Coordinator())

	run := id.NewRun()
	snap := evidence.RequestSnapshot{
		Run: run, Client: client, Server: server,
		Service: "urn:org:server/svc", Operation: "Do",
		Protocol: invoke.ProtocolFair,
	}
	reqDigest, err := snap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	nro, err := d.Node(client).Services().Issuer.Issue(evidence.KindNRO, run, 1, reqDigest)
	if err != nil {
		t.Fatal(err)
	}
	// Server presents only the NRO — no NRR, no NROResp: refused.
	msg := &protocol.Message{Protocol: invoke.ProtocolResolve, Run: run, Kind: "resolve"}
	type resolveWire struct {
		Request  evidence.RequestSnapshot  `json:"request"`
		Response evidence.ResponseSnapshot `json:"response"`
		NRO      *evidence.Token           `json:"nro"`
		NRR      *evidence.Token           `json:"nrr"`
		NROResp  *evidence.Token           `json:"nro_resp"`
	}
	if err := msg.SetBody(resolveWire{
		Request:  snap,
		Response: evidence.ResponseSnapshot{Run: run, Server: server, RequestDigest: reqDigest},
		NRO:      nro,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Node(server).Coordinator().DeliverRequest(context.Background(), ttp, msg); err == nil {
		t.Fatal("resolve service accepted incomplete evidence")
	}
}

// TestServerReceiptForUnknownRun: receipts for unknown runs are rejected,
// and the sender learns of the refusal.
func TestServerReceiptForUnknownRun(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	msg := &protocol.Message{
		Protocol: invoke.ProtocolDirect,
		Run:      id.NewRun(),
		Step:     3,
		Kind:     "receipt",
	}
	if err := msg.SetBody(struct{}{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Node(client).Coordinator().Deliver(context.Background(), server, msg); !errors.Is(err, invoke.ErrNoSuchRun) {
		t.Fatalf("stray receipt delivered: err = %v, want ErrNoSuchRun", err)
	}
	// The server logged nothing for the stray run.
	if got := len(testpki.Query(t, d.Node(server).Log(), store.Query{Run: msg.Run})); got != 0 {
		t.Fatalf("server logged %d records for unknown run", got)
	}
	if _, _, err := srv.ReceiptState(msg.Run); err == nil {
		t.Fatal("ReceiptState for unknown run succeeded")
	}
}

// TestServerReceiptBoundLikeAdjudicator: the server takes a receipt only
// if an adjudicator would count it — the client's NRRResp over the
// client's own note on this response, consumed or not. A validly signed
// receipt over a note naming another client, or an unknown consumption,
// is refused and nothing is logged.
func TestServerReceiptBoundLikeAdjudicator(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithholdReceipt())
	ctx := context.Background()
	res, err := cli.Invoke(ctx, server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	resp := res.Evidence[2].Digest // the NROResp's
	receipt := func(note evidence.ReceiptNote) error {
		noteDigest, err := note.Digest()
		if err != nil {
			t.Fatal(err)
		}
		tok, err := d.Realm.Party(client).Issuer.Issue(evidence.KindNRRResp, res.Run, 3, noteDigest)
		if err != nil {
			t.Fatal(err)
		}
		msg := &protocol.Message{Protocol: invoke.ProtocolDirect, Run: res.Run, Step: 3, Kind: "receipt", Tokens: []*evidence.Token{tok}}
		if err := msg.SetBody(map[string]evidence.ReceiptNote{"note": note}); err != nil {
			t.Fatal(err)
		}
		_, err = srv.ProcessRequest(ctx, msg)
		return err
	}
	for name, note := range map[string]evidence.ReceiptNote{
		"another client":      {Run: res.Run, Client: server, ResponseDigest: resp, Consumption: evidence.Consumed},
		"unknown consumption": {Run: res.Run, Client: client, ResponseDigest: resp, Consumption: 7},
	} {
		if err := receipt(note); !errors.Is(err, invoke.ErrEvidenceInvalid) {
			t.Fatalf("receipt over a note with %s: err = %v, want ErrEvidenceInvalid", name, err)
		}
	}
	if got := len(testpki.Query(t, d.Node(server).Log(), store.Query{Run: res.Run})); got != 3 {
		t.Fatalf("server logged %d records for the run, want NRO, NRR and NROResp only", got)
	}
	if err := receipt(evidence.ReceiptNote{Run: res.Run, Client: client, ResponseDigest: resp, Consumption: evidence.NotConsumed}); err != nil {
		t.Fatalf("the client's own receipt: %v", err)
	}
	if received, _, err := srv.ReceiptState(res.Run); err != nil || !received {
		t.Fatalf("ReceiptState = %v, %v after the client's receipt", received, err)
	}
}
