package core_test

import (
	"context"
	"testing"

	"nonrep/internal/core"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
	"nonrep/internal/sharing"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
)

const (
	client = id.Party("urn:org:client")
	server = id.Party("urn:org:server")
	orgC   = id.Party("urn:org:c")
)

func TestNodeConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := core.NewNode(core.NodeConfig{}); err == nil {
		t.Fatal("NewNode with empty config succeeded")
	}
	realm := testpki.MustRealm(client)
	if _, err := core.NewNode(core.NodeConfig{Party: client, Signer: realm.Party(client).Signer}); err == nil {
		t.Fatal("NewNode without network succeeded")
	}
}

func TestNodeDefaults(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(client)
	net := transport.NewInprocNetwork()
	t.Cleanup(func() { _ = net.Close() })
	node, err := core.NewNode(core.NodeConfig{
		Party:     client,
		Signer:    realm.Party(client).Signer,
		Creds:     realm.Store,
		Network:   net,
		Directory: protocol.NewDirectory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if node.Party() != client {
		t.Error("Party mismatch")
	}
	if node.Log() == nil || node.States() == nil || node.Services() == nil || node.Coordinator() == nil {
		t.Error("defaults not installed")
	}
	if node.Coordinator().Addr() != string(client) {
		t.Errorf("Addr = %s", node.Coordinator().Addr())
	}
}

func TestAdjudicatorAuditLog(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	t.Cleanup(d.Close)
	exec := invoke.ExecutorFunc(func(_ context.Context, req *evidence.RequestSnapshot) ([]evidence.Param, error) {
		p, err := evidence.ValueParam("ok", true)
		return []evidence.Param{p}, err
	})
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	t.Cleanup(func() { _ = srv.Close() })
	cli := invoke.NewClient(d.Node(client).Coordinator())
	res, err := cli.Invoke(context.Background(), server, invoke.Request{
		Service: "urn:org:server/svc", Operation: "Do",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitReceipt(context.Background(), res.Run); err != nil {
		t.Fatal(err)
	}

	adj := core.NewAdjudicator(d.Realm.Store)
	for _, p := range []id.Party{client, server} {
		report := adj.AuditStream(core.Records(testpki.Query(t, d.Node(p).Log(), store.Query{})))
		if !report.Clean() {
			t.Fatalf("%s log not clean: %+v", p, report)
		}
		if report.Records != 4 {
			t.Fatalf("%s log has %d records", p, report.Records)
		}
	}

	// Tampering with a record breaks the chain.
	records := testpki.Query(t, d.Node(client).Log(), store.Query{})
	records[1].Note = "doctored"
	report := adj.AuditStream(core.Records(records))
	if report.ChainOK {
		t.Fatal("audit accepted doctored chain")
	}
}

func TestAdjudicatorAuditRun(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	t.Cleanup(d.Close)
	exec := invoke.ExecutorFunc(func(context.Context, *evidence.RequestSnapshot) ([]evidence.Param, error) {
		return nil, nil
	})
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	t.Cleanup(func() { _ = srv.Close() })
	cli := invoke.NewClient(d.Node(client).Coordinator())
	res, err := cli.Invoke(context.Background(), server, invoke.Request{
		Service: "urn:org:server/svc", Operation: "Do",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitReceipt(context.Background(), res.Run); err != nil {
		t.Fatal(err)
	}

	adj := core.NewAdjudicator(d.Realm.Store)
	// The server's log alone proves the complete exchange.
	report, _ := adj.AuditRunStream(core.Records(testpki.Query(t, d.Node(server).Log(), store.Query{})), res.Run)
	if !report.Complete() {
		t.Fatalf("run not complete: %+v", report)
	}
	if report.Client != client || report.Server != server {
		t.Fatalf("attribution: %+v", report)
	}
	if report.Substituted || report.Aborted {
		t.Fatalf("unexpected recovery flags: %+v", report)
	}
}

func TestAdjudicatorDetectsMissingReceipt(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	t.Cleanup(d.Close)
	exec := invoke.ExecutorFunc(func(context.Context, *evidence.RequestSnapshot) ([]evidence.Param, error) {
		return nil, nil
	})
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
	t.Cleanup(func() { _ = srv.Close() })
	// A misbehaving client withholds the response receipt.
	cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithholdReceipt())
	res, err := cli.Invoke(context.Background(), server, invoke.Request{
		Service: "urn:org:server/svc", Operation: "Do",
	})
	if err != nil {
		t.Fatal(err)
	}
	adj := core.NewAdjudicator(d.Realm.Store)
	report, _ := adj.AuditRunStream(core.Records(testpki.Query(t, d.Node(server).Log(), store.Query{})), res.Run)
	if report.Complete() {
		t.Fatal("exchange reported complete despite withheld receipt")
	}
	if !report.RequestProven || !report.ResponseProven || report.ResponseReceiptProven {
		t.Fatalf("report = %+v", report)
	}
}

func TestAdjudicatorAuditSharedHistory(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server, orgC)
	t.Cleanup(d.Close)
	group := []id.Party{client, server, orgC}
	ctls := map[id.Party]*sharing.Controller{}
	for _, p := range group {
		ctls[p] = sharing.NewController(d.Node(p).Coordinator())
	}
	for _, p := range group {
		if err := ctls[p].Create("doc", []byte(`v0`), group); err != nil {
			t.Fatal(err)
		}
	}
	for _, state := range []string{"v1", "v2"} {
		res, err := ctls[client].Propose(context.Background(), "doc", []byte(state))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreed {
			t.Fatalf("update rejected: %+v", res.Rejections)
		}
	}
	adj := core.NewAdjudicator(d.Realm.Store)
	// Any member can prove its history from its own log.
	for _, p := range group {
		history, err := ctls[p].History("doc")
		if err != nil {
			t.Fatal(err)
		}
		if err := adj.AuditSharedHistory(history, testpki.Query(t, d.Node(p).Log(), store.Query{})); err != nil {
			t.Fatalf("%s history audit: %v", p, err)
		}
	}
	// A fabricated version without outcome evidence is detected.
	history, err := ctls[client].History("doc")
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]sharing.Version(nil), history...)
	extra := forged[len(forged)-1]
	extra.Number++
	extra.Run = "run-forged"
	extra.Chain = sig.SumPair(forged[len(forged)-1].Chain, extra.ProposalDigest)
	forged = append(forged, extra)
	if err := adj.AuditSharedHistory(forged, testpki.Query(t, d.Node(client).Log(), store.Query{})); err == nil {
		t.Fatal("audit accepted forged history")
	}
}
