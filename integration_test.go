// Cross-module integration tests: full flows through the public API and
// across internal subsystems — crash recovery, partitions, misbehaviour
// detection, TCP end-to-end, evidence export/audit, and the EPM service.
package nonrep_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nonrep"
	"nonrep/internal/bundle"
	"nonrep/internal/clock"
	"nonrep/internal/core"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
	"nonrep/internal/sharing"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
	"nonrep/internal/ttp"
	"nonrep/internal/vault"
)

const (
	iClient = id.Party("urn:org:client")
	iServer = id.Party("urn:org:server")
	iThird  = id.Party("urn:org:third")
	iEPM    = id.Party("urn:ttp:epm")
)

func echoExec() invoke.Executor {
	return invoke.ExecutorFunc(func(_ context.Context, req *evidence.RequestSnapshot) ([]evidence.Param, error) {
		p, err := evidence.ValueParam("echo", req.Operation)
		return []evidence.Param{p}, err
	})
}

// TestCrashRecoveryVault restarts a party on its persisted evidence vault
// and verifies the chain continues seamlessly (trusted-interceptor
// assumption 3: persistent storage for evidence).
func TestCrashRecoveryVault(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	realm := testpki.MustRealm(iClient, iServer)

	runOnce := func() int {
		network := transport.NewInprocNetwork()
		defer network.Close()
		directory := protocol.NewDirectory()
		log, err := vault.Open(dir, realm.Clock)
		if err != nil {
			t.Fatal(err)
		}
		newNode := func(p id.Party, l store.Log) *core.Node {
			node, err := core.NewNode(core.NodeConfig{
				Party: p, Signer: realm.Party(p).Signer, Creds: realm.Store,
				Clock: realm.Clock, Network: network, Addr: string(p),
				Directory: directory, Log: l,
			})
			if err != nil {
				t.Fatal(err)
			}
			return node
		}
		serverNode := newNode(iServer, log)
		clientNode := newNode(iClient, nil)
		defer serverNode.Close()
		defer clientNode.Close()

		srv := invoke.NewServer(serverNode.Coordinator(), echoExec())
		defer srv.Close()
		cli := invoke.NewClient(clientNode.Coordinator())
		res, err := cli.Invoke(context.Background(), iServer, invoke.Request{
			Service: "urn:org:server/svc", Operation: "Do",
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.WaitReceipt(ctx, res.Run); err != nil {
			t.Fatal(err)
		}
		n := log.Len()
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		return n
	}

	first := runOnce()
	second := runOnce() // "crash" and restart on the same vault
	if second != first*2 {
		t.Fatalf("after restart log has %d records, want %d", second, first*2)
	}
	// The recovered log still verifies end to end.
	log, err := vault.Open(dir, realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := log.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	if report := core.NewAdjudicator(realm.Store).AuditStream(core.Records(testpki.Query(t, log, store.Query{}))); !report.Clean() {
		t.Fatalf("audit after recovery: %+v", report)
	}
}

// TestPartitionHealLiveness: a sharing round fails cleanly across a
// partition, and succeeds after healing — liveness under bounded
// failures.
func TestPartitionHealLiveness(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomainWith([]id.Party{iClient, iServer, iThird},
		testpki.WithFaults(transport.FaultPlan{Seed: 3}))
	defer d.Close()
	faulty, ok := d.Network.(*transport.FaultyNetwork)
	if !ok {
		t.Fatal("expected faulty network")
	}
	group := []id.Party{iClient, iServer, iThird}
	ctls := map[id.Party]*sharing.Controller{}
	for _, p := range group {
		ctls[p] = sharing.NewController(d.Node(p).Coordinator())
		if err := ctls[p].Create("doc", []byte("0"), group); err != nil {
			t.Fatal(err)
		}
	}

	faulty.Partition(string(iClient), string(iThird))
	res, err := ctls[iClient].Propose(context.Background(), "doc", []byte("1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Agreed {
		t.Fatal("proposal agreed across a partition")
	}
	// No replica moved.
	for p, ctl := range ctls {
		_, v, err := ctl.Get("doc")
		if err != nil {
			t.Fatal(err)
		}
		if v.Number != 0 {
			t.Fatalf("%s advanced to %d during partition", p, v.Number)
		}
	}

	faulty.Heal(string(iClient), string(iThird))
	res, err = ctls[iClient].Propose(context.Background(), "doc", []byte("1"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreed {
		t.Fatalf("proposal after heal rejected: %+v", res.Rejections)
	}
	for p, ctl := range ctls {
		_, v, err := ctl.Get("doc")
		if err != nil {
			t.Fatal(err)
		}
		if v.Number != 1 {
			t.Fatalf("%s at version %d after heal", p, v.Number)
		}
	}
}

// TestInvocationUnderLoss: the full exchange completes under injected
// transient loss thanks to retransmission and replay de-duplication.
func TestInvocationUnderLoss(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomainWith([]id.Party{iClient, iServer},
		testpki.WithFaults(transport.FaultPlan{Seed: 11, DropRate: 0.25}))
	defer d.Close()
	srv := invoke.NewServer(d.Node(iServer).Coordinator(), echoExec())
	defer srv.Close()
	cli := invoke.NewClient(d.Node(iClient).Coordinator())
	for i := 0; i < 25; i++ {
		res, err := cli.Invoke(context.Background(), iServer, invoke.Request{
			Service: "urn:org:server/svc", Operation: fmt.Sprintf("Op%d", i),
		})
		if err != nil {
			t.Fatalf("invocation %d under loss: %v", i, err)
		}
		if res.Status != evidence.StatusOK {
			t.Fatalf("invocation %d status %v", i, res.Status)
		}
	}
	if err := d.Node(iServer).Log().VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentProposalsSerialise: concurrent proposers never corrupt
// the replica set; rounds serialise or fail cleanly and all replicas stay
// identical.
func TestConcurrentProposalsSerialise(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(iClient, iServer, iThird)
	defer d.Close()
	group := []id.Party{iClient, iServer, iThird}
	ctls := map[id.Party]*sharing.Controller{}
	for _, p := range group {
		ctls[p] = sharing.NewController(d.Node(p).Coordinator())
		if err := ctls[p].Create("doc", []byte("0"), group); err != nil {
			t.Fatal(err)
		}
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		agreed int
	)
	for round := 0; round < 5; round++ {
		for _, p := range group {
			wg.Add(1)
			go func(p id.Party, round int) {
				defer wg.Done()
				res, err := ctls[p].Propose(context.Background(), "doc",
					[]byte(fmt.Sprintf("%s-round%d", p, round)))
				if err != nil {
					return // busy with own pending round: acceptable
				}
				if res.Agreed {
					mu.Lock()
					agreed++
					mu.Unlock()
				}
			}(p, round)
		}
		wg.Wait()
	}
	// Under heavy contention it is legitimate for every concurrent round
	// to fail (each proposer busy with its own pending run); liveness is
	// demonstrated by a subsequent uncontended proposal always
	// succeeding.
	res, err := ctls[iClient].Propose(context.Background(), "doc", []byte("after-the-storm"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreed {
		t.Fatalf("post-contention proposal rejected: %+v", res.Rejections)
	}
	agreed++
	// All replicas identical and verifiable.
	state0, v0, err := ctls[iClient].Get("doc")
	if err != nil {
		t.Fatal(err)
	}
	if uint64(agreed) != v0.Number {
		t.Fatalf("agreed %d rounds but version is %d", agreed, v0.Number)
	}
	for _, p := range group[1:] {
		state, v, err := ctls[p].Get("doc")
		if err != nil {
			t.Fatal(err)
		}
		if string(state) != string(state0) || v.Chain != v0.Chain {
			t.Fatalf("%s diverged: %s v%d", p, state, v.Number)
		}
	}
	for _, p := range group {
		history, err := ctls[p].History("doc")
		if err != nil {
			t.Fatal(err)
		}
		if err := sharing.VerifyHistory(history); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEPMPostmarksInvocationEvidence: invocation evidence is postmarked
// and linked under its transaction identifier at the EPM TTP.
func TestEPMPostmarksInvocationEvidence(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(iClient, iServer, iEPM)
	defer d.Close()
	srv := invoke.NewServer(d.Node(iServer).Coordinator(), echoExec())
	defer srv.Close()
	cli := invoke.NewClient(d.Node(iClient).Coordinator())
	txn := id.NewTxn()
	res, err := cli.Invoke(context.Background(), iServer, invoke.Request{
		Service: "urn:org:server/svc", Operation: "Do", Txn: txn,
	})
	if err != nil {
		t.Fatal(err)
	}

	ttp.NewEPM(d.Node(iEPM).Coordinator())
	epmClient := ttp.NewClient(d.Node(iClient).Coordinator(), iEPM)
	for _, tok := range res.Evidence {
		if _, err := epmClient.Submit(context.Background(), tok); err != nil {
			t.Fatalf("postmark %s: %v", tok.Kind, err)
		}
	}
	linked, err := epmClient.Fetch(context.Background(), txn)
	if err != nil {
		t.Fatal(err)
	}
	// 4 submissions + 4 postmarks linked under the transaction.
	if len(linked) != 8 {
		t.Fatalf("linked evidence = %d tokens, want 8", len(linked))
	}
}

// TestTCPFullStack runs container + NR middleware + sharing over real TCP
// sockets through the public API.
func TestTCPFullStack(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	a, err := domain.AddOrg("urn:org:a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := domain.AddOrg("urn:org:b")
	if err != nil {
		t.Fatal(err)
	}
	group := []nonrep.Party{"urn:org:a", "urn:org:b"}
	if err := a.Share("doc", []byte("0"), group); err != nil {
		t.Fatal(err)
	}
	if err := b.Share("doc", []byte("0"), group); err != nil {
		t.Fatal(err)
	}
	res, err := a.Sharing().Propose(context.Background(), "doc", []byte("over tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreed {
		t.Fatalf("rejected: %+v", res.Rejections)
	}
	state, _, err := b.Sharing().Get("doc")
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != "over tcp" {
		t.Fatalf("state = %s", state)
	}
}

// TestBundleExportAuditRoundTrip: a domain's exported evidence audits
// clean and detects tampering, end to end.
func TestBundleExportAuditRoundTrip(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
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
	server.ServeExecutor(echoExec())
	res, err := client.Invoke(context.Background(), "urn:org:server", nonrep.Request{
		Service: "urn:org:server/svc", Operation: "Do",
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res

	dir := t.TempDir()
	if err := domain.ExportBundle(dir); err != nil {
		t.Fatal(err)
	}
	got, err := bundle.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	creds, err := got.CredentialStore(clock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	adj := core.NewAdjudicator(creds)
	for p, records := range got.Logs {
		if report := adj.AuditStream(core.Records(records)); !report.Clean() {
			t.Fatalf("%s: %+v", p, report)
		}
	}
}

// TestMisbehaviourDetectionMatrix: a malicious counterparty altering any
// protocol-visible field is caught before application data is released.
func TestMisbehaviourDetectionMatrix(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(iClient, iServer)
	defer d.Close()
	srv := invoke.NewServer(d.Node(iServer).Coordinator(), echoExec())
	defer srv.Close()

	svc := d.Node(iClient).Services()
	mutations := map[string]func(snap *evidence.RequestSnapshot, tok *evidence.Token){
		"inflated-order": func(snap *evidence.RequestSnapshot, _ *evidence.Token) {
			p, _ := evidence.ValueParam("qty", 1000)
			snap.Params = []evidence.Param{p}
		},
		"spoofed-client": func(snap *evidence.RequestSnapshot, _ *evidence.Token) {
			snap.Client = iThird
		},
		"replayed-run": func(_ *evidence.RequestSnapshot, tok *evidence.Token) {
			tok.Run = "run-previous"
		},
		"kind-swap": func(_ *evidence.RequestSnapshot, tok *evidence.Token) {
			tok.Kind = evidence.KindNRR
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			run := id.NewRun()
			snap := evidence.RequestSnapshot{
				Run: run, Client: iClient, Server: iServer,
				Service: "urn:org:server/svc", Operation: "Do",
				Protocol: invoke.ProtocolDirect,
			}
			digest, err := snap.Digest()
			if err != nil {
				t.Fatal(err)
			}
			tok, err := svc.Issuer.Issue(evidence.KindNRO, run, 1, digest)
			if err != nil {
				t.Fatal(err)
			}
			mutate(&snap, tok)
			msg := invoke.NewRequestMessage(invoke.ProtocolDirect, run, snap, tok)
			if _, err := d.Node(iClient).Coordinator().DeliverRequest(context.Background(), iServer, msg); err == nil {
				t.Fatalf("server accepted %s", name)
			} else if !strings.Contains(err.Error(), "evidence") && !strings.Contains(err.Error(), "verification") {
				// Any rejection is acceptable; the point is it never
				// reaches the executor silently.
				t.Logf("rejected with: %v", err)
			}
		})
	}
}
