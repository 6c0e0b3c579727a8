package invoke_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/transport"
)

// receiptDropSeed returns a fault-plan seed under which, at drop rate
// rate, a request and its reply pass and the next attempts transfers —
// every try of the receipt's one-way send — are dropped. It replays the
// injector's draws: one from rand.NewSource(Seed) per judged transfer.
func receiptDropSeed(rate float64, attempts int) int64 {
	for seed := int64(1); ; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ok := rng.Float64() >= rate && rng.Float64() >= rate
		for i := 0; ok && i < attempts; i++ {
			ok = rng.Float64() < rate
		}
		if ok {
			return seed
		}
	}
}

// TestNotConsumedWithheldWhenReceiptSendFails: an interceptor told the
// application never takes up the response keeps it from the caller
// whatever became of the receipt — Invoke and Resume alike, when every
// try of the receipt's send is lost.
func TestNotConsumedWithheldWhenReceiptSendFails(t *testing.T) {
	t.Parallel()
	const rate = 0.8
	attempts := testpki.FastRetry.Attempts
	plan := transport.FaultPlan{Seed: receiptDropSeed(rate, attempts), DropRate: rate, MaxDrops: attempts}
	for _, entry := range []string{"invoke", "resume"} {
		entry := entry
		t.Run(entry, func(t *testing.T) {
			t.Parallel()
			d := testpki.MustDomainWith([]id.Party{client, server}, testpki.WithFaults(plan))
			defer d.Close()
			exec, _ := echoExec()
			srv := invoke.NewServer(d.Node(server).Coordinator(), exec)
			defer srv.Close()
			cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithConsumption(evidence.NotConsumed))

			var res *invoke.Result
			var err error
			if entry == "resume" {
				res, err = cli.Resume(context.Background(), server, orderRequest(), id.NewRun(), invoke.RunState{})
			} else {
				res, err = cli.Invoke(context.Background(), server, orderRequest())
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Network.(*transport.FaultyNetwork).Drops(); got != attempts {
				t.Fatalf("the plan dropped %d transfers, want the receipt's %d tries", got, attempts)
			}
			if received, _, _ := srv.ReceiptState(res.Run); received {
				t.Fatal("the receipt reached the server despite the plan")
			}
			if res.Status != evidence.StatusOK || len(res.Evidence) != 4 {
				t.Fatalf("result: status %v, %d tokens; want OK with 4", res.Status, len(res.Evidence))
			}
			if res.Result != nil {
				t.Fatal("not-consumed response was released to the application after its receipt send failed")
			}
		})
	}
}

// volunteeringServer answers ProtocolVoluntary requests with a correctly
// signed response and a voluntary NRR — over another request when
// otherNRR is set — plus an NRO(resp) over a response it never sent: an
// origin the voluntary client does not ask for and so never checks.
type volunteeringServer struct {
	svc      *protocol.Services
	otherNRR bool
}

func (s *volunteeringServer) Protocol() string { return invoke.ProtocolVoluntary }

func (s *volunteeringServer) Process(context.Context, *protocol.Message) error { return nil }

func (s *volunteeringServer) ProcessRequest(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
	var req struct {
		Snapshot evidence.RequestSnapshot `json:"snapshot"`
	}
	if err := msg.Body(&req); err != nil {
		return nil, err
	}
	covered := req.Snapshot
	if s.otherNRR {
		covered.Operation = "SomethingElse"
	}
	reqDigest, err := req.Snapshot.Digest()
	if err != nil {
		return nil, err
	}
	nrrDigest, err := covered.Digest()
	if err != nil {
		return nil, err
	}
	resp := evidence.ResponseSnapshot{Run: msg.Run, Server: s.svc.Party, RequestDigest: reqDigest, Status: evidence.StatusOK}
	unsent := resp
	unsent.Status = evidence.StatusFailed
	unsentDigest, err := unsent.Digest()
	if err != nil {
		return nil, err
	}
	nrr, err := s.svc.Issuer.Issue(evidence.KindNRR, msg.Run, 1, nrrDigest)
	if err != nil {
		return nil, err
	}
	nroResp, err := s.svc.Issuer.Issue(evidence.KindNROResp, msg.Run, 2, unsentDigest)
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

// TestVoluntaryClientKeepsOnlyVerifiedEvidence: a voluntary client keeps
// a volunteered NRR only if it covers the request sent, and never keeps
// an NRO(resp), which it does not check — in its log or its result.
func TestVoluntaryClientKeepsOnlyVerifiedEvidence(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name     string
		otherNRR bool
		want     []evidence.Kind // the client log's kinds
	}{
		{"origin-attached", false, []evidence.Kind{evidence.KindNRO, evidence.KindNRR}},
		{"receipt-over-other-request", true, []evidence.Kind{evidence.KindNRO}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			d := testpki.MustDomain(client, server)
			defer d.Close()
			d.Node(server).Coordinator().Register(&volunteeringServer{svc: d.Node(server).Services(), otherNRR: tc.otherNRR})
			cli := invoke.NewClient(d.Node(client).Coordinator(), invoke.WithProtocol(invoke.ProtocolVoluntary))

			res, err := cli.Invoke(context.Background(), server, orderRequest())
			if tc.otherNRR {
				if !errors.Is(err, invoke.ErrEvidenceInvalid) {
					t.Fatalf("a voluntary NRR over another request: %v, want ErrEvidenceInvalid", err)
				}
			} else if err != nil || len(res.Evidence) != 2 || res.Evidence[1].Kind != evidence.KindNRR {
				t.Fatalf("Invoke = %v, %v; want NRO and the voluntary NRR", res, err)
			}
			var kinds []evidence.Kind
			for _, rec := range testpki.Query(t, d.Node(client).Log(), store.Query{}) {
				kinds = append(kinds, rec.Token.Kind)
			}
			if fmt.Sprint(kinds) != fmt.Sprint(tc.want) {
				t.Fatalf("client log holds %v, want %v", kinds, tc.want)
			}
		})
	}
}

// TestVoluntaryNotConsumedWithheld: NotConsumed keeps the response from
// the application under the voluntary protocol too, which has no receipt
// to report it in.
func TestVoluntaryNotConsumedWithheld(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(client, server)
	defer d.Close()
	exec, _ := echoExec()
	srv := invoke.NewServer(d.Node(server).Coordinator(), exec,
		invoke.ForProtocol(invoke.ProtocolVoluntary), invoke.WithVoluntaryReceipt())
	defer srv.Close()
	cli := invoke.NewClient(d.Node(client).Coordinator(),
		invoke.WithProtocol(invoke.ProtocolVoluntary), invoke.WithConsumption(evidence.NotConsumed))

	res, err := cli.Invoke(context.Background(), server, orderRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK || len(res.Evidence) != 2 {
		t.Fatalf("result: status %v, %d tokens; want OK with NRO and the voluntary NRR", res.Status, len(res.Evidence))
	}
	if res.Result != nil {
		t.Fatal("not-consumed voluntary response was released to the application")
	}
}

// TestFreshResumeCommitsTwice: a fresh Resume costs the client's vault
// the two commits Invoke costs it — {NRO} before the request leaves, then
// {NRR, NROResp, NRRResp} before the receipt leaves — so a durable call
// blocks on four commits like every other call.
func TestFreshResumeCommitsTwice(t *testing.T) {
	t.Parallel()
	f := newRuleFixture(t)
	cp, sp := f.start(client, t.TempDir()), f.start(server, t.TempDir())
	exec, _ := echoExec()
	srv := invoke.NewServer(sp.node.Coordinator(), exec)
	defer srv.Close()

	var mu sync.Mutex
	var commits [][]evidence.Kind
	defer cp.v.OnCommit(func(recs []*store.Record) {
		kinds := make([]evidence.Kind, len(recs))
		for i, rec := range recs {
			kinds[i] = rec.Token.Kind
		}
		mu.Lock()
		commits = append(commits, kinds)
		mu.Unlock()
	})()
	if _, err := invoke.NewClient(cp.node.Coordinator()).Resume(context.Background(), server, orderRequest(), id.NewRun(), invoke.RunState{}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := [][]evidence.Kind{
		{evidence.KindNRO},
		{evidence.KindNRR, evidence.KindNROResp, evidence.KindNRRResp},
	}
	if fmt.Sprint(commits) != fmt.Sprint(want) {
		t.Fatalf("client vault commits = %v, want %v", commits, want)
	}
}
