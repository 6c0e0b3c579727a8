package nonrep_test

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"nonrep"
	"nonrep/internal/clock"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
	"nonrep/internal/transport"
)

// negotiationDoc is the shared information of the monitored contract.
type negotiationDoc struct {
	Phase string `json:"phase"`
	Terms string `json:"terms"`
}

func encodeNegotiation(t *testing.T, n negotiationDoc) []byte {
	t.Helper()
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSubscriptionContractMonitoringTCP is the subscription plane's
// acceptance test over real TCP: an auditor organisation subscribes to a
// supplier's vault and, while a contract-monitored negotiation runs,
// observes the supplier's veto evidence live — within one group commit
// of the decision landing. The full feed is then checked for chain
// continuity against the vault (the feed's verified head must agree
// with DeepVerify's), and a killed subscriber resumes from its last
// verified position with no gap and no duplicate.
func TestSubscriptionContractMonitoringTCP(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	domain, err := nonrep.NewDomain(nonrep.WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	buyer, err := domain.AddOrg("urn:org:sub-buyer")
	if err != nil {
		t.Fatal(err)
	}
	vaultDir, err := os.MkdirTemp(t.TempDir(), "vault-*")
	if err != nil {
		t.Fatal(err)
	}
	supplier, err := domain.AddOrg("urn:org:sub-supplier", nonrep.WithVault(vaultDir))
	if err != nil {
		t.Fatal(err)
	}
	auditor, err := domain.AddOrg("urn:org:sub-auditor")
	if err != nil {
		t.Fatal(err)
	}

	// A monitored purchase contract, enforced at the supplier.
	contract := &nonrep.Contract{
		Name:    "purchase",
		Initial: "offered",
		Transitions: []nonrep.Transition{
			{From: "offered", Event: "quote", To: "quoted"},
			{From: "quoted", Event: "accept", To: "accepted"},
		},
		Accepting: []nonrep.ContractState{"accepted"},
	}
	if err := contract.Verify(); err != nil {
		t.Fatal(err)
	}
	monitor, err := nonrep.NewMonitor(contract)
	if err != nil {
		t.Fatal(err)
	}
	eventOf := func(ch *nonrep.Change) string {
		var n negotiationDoc
		if err := json.Unmarshal(ch.NewState, &n); err != nil {
			return "malformed"
		}
		return n.Phase
	}
	validator, apply := nonrep.ContractValidator(monitor, eventOf)
	supplier.Sharing().AddValidator("negotiation", validator)
	supplier.Sharing().OnApply("negotiation", apply)

	group := []nonrep.Party{"urn:org:sub-buyer", "urn:org:sub-supplier"}
	initial := encodeNegotiation(t, negotiationDoc{Phase: "offered", Terms: "40 crates"})
	if err := buyer.Share("negotiation", initial, group); err != nil {
		t.Fatal(err)
	}
	if err := supplier.Share("negotiation", initial, group); err != nil {
		t.Fatal(err)
	}

	// The auditor subscribes before the negotiation starts, collecting
	// every record and flagging veto decisions as they stream in.
	feed, err := auditor.Subscribe(ctx, "urn:org:sub-supplier", nonrep.WatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	type collected struct {
		recs       []*nonrep.Record
		violations int
	}
	results := make(chan collected, 1)
	violation := make(chan *nonrep.Record, 4)
	stop := make(chan struct{})
	go func() {
		var got collected
		defer func() { results <- got }()
		for {
			select {
			case ev, ok := <-feed.Events():
				if !ok {
					return
				}
				for _, rec := range ev.Records {
					got.recs = append(got.recs, rec)
					if strings.Contains(rec.Note, "accept=false") {
						got.violations++
						select {
						case violation <- rec:
						default:
						}
					}
				}
			case <-stop:
				return
			}
		}
	}()

	// An out-of-contract proposal: accepting from "offered" is illegal,
	// so the supplier vetoes with signed decision evidence.
	res, err := buyer.Sharing().Propose(ctx, "negotiation", encodeNegotiation(t, negotiationDoc{Phase: "accept", Terms: "now"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Agreed {
		t.Fatal("out-of-contract proposal was agreed")
	}

	// The veto must reach the live feed within one commit interval of
	// the supplier's group commit — bounded here by a generous wall
	// clock, but with no polling of the vault: the push plane alone
	// delivers it.
	select {
	case rec := <-violation:
		if !strings.Contains(rec.Note, "accept=false") {
			t.Fatalf("violation record note = %q", rec.Note)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("veto evidence did not reach the live feed")
	}

	// A compliant step, so the feed carries post-violation traffic too.
	res, err = supplier.Sharing().Propose(ctx, "negotiation", encodeNegotiation(t, negotiationDoc{Phase: "quote", Terms: "40 crates @ 90"}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreed {
		t.Fatalf("compliant proposal vetoed: %v", res.Rejections)
	}

	// Wait for the feed to reach the vault head, then stop collecting.
	head, _ := supplier.Vault().LastPosition()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if seq, _ := feed.Position(); seq >= head {
			break
		}
		if time.Now().After(deadline) {
			seq, _ := feed.Position()
			t.Fatalf("feed stalled at %d, vault head %d", seq, head)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	got := <-results

	// Chain continuity: the collected stream must re-verify as one
	// unbroken hash chain from genesis, and the feed's verified head
	// must agree with the vault the publisher's DeepVerify vouches for.
	if got.violations == 0 {
		t.Fatal("no violation records collected")
	}
	if len(got.recs) == 0 || got.recs[0].Seq != 1 {
		t.Fatalf("feed did not start at genesis: %d records", len(got.recs))
	}
	for i, rec := range got.recs {
		if rec.Seq != uint64(i)+1 {
			t.Fatalf("feed gap or duplicate at index %d: seq %d", i, rec.Seq)
		}
	}
	if err := store.VerifyRecords(got.recs); err != nil {
		t.Fatalf("feed records do not chain: %v", err)
	}
	if err := supplier.Vault().DeepVerify(); err != nil {
		t.Fatalf("vault DeepVerify: %v", err)
	}
	feedSeq, feedHash := feed.Position()
	vaultSeq, vaultHash := supplier.Vault().LastPosition()
	if feedSeq < vaultSeq {
		t.Fatalf("feed position %d behind vault head %d", feedSeq, vaultSeq)
	}
	if feedSeq == vaultSeq && feedHash != vaultHash {
		t.Fatalf("feed head hash diverges from vault head hash at %d", feedSeq)
	}

	// Kill the subscriber, let evidence accumulate while it is down,
	// then resume from its last verified position: the continuation must
	// start at exactly feedSeq+1 — no gap, no duplicate — and chain onto
	// the hash the dead feed had verified.
	feed.Close()
	res, err = buyer.Sharing().Propose(ctx, "negotiation", encodeNegotiation(t, negotiationDoc{Phase: "accept", Terms: "agreed @ 90"}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreed {
		t.Fatalf("final acceptance vetoed: %v", res.Rejections)
	}

	resumed, err := feed.Resume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	head, _ = supplier.Vault().LastPosition()
	if head <= feedSeq {
		t.Fatalf("no new evidence while subscriber was down (head %d)", head)
	}
	var after []*nonrep.Record
	deadline = time.Now().Add(10 * time.Second)
	for last := feedSeq; last < head; {
		select {
		case ev, ok := <-resumed.Events():
			if !ok {
				t.Fatalf("resumed feed ended early: %v", resumed.Err())
			}
			for _, rec := range ev.Records {
				after = append(after, rec)
				last = rec.Seq
			}
		case <-time.After(time.Until(deadline)):
			t.Fatalf("resumed feed stalled at %d, head %d", last, head)
		}
	}
	for i, rec := range after {
		if want := feedSeq + uint64(i) + 1; rec.Seq != want {
			t.Fatalf("resumed feed seq %d at index %d, want %d (gap or duplicate)", rec.Seq, i, want)
		}
	}
	if after[0].Prev != feedHash {
		t.Fatal("resumed feed does not chain onto the killed feed's verified head")
	}
}

// TestOpenSubscriptionsServeTokenlessSubscriber: a subscriber holding no
// domain credential, attached the way nrverify -follow attaches, is
// refused by a publisher enrolled without WithOpenSubscriptions and is
// served, record by record, by one enrolled with it.
func TestOpenSubscriptionsServeTokenlessSubscriber(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	domain, err := nonrep.NewDomain(nonrep.WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	strict, err := domain.AddOrg("urn:org:sub-strict", nonrep.WithVault(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	open, err := domain.AddOrg("urn:org:sub-open", nonrep.WithVault(t.TempDir()), nonrep.WithOpenSubscriptions())
	if err != nil {
		t.Fatal(err)
	}
	caller, err := domain.AddOrg("urn:org:sub-caller")
	if err != nil {
		t.Fatal(err)
	}

	network := transport.NewTCPNetwork()
	defer network.Close()
	co, err := protocol.New(network, "127.0.0.1:0", &protocol.Services{
		Party:     "urn:nonrep:nrverify",
		Clock:     clock.Real{},
		Directory: protocol.NewDirectory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	client := protocol.NewSubClient(co)

	if feed, err := client.SubscribeAddr(ctx, strict.Addr(), nonrep.WatchConfig{Seals: true}); err == nil {
		feed.Close()
		t.Fatal("a publisher without WithOpenSubscriptions served a subscriber holding no token")
	} else if !strings.Contains(err.Error(), "not authorized") {
		t.Fatalf("tokenless sub-open against a strict publisher: err = %v, want an authorization refusal", err)
	}

	feed, err := client.SubscribeAddr(ctx, open.Addr(), nonrep.WatchConfig{Seals: true})
	if err != nil {
		t.Fatalf("tokenless sub-open against an open publisher: %v", err)
	}
	defer feed.Close()
	if err := open.Deploy(ordersDescriptor(), &Orders{}); err != nil {
		t.Fatal(err)
	}
	open.Serve()
	res, err := caller.Proxy("urn:org:sub-open", ordersURI, nil).Call(ctx, "Place", "gt")
	if err != nil {
		t.Fatal(err)
	}
	for {
		select {
		case ev, ok := <-feed.Events():
			if !ok {
				t.Fatalf("feed ended before the call's evidence arrived: %v", feed.Err())
			}
			for _, rec := range ev.Records {
				if rec.Token.Run == res.Run {
					return
				}
			}
		case <-ctx.Done():
			t.Fatal("the open publisher's feed never carried the call's evidence")
		}
	}
}
