package nonrep_test

import (
	"context"
	"testing"

	"nonrep"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

// TestProvenanceQuery walks run → tokens → parties → derived runs over
// the wire: Org.Provenance reads the peer's records through its audit
// service and derives the graph from them.
func TestProvenanceQuery(t *testing.T) {
	t.Parallel()
	alice, bob := nonrep.Party("urn:org:alice"), nonrep.Party("urn:org:bob")
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	a, err := domain.AddOrg(alice, nonrep.WithVault(t.TempDir(), nonrep.VaultSegmentRecords(4)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := domain.AddOrg(bob)
	if err != nil {
		t.Fatal(err)
	}
	realm := testpki.MustRealm(alice, bob)
	txn := id.Txn("txn-prov-1")
	runA, runB := id.NewRun(), id.NewRun()
	issue := func(run id.Run, step int) {
		tok, err := realm.Party(alice).Issuer.Issue(evidence.KindNRO, run, step,
			sig.Sum([]byte{byte(step)}), evidence.WithTxn(txn), evidence.WithRecipients(bob))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Vault().Append(store.Generated, tok, ""); err != nil {
			t.Fatal(err)
		}
	}
	issue(runA, 1)
	issue(runA, 2)
	issue(runB, 1)
	graph, err := b.Provenance(context.Background(), alice, runA)
	if err != nil {
		t.Fatal(err)
	}
	if graph.Run != runA || len(graph.Tokens) != 2 {
		t.Fatalf("graph of %s: %d tokens, want 2", runA, len(graph.Tokens))
	}
	if len(graph.Txns) != 1 || graph.Txns[0] != txn {
		t.Fatalf("graph txns = %v, want [%s]", graph.Txns, txn)
	}
	if len(graph.Derived) != 1 || graph.Derived[0] != runB {
		t.Fatalf("graph derived = %v, want [%s]", graph.Derived, runB)
	}
	if len(graph.Parties) != 2 {
		t.Fatalf("graph parties = %v, want alice and bob", graph.Parties)
	}
}
