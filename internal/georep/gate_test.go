package georep_test

import (
	"errors"
	"testing"
	"time"

	"nonrep/internal/evidence"
	"nonrep/internal/georep"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

// groupEntries builds n signed entries of one run.
func groupEntries(t testing.TB, realm *testpki.Realm, n int) []store.Entry {
	t.Helper()
	run := id.NewRun()
	entries := make([]store.Entry, n)
	for i := range entries {
		tok, err := realm.Party(srcOrg).Issuer.Issue(evidence.KindNRO, run, i+1, sig.Sum([]byte{byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = store.Entry{Dir: store.Generated, Token: tok, Note: "grouped"}
	}
	return entries
}

// TestGatedAppendGroupWaitsForQuorum: GatedLog embeds the vault, so
// without a method of its own the vault's AppendGroup would be promoted
// and a group would return on local durability alone. Under sync 2-of-3
// with two replicas held back the group must stay blocked — though the
// local vault already holds it — and return once a second replica
// acknowledges the group's last record.
func TestGatedAppendGroupWaitsForQuorum(t *testing.T) {
	t.Parallel()
	realm, v := newSourceVault(t, 100)
	g, eng, targets := syncEngine(t, v, 2, 3, 10*time.Second)
	targets[1].set(func(m *memTarget) { m.down = true })
	targets[2].set(func(m *memTarget) { m.down = true })

	type result struct {
		recs []*store.Record
		err  error
	}
	done := make(chan result, 1)
	go func() {
		recs, err := g.AppendGroup(groupEntries(t, realm, 3))
		done <- result{recs, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for v.Len() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("group never became locally durable")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-done:
		t.Fatalf("grouped append returned (%d records, %v) with one replica of the 2-of-3 quorum", len(r.recs), r.err)
	case <-time.After(150 * time.Millisecond):
	}
	targets[1].set(func(m *memTarget) { m.down = false })
	select {
	case r := <-done:
		if r.err != nil || len(r.recs) != 3 {
			t.Fatalf("grouped append = %d records, %v; want 3, nil", len(r.recs), r.err)
		}
		if q := eng.QuorumSeq(); q < r.recs[2].Seq {
			t.Fatalf("returned with QuorumSeq %d below the group's last record %d", q, r.recs[2].Seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("grouped append still blocked after the quorum was restored")
	}
}

// TestGatedAppendGroupQuorumUnmet: the Append contract carries over — on
// ErrQuorumUnmet the records come back with the error, locally durable
// and still replicating.
func TestGatedAppendGroupQuorumUnmet(t *testing.T) {
	t.Parallel()
	realm, v := newSourceVault(t, 100)
	g, _, targets := syncEngine(t, v, 2, 2, 60*time.Millisecond)
	targets[1].set(func(m *memTarget) { m.down = true })
	recs, err := g.AppendGroup(groupEntries(t, realm, 2))
	if !errors.Is(err, georep.ErrQuorumUnmet) {
		t.Fatalf("err = %v, want ErrQuorumUnmet", err)
	}
	if len(recs) != 2 || v.Len() != 2 {
		t.Fatalf("%d records returned, %d in the vault; want 2 and 2", len(recs), v.Len())
	}
}
