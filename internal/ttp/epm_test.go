package ttp_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"nonrep/internal/core"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/testpki"
	"nonrep/internal/ttp"
	"nonrep/internal/vault"
)

const (
	org = id.Party("urn:org:a")
	epm = id.Party("urn:ttp:epm")
)

func newFixture(t *testing.T) (*testpki.Domain, *ttp.Client) {
	t.Helper()
	d := testpki.MustDomain(org, epm)
	t.Cleanup(d.Close)
	ttp.NewEPM(d.Node(epm).Coordinator())
	return d, ttp.NewClient(d.Node(org).Coordinator(), epm)
}

func issueToken(t *testing.T, d *testpki.Domain, txn id.Txn) *evidence.Token {
	t.Helper()
	tok, err := d.Node(org).Services().Issuer.Issue(
		evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("payload")), evidence.WithTxn(txn))
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

func TestSubmitReturnsVerifiedPostmark(t *testing.T) {
	t.Parallel()
	d, cli := newFixture(t)
	tok := issueToken(t, d, "txn-1")
	postmark, err := cli.Submit(context.Background(), tok)
	if err != nil {
		t.Fatal(err)
	}
	if postmark.Kind != evidence.KindPostmark || postmark.Issuer != epm {
		t.Fatalf("postmark = %+v", postmark)
	}
	// The EPM stored the submission; the submitter logged the postmark.
	if got := d.Node(epm).Log().Len(); got != 2 {
		t.Fatalf("EPM log = %d records, want 2", got)
	}
}

func TestSubmitRejectsInvalidEvidence(t *testing.T) {
	t.Parallel()
	d, cli := newFixture(t)
	tok := issueToken(t, d, "txn-1")
	tok.Digest = sig.Sum([]byte("forged"))
	if _, err := cli.Submit(context.Background(), tok); err == nil {
		t.Fatal("EPM postmarked forged evidence")
	}
}

func TestVerifyService(t *testing.T) {
	t.Parallel()
	d, cli := newFixture(t)
	tok := issueToken(t, d, "txn-1")
	valid, _, err := cli.Verify(context.Background(), tok)
	if err != nil || !valid {
		t.Fatalf("Verify = %v, %v", valid, err)
	}
	tok.Step = 99
	valid, reason, err := cli.Verify(context.Background(), tok)
	if err != nil {
		t.Fatal(err)
	}
	if valid || reason == "" {
		t.Fatalf("Verify accepted tampered token (reason=%q)", reason)
	}
}

func TestFetchLinksEvidenceByTransaction(t *testing.T) {
	t.Parallel()
	d, cli := newFixture(t)
	txn := id.Txn("txn-linked")
	for i := 0; i < 3; i++ {
		if _, err := cli.Submit(context.Background(), issueToken(t, d, txn)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cli.Submit(context.Background(), issueToken(t, d, "txn-other")); err != nil {
		t.Fatal(err)
	}
	tokens, err := cli.Fetch(context.Background(), txn)
	if err != nil {
		t.Fatal(err)
	}
	// 3 submissions + 3 postmarks carry the linked txn.
	if len(tokens) != 6 {
		t.Fatalf("Fetch returned %d tokens, want 6", len(tokens))
	}
	v := d.Realm.Verifier()
	for _, tok := range tokens {
		if err := v.Verify(tok); err != nil {
			t.Errorf("fetched token invalid: %v", err)
		}
		if tok.Txn != txn {
			t.Errorf("fetched token has txn %s", tok.Txn)
		}
	}
}

// TestFetchFailsOnUnreadableLog: when the EPM's log cannot read a sealed
// segment back, Fetch fails instead of answering with the tokens the
// read reached, which would look like the complete bundle.
func TestFetchFailsOnUnreadableLog(t *testing.T) {
	t.Parallel()
	const damaged = id.Party("urn:ttp:epm-damaged")
	d := testpki.MustDomain(org)
	t.Cleanup(d.Close)
	if _, err := d.Realm.AddParty(damaged); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v, err := vault.Open(dir, d.Realm.Clock, vault.WithSegmentRecords(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = v.Close() })
	node, err := core.NewNode(core.NodeConfig{
		Party: damaged, Signer: d.Realm.Party(damaged).Signer, Creds: d.Realm.Store, Clock: d.Realm.Clock,
		Network: d.Network, Addr: string(damaged), Directory: d.Directory, Log: v,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	ttp.NewEPM(node.Coordinator())
	cli := ttp.NewClient(d.Node(org).Coordinator(), damaged)

	// Each submission leaves the token and its postmark in the EPM's log,
	// so two of them fill sealed segment 1 and the tail.
	txn := id.Txn("txn-linked")
	for i := 0; i < 2; i++ {
		if _, err := cli.Submit(context.Background(), issueToken(t, d, txn)); err != nil {
			t.Fatal(err)
		}
	}
	if tokens, err := cli.Fetch(context.Background(), txn); err != nil || len(tokens) != 4 {
		t.Fatalf("Fetch before the damage = %d tokens, %v; want 4", len(tokens), err)
	}
	seg := filepath.Join(dir, "seg-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if tokens, err := cli.Fetch(context.Background(), txn); err == nil {
		t.Fatalf("Fetch over a damaged sealed segment answered %d tokens", len(tokens))
	}
}
