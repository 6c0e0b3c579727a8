package main

import (
	"os"
	"strings"
	"testing"

	"nonrep/internal/bundle"
	"nonrep/internal/clock"
	"nonrep/internal/credential"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

const (
	client = id.Party("urn:org:client")
	server = id.Party("urn:org:server")
)

// writeBundle writes a bundle holding the client's and the server's log of
// one run whose NRR covers nrrDigest; the run's request is
// sig.Sum("request"). Certificates are valid now, as auditBundle checks
// them on the real clock.
func writeBundle(t *testing.T, nrrDigest sig.Digest) string {
	t.Helper()
	clk := clock.Real{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	caKey, err := sig.GenerateEd25519("ca-key")
	must(err)
	ca, err := credential.NewRootAuthority("urn:ttp:ca", caKey, clk)
	must(err)
	b := &bundle.Bundle{CA: ca.Certificate(), Logs: make(map[id.Party][]*store.Record)}
	issuers := make(map[id.Party]*evidence.Issuer)
	for _, p := range []id.Party{client, server} {
		key, err := sig.GenerateEd25519(string(p) + "#key")
		must(err)
		cert, err := ca.Issue(p, key.KeyID(), key.PublicKey())
		must(err)
		b.Certs = append(b.Certs, cert)
		issuers[p] = &evidence.Issuer{Party: p, Signer: key, Clock: clk}
	}

	run := id.NewRun()
	resp := sig.Sum([]byte("response"))
	note := evidence.ReceiptNote{Run: run, Client: client, ResponseDigest: resp, Consumption: evidence.Consumed}
	noteDigest, err := note.Digest()
	must(err)
	var toks []*evidence.Token
	for _, step := range []struct {
		by     id.Party
		kind   evidence.Kind
		digest sig.Digest
	}{
		{client, evidence.KindNRO, sig.Sum([]byte("request"))},
		{server, evidence.KindNRR, nrrDigest},
		{server, evidence.KindNROResp, resp},
		{client, evidence.KindNRRResp, noteDigest},
	} {
		tok, err := issuers[step.by].Issue(step.kind, run, 1, step.digest)
		must(err)
		toks = append(toks, tok)
	}
	for _, p := range []id.Party{client, server} {
		log := testpki.Log(t, clk)
		for _, tok := range toks {
			dir := store.Received
			if tok.Issuer == p {
				dir = store.Generated
			}
			_, err := log.Append(dir, tok, "")
			must(err)
		}
		b.Logs[p] = testpki.Query(t, log, store.Query{})
	}
	dir := t.TempDir()
	must(bundle.Write(dir, b))
	return dir
}

// audit runs the bundle mode on dir and returns its exit code and output.
func audit(t *testing.T, dir string) (int, string) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	code := auditBundle(dir, "")
	os.Stdout = stdout
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

// TestBundleReportsBindingFaults: every log of a bundle can audit clean —
// each record chained, each token validly signed — while a run's tokens
// are bound to different messages. The bundle's verdict is FAULTY then,
// naming the token that breaks the binding.
func TestBundleReportsBindingFaults(t *testing.T) {
	code, out := audit(t, writeBundle(t, sig.Sum([]byte("request"))))
	if code != 0 || !strings.Contains(out, "complete=true") || !strings.Contains(out, "verdict: all evidence verifies") {
		t.Fatalf("honest bundle: exit %d\n%s", code, out)
	}

	code, out = audit(t, writeBundle(t, sig.Sum([]byte("another request"))))
	if code != 1 || !strings.Contains(out, "verdict: evidence FAULTY") {
		t.Fatalf("bundle whose NRR covers another request: exit %d\n%s", code, out)
	}
	if strings.Count(out, "  CLEAN\n") != 2 || !strings.Contains(out, "nrr-req token does not cover the run's request") ||
		!strings.Contains(out, "complete=false") {
		t.Fatalf("want clean logs and a run naming the NRR's broken binding:\n%s", out)
	}
}
