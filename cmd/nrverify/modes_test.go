package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nonrep"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
)

const replica = id.Party("urn:org:replica")

// evidenceDomain is a TCP domain whose server keeps a vault of sealed
// four-record segments, replicated to a third organisation, after three
// calls: the first two linked by one business transaction. The domain's
// bundle (certificates and every log) is exported beside it.
type evidenceDomain struct {
	domain   *nonrep.Domain
	server   *nonrep.Org
	replica  *nonrep.Org
	vaultDir string
	bundle   string
	txn      id.Txn
	runs     []id.Run // runs[0] and runs[1] share txn
}

func newEvidenceDomain(t *testing.T) *evidenceDomain {
	t.Helper()
	d, err := nonrep.NewDomain(nonrep.WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	e := &evidenceDomain{domain: d, vaultDir: t.TempDir(), bundle: t.TempDir(), txn: id.NewTxn()}
	if e.replica, err = d.AddOrg(replica, nonrep.WithVault(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	if e.server, err = d.AddOrg(server, nonrep.WithVault(e.vaultDir, nonrep.VaultSegmentRecords(4)), nonrep.WithReplication(replica)); err != nil {
		t.Fatal(err)
	}
	c, err := d.AddOrg(client)
	if err != nil {
		t.Fatal(err)
	}
	srv := e.server.ServeExecutor(nonrep.ExecutorFunc(func(_ context.Context, req *evidence.RequestSnapshot) ([]evidence.Param, error) {
		p, err := evidence.ValueParam("echo", req.Operation)
		return []evidence.Param{p}, err
	}))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, txn := range []id.Txn{e.txn, e.txn, ""} {
		res, err := c.Invoke(ctx, server, nonrep.Request{Service: "urn:org:server/svc", Operation: "Do", Txn: txn})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.WaitReceipt(ctx, res.Run); err != nil {
			t.Fatal(err)
		}
		e.runs = append(e.runs, res.Run)
	}
	if err := e.server.Vault().SealNow(); err != nil {
		t.Fatal(err)
	}
	if err := e.server.Georep().Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := d.ExportBundle(e.bundle); err != nil {
		t.Fatal(err)
	}
	return e
}

// wantOutput runs a mode and fails unless it exits with code and prints
// every one of want.
func wantOutput(t *testing.T, name string, mode func() int, code int, want ...string) string {
	t.Helper()
	got, out := captured(t, mode)
	if got != code {
		t.Fatalf("%s: exit %d, want %d\n%s", name, got, code, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("%s: want %q in\n%s", name, w, out)
		}
	}
	return out
}

// TestVaultModes pins -vault: a bare audit is a deep one, -bundle adds
// the signature-checked stream audit, -run and -txn narrow it to their
// runs through the indexes, and a flipped byte in a sealed segment is
// FAULTY (exit 1).
func TestVaultModes(t *testing.T) {
	e := newEvidenceDomain(t)
	records := e.server.Vault().Stats().LastSeq
	if err := e.domain.Close(); err != nil {
		t.Fatal(err)
	}
	dir, b := e.vaultDir, e.bundle
	run0, run1 := string(e.runs[0]), string(e.runs[1])

	wantOutput(t, "bare", func() int { return auditVault(dir, "", "", "", false) }, 0,
		fmt.Sprintf("vault: %d records", records),
		"deep verify: every sealed segment matches its seal",
		"tokens not verified (pass -bundle for signature checks)",
		"verdict: tamper-evidence chains verify")
	out := wantOutput(t, "bundle", func() int { return auditVault(dir, b, "", "", false) }, 0,
		fmt.Sprintf("stream audit: %d records  chain=true  CLEAN", records),
		"verdict: all evidence verifies")
	if strings.Contains(out, "deep verify") {
		t.Fatalf("an audit with -bundle went deep unasked:\n%s", out)
	}
	wantOutput(t, "deep", func() int { return auditVault(dir, b, "", "", true) }, 0,
		"deep verify: every sealed segment matches its seal",
		fmt.Sprintf("stream audit: %d records  chain=true  CLEAN", records),
		"verdict: all evidence verifies")
	wantOutput(t, "run", func() int { return auditVault(dir, "", run0, "", false) }, 0,
		"run="+run0+" kind=nro", "4 matching records",
		"verdict: tamper-evidence chains verify (pass -bundle to verify tokens)")
	out = wantOutput(t, "run with bundle", func() int { return auditVault(dir, b, run0, "", false) }, 0,
		"4 matching records", "  "+run0+"\n", "complete=true", "verdict: filtered evidence verifies")
	if strings.Contains(out, run1) {
		t.Fatalf("-run %s reported another run:\n%s", run0, out)
	}
	out = wantOutput(t, "txn with bundle", func() int { return auditVault(dir, b, "", string(e.txn), false) }, 0,
		"  "+run0+"\n", "  "+run1+"\n", "verdict: filtered evidence verifies")
	if strings.Contains(out, string(e.runs[2])) {
		t.Fatalf("-txn reported a run outside the transaction:\n%s", out)
	}
	wantOutput(t, "missing vault", func() int { return auditVault(filepath.Join(dir, "nope"), "", "", "", false) }, 1)

	seg := filepath.Join(dir, "seg-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o600); err != nil {
		t.Fatal(err)
	}
	wantOutput(t, "tampered", func() int { return auditVault(dir, "", "", "", false) }, 1,
		"deep verify:", "verdict: evidence FAULTY")
}

// TestRemoteModes pins -remote over TCP: the peer's own vault and its
// replica of another organisation, chain-only without -bundle and
// signature-checked with it, -run (which needs -bundle), paging, and an
// unreachable peer, which is no verdict (exit 2) rather than FAULTY.
func TestRemoteModes(t *testing.T) {
	e := newEvidenceDomain(t)
	addr, b := e.server.Addr(), e.bundle
	records := e.server.Vault().Stats().LastSeq
	run0 := string(e.runs[0])

	wantOutput(t, "chain only", func() int { return auditRemote(addr, "", "", "", 0) }, 0,
		"remote audit of the remote organisation's own vault via "+addr,
		fmt.Sprintf("streamed %d records (pass -bundle for signature checks)", records),
		"verdict: remote evidence streams and chains verify")
	wantOutput(t, "bundle", func() int { return auditRemote(addr, b, "", "", 0) }, 0,
		fmt.Sprintf("stream audit: %d records  chain=true  CLEAN", records),
		"verdict: all evidence verifies")
	wantOutput(t, "paged", func() int { return auditRemote(addr, b, "", "", 3) }, 0,
		fmt.Sprintf("stream audit: %d records  chain=true  CLEAN", records),
		"verdict: all evidence verifies")
	wantOutput(t, "replica", func() int { return auditRemote(e.replica.Addr(), b, string(server), "", 0) }, 0,
		"remote audit of the remote replica of "+string(server),
		"chain=true  CLEAN", "verdict: all evidence verifies")
	wantOutput(t, "run without bundle", func() int { return auditRemote(addr, "", "", run0, 0) }, 2)
	out := wantOutput(t, "run", func() int { return auditRemote(addr, b, "", run0, 0) }, 0,
		"  "+run0+"\n", "complete=true", "verdict: run evidence verifies")
	if strings.Contains(out, string(e.runs[1])) {
		t.Fatalf("-run %s reported another run:\n%s", run0, out)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone := ln.Addr().String()
	_ = ln.Close()
	out = wantOutput(t, "unreachable", func() int { return auditRemote(gone, "", "", "", 0) }, 2)
	if strings.Contains(out, "verdict:") {
		t.Fatalf("an unreachable peer got a verdict:\n%s", out)
	}
}

// TestProvModes pins -prov against a live peer and a vault: the root run
// with its transaction, tokens and parties, the run derived through the
// shared transaction one hop away, -hops bounding the walk, and exit 2
// for a run without evidence.
func TestProvModes(t *testing.T) {
	e := newEvidenceDomain(t)
	addr := e.server.Addr()
	run0, run1 := e.runs[0], e.runs[1]
	tokens := "  seq "
	both := []string{
		"run " + string(run0) + " (hop 0)", "  txns: " + string(e.txn), tokens, "nro", "nrr-resp",
		"  parties: " + string(client) + " " + string(server),
		"  run " + string(run1) + " (hop 1)",
		"provenance: 2 runs within 2 hops of " + string(run0),
	}
	alone := []string{
		"run " + string(run0) + " (hop 0)",
		"  derived (beyond -hops): " + string(run1),
		"provenance: 1 runs within 0 hops of " + string(run0),
	}

	wantOutput(t, "remote", func() int { return provRemote(addr, run0, 2) }, 0, both...)
	wantOutput(t, "remote, no hops", func() int { return provRemote(addr, run0, 0) }, 0, alone...)
	wantOutput(t, "remote, unknown run", func() int { return provRemote(addr, id.NewRun(), 2) }, 2)

	if err := e.domain.Close(); err != nil {
		t.Fatal(err)
	}
	wantOutput(t, "vault", func() int { return provVault(e.vaultDir, run0, 2) }, 0, both...)
	wantOutput(t, "vault, no hops", func() int { return provVault(e.vaultDir, run0, 0) }, 0, alone...)
	wantOutput(t, "vault, unknown run", func() int { return provVault(e.vaultDir, id.NewRun(), 2) }, 2)
}

// TestProvRemoteSource pins -prov with -source: the walk reads the
// peer's replica of the source's vault, where the peer's own vault
// holds no evidence of the run.
func TestProvRemoteSource(t *testing.T) {
	e := newEvidenceDomain(t)
	run0, run1 := e.runs[0], e.runs[1]
	wantOutput(t, "replica", func() int { return provRemoteOf(e.replica.Addr(), string(server), run0, 2) }, 0,
		"run "+string(run0)+" (hop 0)", "  txns: "+string(e.txn), "  run "+string(run1)+" (hop 1)")
	wantOutput(t, "replica host's own vault", func() int { return provRemoteOf(e.replica.Addr(), "", run0, 2) }, 2)
}
