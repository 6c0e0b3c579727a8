package nonrep_test

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"nonrep"
	"nonrep/internal/clock"
	"nonrep/internal/vault"
)

// echoComponent is a trivial business component for evidence generation.
type echoComponent struct{}

func (echoComponent) Echo(_ context.Context, s string) (string, error) { return "echo:" + s, nil }

// TestReplicationDisasterRecovery is the end-to-end survivability story:
// org A replicates its sealed evidence to org B; A's vault directory is
// then destroyed; a full adjudication is served from B's replicas alone
// with a verdict identical to the pre-loss audit; and OpenVault rebuilds
// A's primary from the replica with DeepVerify passing.
func TestReplicationDisasterRecovery(t *testing.T) {
	t.Parallel()
	const (
		orgA = nonrep.Party("urn:org:a")
		orgB = nonrep.Party("urn:org:b")
		orgC = nonrep.Party("urn:org:c")
	)
	dirA, dirB := t.TempDir(), t.TempDir()

	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	a, err := domain.AddOrg(orgA,
		nonrep.WithVault(dirA, nonrep.VaultSegmentRecords(4)),
		nonrep.WithReplication(orgB))
	if err != nil {
		t.Fatal(err)
	}
	b, err := domain.AddOrg(orgB, nonrep.WithVault(dirB, nonrep.VaultSegmentRecords(4)))
	if err != nil {
		t.Fatal(err)
	}
	// C is the adjudicator's organisation: no vault of its own, just a
	// replica store so it can drive remote audits.
	c, err := domain.AddOrg(orgC, nonrep.WithReplicaStore(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}

	desc := nonrep.Descriptor{
		Service: "urn:org:b/echo",
		Methods: map[string]nonrep.MethodPolicy{
			"Echo": {NonRepudiation: true, Protocols: []string{nonrep.ProtocolDirect}},
		},
	}
	if err := b.Deploy(desc, echoComponent{}); err != nil {
		t.Fatal(err)
	}
	srv := b.Serve()
	proxy := a.Proxy(orgB, "urn:org:b/echo", nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < 6; i++ {
		var out string
		res, err := proxy.CallValue(ctx, &out, "Echo", fmt.Sprintf("m%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.WaitReceipt(ctx, res.Run); err != nil {
			t.Fatal(err)
		}
	}

	// Seal the tail so the complete log is replicable, then flush
	// replication deterministically.
	if err := a.Vault().SealNow(); err != nil {
		t.Fatal(err)
	}
	if err := a.Georep().Flush(ctx); err != nil {
		t.Fatalf("replication flush: %v", err)
	}

	// Pre-loss baseline: a local streaming audit of A's vault.
	adj := domain.Adjudicator()
	before := adj.AuditStream(a.Vault().Query(nonrep.VaultQuery{}))
	if !before.Clean() || before.Records == 0 {
		t.Fatalf("pre-loss audit not clean: %+v", before)
	}

	// The replica already serves an identical adjudication while A is
	// still alive — audited remotely by C via B, with A uninvolved.
	fromReplica, err := c.RemoteAudit(ctx, orgB, orgA)
	if err != nil {
		t.Fatalf("remote audit of replica: %v", err)
	}
	if !fromReplica.Clean() || fromReplica.Records != before.Records {
		t.Fatalf("replica audit clean=%v records=%d, want clean with %d records",
			fromReplica.Clean(), fromReplica.Records, before.Records)
	}

	// The disaster: A's storage is wiped while the domain still runs.
	if err := os.RemoveAll(dirA); err != nil {
		t.Fatal(err)
	}
	// B's replicas alone still serve the full adjudication, verdict
	// identical to the pre-loss audit.
	afterLoss, err := c.RemoteAudit(ctx, orgB, orgA)
	if err != nil {
		t.Fatalf("remote audit after loss: %v", err)
	}
	if afterLoss.Clean() != before.Clean() || afterLoss.Records != before.Records || len(afterLoss.Faults) != len(before.Faults) {
		t.Fatalf("post-loss verdict differs: before=%+v after=%+v", before, afterLoss)
	}

	replicaDir := b.Replicas().Dir(string(orgA))
	if err := domain.Close(); err != nil {
		t.Fatal(err)
	}

	// Rebuild the lost primary from the peer's replica.
	restored, err := nonrep.OpenVault(dirA, clock.Real{}, nonrep.VaultRestoreFrom(replicaDir))
	if err != nil {
		t.Fatalf("restore open: %v", err)
	}
	defer restored.Close()
	if err := restored.DeepVerify(); err != nil {
		t.Fatalf("restored vault DeepVerify: %v", err)
	}
	recs, err := restored.QueryAll(vault.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != before.Records {
		t.Fatalf("restored %d records, want %d", len(recs), before.Records)
	}
}

// TestHostedOrgReplication enrols the replicating organisation behind a
// multi-tenant host: replication (to a peer and, beside it, the archive)
// and remote audit must work identically for hosted tenants.
func TestHostedOrgReplication(t *testing.T) {
	t.Parallel()
	const (
		orgA = nonrep.Party("urn:org:hosted-a")
		orgB = nonrep.Party("urn:org:hosted-b")
	)
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	host, err := nonrep.NewHost(domain)
	if err != nil {
		t.Fatal(err)
	}
	a, err := domain.AddHostedOrg(host, orgA,
		nonrep.WithVault(t.TempDir(), nonrep.VaultSegmentRecords(2)),
		nonrep.WithReplication(orgB),
		nonrep.WithArchive(nonrep.NewMemBlob()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := domain.AddHostedOrg(host, orgB, nonrep.WithVault(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}

	desc := nonrep.Descriptor{
		Service: "urn:org:hosted-b/echo",
		Methods: map[string]nonrep.MethodPolicy{
			"Echo": {NonRepudiation: true, Protocols: []string{nonrep.ProtocolDirect}},
		},
	}
	if err := b.Deploy(desc, echoComponent{}); err != nil {
		t.Fatal(err)
	}
	srv := b.Serve()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	proxy := a.Proxy(orgB, "urn:org:hosted-b/echo", nil)
	var out string
	res, err := proxy.CallValue(ctx, &out, "Echo", "hi")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitReceipt(ctx, res.Run); err != nil {
		t.Fatal(err)
	}

	if err := a.Vault().SealNow(); err != nil {
		t.Fatal(err)
	}
	if err := a.Georep().Flush(ctx); err != nil {
		t.Fatalf("hosted replication flush: %v", err)
	}
	last, err := b.Replicas().LastSealed(string(orgA))
	if err != nil || last == 0 {
		t.Fatalf("hosted replica LastSealed = %d, %v", last, err)
	}
	// One engine ships to the peer and the archive alike: WithReplication
	// is the async policy, the archive a target without a vote.
	st := a.Durability()
	if st.Mode != "async" || len(st.Targets) != 1 || st.Targets[0].LastError != "" || st.Targets[0].AckedSeq != st.LocalSeq {
		t.Fatalf("durability = %+v, want one healthy async target at local seq", st)
	}
	if st.ArchivedSegments != last || st.ArchiveError != "" {
		t.Fatalf("archived %d segments (%q), replica holds %d", st.ArchivedSegments, st.ArchiveError, last)
	}
	report, err := b.RemoteAudit(ctx, orgA, "")
	if err != nil || !report.Clean() {
		t.Fatalf("hosted remote audit: %+v, %v", report, err)
	}
}
