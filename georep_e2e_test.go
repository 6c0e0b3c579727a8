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

// TestGeoRegionLossSurvival is the region-loss end-to-end story: an
// organisation runs non-repudiable traffic under a sync 2-of-3 quorum
// policy with an object-store archival tier; its region and one replica
// region are then destroyed; every quorum-acked invocation remains
// adjudicable from the surviving replica and from the archive alone;
// and the wiped primary is rebuilt incrementally from the archive with
// deep verification passing.
func TestGeoRegionLossSurvival(t *testing.T) {
	t.Parallel()
	const (
		orgA = nonrep.Party("urn:org:geo-a") // primary (client)
		orgB = nonrep.Party("urn:org:geo-b") // replica region, killed
		orgC = nonrep.Party("urn:org:geo-c") // replica region, survives
		orgD = nonrep.Party("urn:org:geo-d") // echo server + adjudicator
	)
	dirA := t.TempDir()
	dirB := t.TempDir()

	// The archival tier: a local-filesystem object store standing in for
	// the cloud bucket.
	archStore, err := nonrep.OpenBlobFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	a, err := domain.AddOrg(orgA,
		nonrep.WithVault(dirA, nonrep.VaultSegmentRecords(4)),
		nonrep.WithQuorum(2, orgB, orgC),
		nonrep.WithArchive(archStore))
	if err != nil {
		t.Fatal(err)
	}
	b, err := domain.AddOrg(orgB, nonrep.WithReplicaStore(dirB))
	if err != nil {
		t.Fatal(err)
	}
	c, err := domain.AddOrg(orgC, nonrep.WithReplicaStore(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := domain.AddOrg(orgD,
		nonrep.WithVault(t.TempDir()),
		nonrep.WithReplicaStore(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}

	desc := nonrep.Descriptor{
		Service: "urn:org:geo-d/echo",
		Methods: map[string]nonrep.MethodPolicy{
			"Echo": {NonRepudiation: true, Protocols: []string{nonrep.ProtocolDirect}},
		},
	}
	if err := d.Deploy(desc, echoComponent{}); err != nil {
		t.Fatal(err)
	}
	srv := d.Serve()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Quorum-gated traffic: every append inside these calls returns only
	// once both replica regions durably hold the record.
	proxy := a.Proxy(orgD, "urn:org:geo-d/echo", nil)
	for i := 0; i < 6; i++ {
		var out string
		res, cerr := proxy.CallValue(ctx, &out, "Echo", fmt.Sprintf("m%d", i))
		if cerr != nil {
			t.Fatalf("quorum-gated call %d: %v", i, cerr)
		}
		if err := srv.WaitReceipt(ctx, res.Run); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Durability()
	if st.Mode != "sync" || st.Quorum != 2 || len(st.Targets) != 2 {
		t.Fatalf("Durability = %+v, want sync 2-of-3 with two targets", st)
	}
	if st.QuorumSeq < st.LocalSeq {
		t.Fatalf("Durability: quorum %d trails local %d after gated calls", st.QuorumSeq, st.LocalSeq)
	}

	// Seal the tail and flush: every segment shipped to both replicas
	// and tiered into the archive.
	if err := a.Vault().SealNow(); err != nil {
		t.Fatal(err)
	}
	if err := a.Georep().Flush(ctx); err != nil {
		t.Fatalf("georep flush: %v", err)
	}
	if st = a.Durability(); st.ArchivedSegments == 0 || st.ArchiveError != "" {
		t.Fatalf("Durability after flush = %+v, want archived segments", st)
	}

	// Pre-loss baseline.
	adj := domain.Adjudicator()
	before := adj.AuditStream(a.Vault().Query(nonrep.VaultQuery{}))
	if !before.Clean() || before.Records == 0 {
		t.Fatalf("pre-loss audit not clean: %+v", before)
	}

	// The disaster: the primary region and one replica region die —
	// processes stopped, storage wiped.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dirB); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dirA); err != nil {
		t.Fatal(err)
	}

	// Survivor adjudication: org D audits A's evidence from C's replicas
	// alone, verdict identical to the pre-loss baseline.
	fromSurvivor, err := d.RemoteAudit(ctx, orgC, orgA)
	if err != nil {
		t.Fatalf("remote audit of surviving replica: %v", err)
	}
	if !fromSurvivor.Clean() || fromSurvivor.Records != before.Records {
		t.Fatalf("survivor audit clean=%v records=%d, want clean with %d records",
			fromSurvivor.Clean(), fromSurvivor.Records, before.Records)
	}

	// Archive adjudication: a vault rebuilt purely from the object store
	// reproduces the same clean history.
	archDir := t.TempDir()
	if _, err := nonrep.RestoreVaultFromArchive(ctx, archStore, archDir, orgA); err != nil {
		t.Fatalf("restore from archive: %v", err)
	}
	fromArchive, err := nonrep.OpenVault(archDir, clock.Real{}, nonrep.VaultReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer fromArchive.Close()
	if err := fromArchive.DeepVerify(); err != nil {
		t.Fatalf("archive-restored DeepVerify: %v", err)
	}
	archAudit := adj.AuditStream(fromArchive.Query(nonrep.VaultQuery{}))
	if !archAudit.Clean() || archAudit.Records != before.Records {
		t.Fatalf("archive audit clean=%v records=%d, want clean with %d records",
			archAudit.Clean(), archAudit.Records, before.Records)
	}

	// Incremental primary rebuild: the first restore installs every
	// missing segment into the wiped directory, the second finds nothing
	// left to fetch.
	n, err := nonrep.RestoreVaultFromArchive(ctx, archStore, dirA, orgA)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("restore into the wiped primary installed nothing")
	}
	if n2, err := nonrep.RestoreVaultFromArchive(ctx, archStore, dirA, orgA); err != nil || n2 != 0 {
		t.Fatalf("second restore = %d, %v; want 0 (incremental)", n2, err)
	}
	// Belt and braces: the replica-based restore path finds the archive
	// restore left nothing missing either.
	restored, err := nonrep.OpenVault(dirA, clock.Real{},
		nonrep.VaultRestoreFrom(c.Replicas().Dir(string(orgA))))
	if err != nil {
		t.Fatalf("reopen restored primary: %v", err)
	}
	defer restored.Close()
	if err := restored.DeepVerify(); err != nil {
		t.Fatalf("restored primary DeepVerify: %v", err)
	}
	recs, err := restored.QueryAll(vault.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != before.Records {
		t.Fatalf("restored primary holds %d records, want %d", len(recs), before.Records)
	}
}
