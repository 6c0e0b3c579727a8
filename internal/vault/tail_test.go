package vault_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// tailFixture is a source vault plus a replica set receiving its tail.
type tailFixture struct {
	realm *testpki.Realm
	v     *vault.Vault
	rs    *vault.ReplicaSet
	rsDir string
}

func newTailFixture(t *testing.T, segRecords int) *tailFixture {
	t.Helper()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(segRecords))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = v.Close() })
	rsDir := filepath.Join(t.TempDir(), "replicas")
	rs, err := vault.OpenReplicaSet(rsDir)
	if err != nil {
		t.Fatal(err)
	}
	return &tailFixture{realm: realm, v: v, rs: rs, rsDir: rsDir}
}

// TestReceiveTailQuorumPath pushes unsealed records to a replica tail and
// checks the core quorum-path invariants: acknowledgement watermarks,
// idempotent re-delivery, conflict refusal, gap refusal, and that the
// tail records are immediately adjudicable from the replica directory as
// a read-only vault.
func TestReceiveTailQuorumPath(t *testing.T) {
	t.Parallel()
	f := newTailFixture(t, 100) // nothing seals: pure tail traffic
	records := seedVault(t, f.realm, f.v, 6)

	acked, err := f.rs.ReceiveTail(sourceOrg, records[:4])
	if err != nil || acked != 4 {
		t.Fatalf("ReceiveTail = %d, %v; want 4", acked, err)
	}
	if got, err := f.rs.AckedSeq(sourceOrg); err != nil || got != 4 {
		t.Fatalf("AckedSeq = %d, %v; want 4", got, err)
	}

	// Idempotent re-delivery of held records plus the next batch.
	acked, err = f.rs.ReceiveTail(sourceOrg, records[2:])
	if err != nil || acked != 6 {
		t.Fatalf("ReceiveTail redelivery = %d, %v; want 6", acked, err)
	}

	// A conflicting record at a held position is refused.
	forged := *records[5]
	forged.Note = "forged"
	forged.Hash = forged.Prev
	if _, err := f.rs.ReceiveTail(sourceOrg, []*store.Record{&forged}); !errors.Is(err, vault.ErrSealBroken) {
		t.Fatalf("conflicting tail record: err = %v, want ErrSealBroken", err)
	}

	// A batch that skips past the replica's position is a gap.
	more := seedVault(t, f.realm, f.v, 3)
	if _, err := f.rs.ReceiveTail(sourceOrg, more[1:]); !errors.Is(err, vault.ErrReplicaGap) {
		t.Fatalf("gapped tail push: err = %v, want ErrReplicaGap", err)
	}

	// The replica directory with only tail records opens as a read-only
	// vault and serves the records.
	replica, err := vault.Open(f.rs.Dir(sourceOrg), f.realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatalf("open replica as vault: %v", err)
	}
	defer replica.Close()
	if got := replica.Len(); got != 6 {
		t.Fatalf("replica Len = %d, want 6", got)
	}
	if err := replica.DeepVerify(); err != nil {
		t.Fatalf("replica DeepVerify: %v", err)
	}
}

// TestReceiveTailRebaseOnSeal pushes tail records ahead of the seal and
// then ships the sealed segment: the seal must replace the covered tail
// records and re-base the remainder, with nothing lost.
func TestReceiveTailRebaseOnSeal(t *testing.T) {
	t.Parallel()
	f := newTailFixture(t, 4)
	records := seedVault(t, f.realm, f.v, 10) // seals segments 1..2, tail 9..10

	if _, err := f.rs.ReceiveTail(sourceOrg, records); err != nil {
		t.Fatal(err)
	}
	shipAll(t, f.v, f.rs)
	if got, err := f.rs.LastSealed(sourceOrg); err != nil || got != 2 {
		t.Fatalf("LastSealed = %d, %v; want 2", got, err)
	}
	// The acknowledgement covers the re-based tail records too.
	if got, err := f.rs.AckedSeq(sourceOrg); err != nil || got != 10 {
		t.Fatalf("AckedSeq after seals = %d, %v; want 10", got, err)
	}
	// Records 9 and 10 live in the re-based tail file (segment 3).
	replica, err := vault.Open(f.rs.Dir(sourceOrg), f.realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if got := replica.Len(); got != 10 {
		t.Fatalf("replica Len = %d, want 10", got)
	}
	if err := replica.DeepVerify(); err != nil {
		t.Fatalf("replica DeepVerify: %v", err)
	}
}

// TestReceiveTailDiscardsTornFile corrupts the tail file on disk: a
// fresh replica set must discard it (the source re-pushes) instead of
// refusing service.
func TestReceiveTailDiscardsTornFile(t *testing.T) {
	t.Parallel()
	f := newTailFixture(t, 100)
	records := seedVault(t, f.realm, f.v, 4)
	if _, err := f.rs.ReceiveTail(sourceOrg, records); err != nil {
		t.Fatal(err)
	}
	// Tear the tail file mid-frame.
	path := filepath.Join(f.rs.Dir(sourceOrg), "seg-00000001.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o600); err != nil {
		t.Fatal(err)
	}
	rs2, err := vault.OpenReplicaSet(f.rsDir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := rs2.AckedSeq(sourceOrg); err != nil || got != 0 {
		t.Fatalf("AckedSeq over torn tail = %d, %v; want 0 (discarded)", got, err)
	}
	// The source re-pushes from the acknowledged position.
	if acked, err := rs2.ReceiveTail(sourceOrg, records); err != nil || acked != 4 {
		t.Fatalf("re-push after discard = %d, %v; want 4", acked, err)
	}
}

// TestReplicaPruneAndRestore archives segments, prunes their replica
// data files, and re-installs one from the archived package: retention
// must never lose adjudicability.
func TestReplicaPruneAndRestore(t *testing.T) {
	t.Parallel()
	f := newTailFixture(t, 4)
	seedVault(t, f.realm, f.v, 17) // 4 sealed segments + 1 tail record
	shipAll(t, f.v, f.rs)

	// Keep packages around — the "archive" for this test.
	archived := map[uint64]*vault.SegmentPackage{}
	for _, e := range f.v.Manifest() {
		pkg, err := f.v.Package(e.Segment)
		if err != nil {
			t.Fatal(err)
		}
		archived[e.Segment] = pkg
	}

	// Only archived segments may be pruned; keepLast pins the newest.
	pruned, err := f.rs.Prune(sourceOrg, 1, func(seg uint64) bool { return seg != 2 })
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if len(pruned) != 2 || pruned[0] != 1 || pruned[1] != 3 {
		t.Fatalf("pruned = %v, want [1 3]", pruned)
	}
	missing, err := f.rs.PrunedSegments(sourceOrg)
	if err != nil || len(missing) != 2 {
		t.Fatalf("PrunedSegments = %v, %v", missing, err)
	}

	// The pruned replica still opens read-only and verifies its chain of
	// custody via the manifest; keyed queries still work off the kept
	// indexes.
	replicaDir := f.rs.Dir(sourceOrg)
	replica, err := vault.Open(replicaDir, f.realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatalf("open pruned replica: %v", err)
	}
	replica.Close()

	// Restore a pruned segment from the archive and read it back.
	if err := f.rs.RestoreSegment(sourceOrg, archived[1]); err != nil {
		t.Fatalf("RestoreSegment: %v", err)
	}
	missing, err = f.rs.PrunedSegments(sourceOrg)
	if err != nil || len(missing) != 1 || missing[0] != 3 {
		t.Fatalf("PrunedSegments after restore = %v, %v; want [3]", missing, err)
	}

	// A package that does not match the pinned seal is refused.
	forged := *archived[3]
	forged.Data = append([]byte{}, archived[1].Data...)
	if err := f.rs.RestoreSegment(sourceOrg, &forged); err == nil {
		t.Fatal("RestoreSegment accepted a package not matching the seal chain")
	}
	// Out-of-history segments are refused.
	bogus := *archived[2]
	bogus.Entry.Segment = 9
	if err := f.rs.RestoreSegment(sourceOrg, &bogus); !errors.Is(err, vault.ErrReplicaGap) {
		t.Fatalf("RestoreSegment out of history: err = %v, want ErrReplicaGap", err)
	}
}

// TestSizesIgnoreZeroTail: zeroes past the tail's records — space the
// filesystem holds beyond the bytes the vault wrote, here made with
// os.Truncate — are not record bytes: Sizes reports the tail as the
// records the vault holds, and the sealed segments as before.
func TestSizesIgnoreZeroTail(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v, err := vault.Open(dir, realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	seedVault(t, realm, v, 10)
	before, err := v.Sizes()
	if err != nil {
		t.Fatal(err)
	}
	tail := filepath.Join(dir, "seg-00000003.log")
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, fi.Size()+1<<16); err != nil {
		t.Fatal(err)
	}
	after, err := v.Sizes()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 3 || !reflect.DeepEqual(after, before) {
		t.Fatalf("Sizes over a zero tail = %+v, want %+v", after, before)
	}
	if got := after[2]; got.Sealed || got.Records != 2 || got.SegmentBytes != fi.Size() {
		t.Fatalf("tail = %+v, want 2 records in %d bytes", got, fi.Size())
	}
	// Put the file back as the vault wrote it, so Close leaves a vault
	// that reopens.
	if err := os.Truncate(tail, fi.Size()); err != nil {
		t.Fatal(err)
	}
}
