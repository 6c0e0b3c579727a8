package vault

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/clock"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/store"
)

// TestCloseFlushesPendingSealNotifications: a seal still sitting in
// pendingSeals when the committer stops must reach the OnSeal hooks
// during Close — the old Close tore the vault down without a final
// notify pass, so the replicator missed the last segment until the next
// status catch-up.
func TestCloseFlushesPendingSealNotifications(t *testing.T) {
	t.Parallel()
	v, err := Open(t.TempDir(), clock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	var sealed, committed atomic.Int64
	v.OnSeal(func(ManifestEntry) { sealed.Add(1) })
	v.OnCommit(func(recs []*store.Record) { committed.Add(int64(len(recs))) })
	// Seed an undelivered notification of each kind, as if the committer
	// had published but stopped before its notify pass.
	v.mu.Lock()
	v.pendingSeals = append(v.pendingSeals, ManifestEntry{Segment: 1, FirstSeq: 1, LastSeq: 1})
	v.pendingCommits = append(v.pendingCommits, []*store.Record{{Seq: 1}})
	v.mu.Unlock()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sealed.Load(); got != 1 {
		t.Fatalf("seal hook calls after Close = %d, want 1", got)
	}
	if got := committed.Load(); got != 1 {
		t.Fatalf("commit hook records after Close = %d, want 1", got)
	}
}

// TestReplicaDoctoredManifestNumbering: manifest entry digests are
// unsigned self-hashes, so an attacker with disk access can write a
// chain-consistent manifest with arbitrary segment numbering. The load
// must reject it (sequential-from-1 is the invariant Receive's duplicate
// lookup indexes on) — and a subsequent Receive must error, never panic.
func TestReplicaDoctoredManifestNumbering(t *testing.T) {
	t.Parallel()
	rs, err := OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const source = "urn:org:victim"
	dir := rs.Dir(source)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	e := ManifestEntry{Segment: 100, FirstSeq: 1, LastSeq: 4}
	d, err := e.computeDigest()
	if err != nil {
		t.Fatal(err)
	}
	e.Digest = d
	line, err := canon.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), append(line, '\n'), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.LastSealed(source); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("doctored manifest load: err = %v, want ErrSealBroken", err)
	}
	// And the ship path (which takes the duplicate branch for segment
	// numbers <= the claimed last) must refuse, not panic.
	if err := rs.Receive(source, &SegmentPackage{Entry: ManifestEntry{Segment: 5}}); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("Receive against doctored manifest: err = %v, want ErrSealBroken", err)
	}
}

// TestVaultFailedGroupLeavesDecodableFile: a request that fails in the
// middle of a commit — after frames of it were staged behind a leader —
// is dropped from the write whole, and the frames written after it lean
// on nothing that was dropped: the next frame of the commit is plain even
// though it continues the leader's run, and every frame of the file
// decodes.
func TestVaultFailedGroupLeavesDecodableFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	v, err := Open(dir, clock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	group := func(run id.Run) []store.Entry {
		entries := make([]store.Entry, 3)
		for i := range entries {
			entries[i] = store.Entry{Dir: store.Generated, Note: "request origin", Token: &evidence.Token{
				Kind: evidence.KindNRO, Run: run, Step: i + 1, Issuer: "urn:org:a", IssuedAt: time.Unix(1754600000, 0).UTC()}}
		}
		return entries
	}
	// Hold the committer inside its first commit's hook until the three
	// requests below are queued, in order, so they share the second commit.
	held, queued := make(chan struct{}), make(chan struct{})
	first := true
	v.OnCommit(func([]*store.Record) {
		if first {
			first = false
			close(held)
			<-queued
		}
	})
	opener := make(chan error, 1)
	go func() {
		_, err := v.AppendGroup(group("run-00"))
		opener <- err
	}()
	<-held
	bad := group("run-01")
	bad[2].Token = nil // two frames staged — a leader's followers — then the failure
	type result struct {
		recs []*store.Record
		err  error
	}
	results := make([]chan result, 3)
	for i, entries := range [][]store.Entry{group("run-01"), bad, group("run-01")} {
		results[i] = make(chan result, 1)
		go func(c chan result) {
			recs, err := v.AppendGroup(entries)
			c <- result{recs, err}
		}(results[i])
		for len(v.appendC) <= i {
			time.Sleep(time.Millisecond)
		}
	}
	close(queued)
	if err := <-opener; err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for i, c := range results {
		r := <-c
		if (r.err != nil) != (i == 1) {
			t.Fatalf("group %d: err %v", i, r.err)
		}
		for _, rec := range r.recs {
			want = append(want, rec.Seq)
		}
	}
	if len(want) != 6 || want[0] != 4 || want[5] != 9 {
		t.Fatalf("the good groups took seqs %v, want 4..9", want)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	var followers []bool
	off := int64(store.SegmentHeaderLen)
	if _, prefix, torn, err := store.DecodeSegmentData(data, func(rec *store.Record, n int64) error {
		if rec.Seq != uint64(len(followers)+1) {
			t.Fatalf("frame %d holds record %d", len(followers), rec.Seq)
		}
		followers = append(followers, data[off+1]&0x80 != 0) // one-byte length prefix, then the flags
		off += n
		return nil
	}); err != nil || torn || prefix != int64(len(data)) {
		t.Fatalf("the file after a failed group: read to %d of %d, torn=%v err=%v", prefix, len(data), torn, err)
	}
	// Per commit: a leader and two followers; the same; the failed group's
	// frames gone; then a plain frame of the same run and its followers.
	wantFollowers := []bool{false, true, true, false, true, true, false, true, true}
	if len(followers) != len(wantFollowers) {
		t.Fatalf("file holds %d frames, want %d", len(followers), len(wantFollowers))
	}
	for i, want := range wantFollowers {
		if followers[i] != want {
			t.Fatalf("frame %d: follower=%v, want %v (all: %v)", i, followers[i], want, followers)
		}
	}
	re, err := Open(dir, clock.Real{}, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.DeepVerify(); err != nil {
		t.Fatal(err)
	}
	if got := re.ByRun("run-01"); len(got) != 6 {
		t.Fatalf("ByRun = %d records, want 6", len(got))
	}
}
