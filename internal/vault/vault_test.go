package vault_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

const org = id.Party("urn:org:a")

func newToken(t testing.TB, realm *testpki.Realm, run id.Run, step int) *evidence.Token {
	t.Helper()
	tok, err := realm.Party(org).Issuer.Issue(evidence.KindNRO, run, step, sig.Sum([]byte(fmt.Sprintf("content-%d", step))))
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

func openVault(t testing.TB, dir string, opts ...vault.Option) *vault.Vault {
	t.Helper()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(dir, realm.Clock, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestVaultLogContract exercises the store.Log contract the protocols
// depend on: append, Len, queries by run, by transaction and of the
// whole log, VerifyChain.
func TestVaultLogContract(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	var log store.Log = v

	runA, runB := id.NewRun(), id.NewRun()
	for i := 1; i <= 3; i++ {
		if _, err := log.Append(store.Generated, newToken(t, realm, runA, i), "sent"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := log.Append(store.Received, newToken(t, realm, runB, 1), "recv"); err != nil {
		t.Fatal(err)
	}
	txn := id.NewTxn()
	tok, err := realm.Party(org).Issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("x")), evidence.WithTxn(txn))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(store.Generated, tok, ""); err != nil {
		t.Fatal(err)
	}

	if log.Len() != 5 {
		t.Fatalf("Len = %d, want 5", log.Len())
	}
	if got := len(testpki.Query(t, log, store.Query{Run: runA})); got != 3 {
		t.Fatalf("ByRun(A) = %d records, want 3", got)
	}
	if got := len(testpki.Query(t, log, store.Query{Txn: txn})); got != 1 {
		t.Fatalf("ByTxn = %d records, want 1", got)
	}
	recs := testpki.Query(t, log, store.Query{})
	if len(recs) != 5 {
		t.Fatalf("Records = %d, want 5", len(recs))
	}
	if err := store.VerifyRecords(recs); err != nil {
		t.Fatalf("VerifyRecords: %v", err)
	}
	if err := log.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	if _, err := log.Append(store.Generated, nil, ""); err == nil {
		t.Fatal("Append(nil) succeeded")
	}
}

// TestVaultRotationAndReopen drives the log across several seals and
// checks that everything survives a clean close and reopen.
func TestVaultRotationAndReopen(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(4))
	run := id.NewRun()
	for i := 1; i <= 10; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}
	st := v.Stats()
	if st.Segments != 2 || st.TailRecords != 2 || st.LastSeq != 10 {
		t.Fatalf("Stats = %+v, want 2 sealed segments, 2 tail records, seq 10", st)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	re := openVault(t, dir, vault.WithSegmentRecords(4))
	defer re.Close()
	if re.Len() != 10 {
		t.Fatalf("reopened Len = %d, want 10", re.Len())
	}
	if err := re.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify after reopen: %v", err)
	}
	if _, err := re.Append(store.Received, newToken(t, realm, run, 11), ""); err != nil {
		t.Fatal(err)
	}
	if got := len(re.ByRun(run)); got != 11 {
		t.Fatalf("ByRun = %d, want 11", got)
	}
	if err := re.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify after continued append: %v", err)
	}
}

// TestVaultGroupCommitConcurrent hammers Append from many goroutines; the
// committer must serialise them into one intact chain.
func TestVaultGroupCommitConcurrent(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v := openVault(t, t.TempDir(), vault.WithSegmentRecords(64))
	defer v.Close()

	const goroutines, each = 32, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run := id.NewRun()
			for i := 1; i <= each; i++ {
				if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v.Len() != goroutines*each {
		t.Fatalf("Len = %d, want %d", v.Len(), goroutines*each)
	}
	if err := v.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify: %v", err)
	}
	seen := make(map[uint64]bool)
	for _, rec := range testpki.Query(t, v, store.Query{}) {
		if seen[rec.Seq] {
			t.Fatalf("duplicate seq %d", rec.Seq)
		}
		seen[rec.Seq] = true
	}
}

// TestVaultKillAndReopen simulates a crash and recovery. Group commits
// are fsynced before acknowledgement and Close writes zero additional
// bytes, so the on-disk state after Close is byte-identical to the state
// after a kill — Close here only releases the in-process flock so the
// "restarted" vault can take it.
func TestVaultKillAndReopen(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(3))
	run := id.NewRun()
	for i := 1; i <= 8; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}
	// While the vault is open, a second opener must be refused: recovery
	// truncates and appends rewrite the active segment, so two openers
	// would corrupt the log.
	if _, err := vault.Open(dir, realm.Clock, vault.WithSegmentRecords(3)); !errors.Is(err, vault.ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
	if err := v.Close(); err != nil { // releases the flock; disk state == crash state
		t.Fatal(err)
	}

	re := openVault(t, dir, vault.WithSegmentRecords(3))
	defer re.Close()
	if re.Len() != 8 {
		t.Fatalf("recovered Len = %d, want 8", re.Len())
	}
	if err := re.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify after crash: %v", err)
	}
	if _, err := re.Append(store.Generated, newToken(t, realm, run, 9), ""); err != nil {
		t.Fatal(err)
	}
	if err := re.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify after post-crash append: %v", err)
	}
}

// TestVaultTornTailTruncated writes garbage half-record to the unsealed
// tail (a torn final write) and expects reopen to keep the verified
// prefix and continue the chain.
func TestVaultTornTailTruncated(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(4))
	run := id.NewRun()
	for i := 1; i <= 6; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// Segment 2 is the tail (records 5, 6); tear its last write.
	tail := filepath.Join(dir, "seg-00000002.log")
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":7,"prev":"dead`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openVault(t, dir, vault.WithSegmentRecords(4))
	defer re.Close()
	if re.Len() != 6 {
		t.Fatalf("recovered Len = %d, want 6", re.Len())
	}
	if _, err := re.Append(store.Generated, newToken(t, realm, run, 7), ""); err != nil {
		t.Fatal(err)
	}
	if err := re.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify after torn-tail recovery: %v", err)
	}
}

// TestVaultSealedTamperDetected corrupts a sealed segment on disk: the
// fast open must still succeed (it only replays the tail), and DeepVerify
// must flag the broken seal.
func TestVaultSealedTamperDetected(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(3))
	run := id.NewRun()
	for i := 1; i <= 7; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	sealed := filepath.Join(dir, "seg-00000001.log")
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] == '"' && i > len(data)/2 {
			data[i+1] ^= 0x01
			break
		}
	}
	if err := os.WriteFile(sealed, data, 0o600); err != nil {
		t.Fatal(err)
	}

	re := openVault(t, dir, vault.WithSegmentRecords(3))
	defer re.Close()
	if err := re.DeepVerify(); !errors.Is(err, vault.ErrSealBroken) && !errors.Is(err, store.ErrChainBroken) {
		t.Fatalf("DeepVerify = %v, want seal/chain broken", err)
	}
}

// TestVaultReadOnly opens a vault for audit: queries and DeepVerify work,
// appends are refused, nothing on disk changes (no sealing with a smaller
// segment size, no lock file churn), and a live writer excludes it.
func TestVaultReadOnly(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(100))
	run := id.NewRun()
	for i := 1; i <= 10; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}

	// A read-only open while the writer lives must be excluded.
	if _, err := vault.Open(dir, realm.Clock, vault.WithReadOnly()); !errors.Is(err, vault.ErrLocked) {
		t.Fatalf("read-only open of live vault = %v, want ErrLocked", err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Tiny segment size: a writable open would seal the 10-record tail;
	// read-only must not.
	ro, err := vault.Open(dir, realm.Clock, vault.WithReadOnly(), vault.WithSegmentRecords(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.Append(store.Generated, newToken(t, realm, run, 11), ""); !errors.Is(err, vault.ErrReadOnly) {
		t.Fatalf("Append on read-only vault = %v, want ErrReadOnly", err)
	}
	if got := len(ro.ByRun(run)); got != 10 {
		t.Fatalf("ByRun = %d records, want 10", got)
	}
	if err := ro.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify read-only: %v", err)
	}
	if st := ro.Stats(); st.Segments != 0 || st.TailRecords != 10 {
		t.Fatalf("read-only open re-sealed the tail: %+v", st)
	}

	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("read-only open changed the directory: %d -> %d entries", len(before), len(after))
	}

	// A missing directory must be refused, not created.
	if _, err := vault.Open(filepath.Join(dir, "no-such"), realm.Clock, vault.WithReadOnly()); err == nil {
		t.Fatal("read-only open conjured a vault at a missing path")
	}
}

// TestVaultTamperedRecordNotServed edits an unsigned field (the note) of
// a sealed record on disk; keyed queries and scans must refuse to serve
// it rather than present tampered evidence as authentic.
func TestVaultTamperedRecordNotServed(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(3))
	run := id.NewRun()
	for i := 1; i <= 7; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), "note"); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// Same-length edit of a record body in sealed segment 1, leaving the
	// stored hash, the index and the manifest untouched.
	sealed := filepath.Join(dir, "seg-00000001.log")
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	// The note travels as a length-prefixed string in binary frames
	// ("\x04note"); swap it for an equal-length value so only the record
	// content changes, never the frame structure.
	patched := []byte(strings.Replace(string(data), "\x04note", "\x04evil", 1))
	if len(patched) != len(data) {
		t.Fatal("test setup: patch changed file length")
	}
	if string(patched) == string(data) {
		t.Fatal("test setup: patch did not apply")
	}
	if err := os.WriteFile(sealed, patched, 0o600); err != nil {
		t.Fatal(err)
	}

	re := openVault(t, dir, vault.WithSegmentRecords(3))
	defer re.Close()
	if _, err := re.QueryAll(vault.Query{Run: run}); !errors.Is(err, vault.ErrSealBroken) && !errors.Is(err, store.ErrChainBroken) {
		t.Fatalf("keyed query on tampered segment = %v, want seal/chain broken", err)
	}
	if _, err := re.QueryAll(vault.Query{}); !errors.Is(err, vault.ErrSealBroken) && !errors.Is(err, store.ErrChainBroken) {
		t.Fatalf("scan query on tampered segment = %v, want seal/chain broken", err)
	}
}

// TestVaultIndexTamperHealed edits a sealed segment's index file to hide
// a run's posting list. The pinned index digest in the manifest must
// catch it and the next open must rebuild the true index from the
// records, so keyed queries cannot be silently blinded.
func TestVaultIndexTamperHealed(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(3))
	run := id.NewRun()
	for i := 1; i <= 7; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// Blind the index: point the run's posting list in segment 1's index
	// at a different key, leaving the embedded (correctly sealed) entry
	// and every other byte untouched.
	idxFile := filepath.Join(dir, "seg-00000001.idx")
	data, err := os.ReadFile(idxFile)
	if err != nil {
		t.Fatal(err)
	}
	key := canon.AppendPackedID(nil, string(run))
	at := bytes.LastIndex(data, key)
	if at < 0 {
		t.Fatal("test setup: run key not found in the index")
	}
	data[at+len(key)-1] ^= 0xFF
	if err := os.WriteFile(idxFile, data, 0o600); err != nil {
		t.Fatal(err)
	}

	re := openVault(t, dir, vault.WithSegmentRecords(3))
	defer re.Close()
	if got := len(re.ByRun(run)); got != 7 {
		t.Fatalf("ByRun after index tamper = %d records, want 7 (index not rebuilt)", got)
	}
	if err := re.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify after index rebuild: %v", err)
	}
}

// TestVaultManifestTamperDetected rewrites a manifest entry; the seal
// chain must refuse to open.
func TestVaultManifestTamperDetected(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(2))
	run := id.NewRun()
	for i := 1; i <= 5; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	manifest := filepath.Join(dir, "MANIFEST")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	tampered := []byte(string(data))
	for i := range tampered {
		if tampered[i] == ':' {
			// Bump the first numeric field of the first entry.
			tampered[i+1] = '9'
			break
		}
	}
	if err := os.WriteFile(manifest, tampered, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := vault.Open(dir, realm.Clock, vault.WithSegmentRecords(2)); err == nil {
		t.Fatal("Open accepted tampered manifest")
	}
}

// TestVaultQueryEngine exercises the audit query engine: indexed lookups
// across sealed segments, filters, time bounds, limits and streaming.
func TestVaultQueryEngine(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v := openVault(t, t.TempDir(), vault.WithSegmentRecords(4))
	defer v.Close()

	txn := id.NewTxn()
	var txnRuns []id.Run
	for i := 1; i <= 20; i++ {
		var tok *evidence.Token
		var err error
		if i%5 == 0 {
			run := id.NewRun()
			txnRuns = append(txnRuns, run)
			tok, err = realm.Party(org).Issuer.Issue(evidence.KindNRR, run, i, sig.Sum([]byte(fmt.Sprintf("c%d", i))), evidence.WithTxn(txn))
		} else {
			tok, err = realm.Party(org).Issuer.Issue(evidence.KindNRO, id.NewRun(), i, sig.Sum([]byte(fmt.Sprintf("c%d", i))))
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Append(store.Generated, tok, ""); err != nil {
			t.Fatal(err)
		}
	}

	// Indexed transaction lookup spanning sealed segments and the tail.
	byTxn, err := v.QueryAll(vault.Query{Txn: txn})
	if err != nil {
		t.Fatal(err)
	}
	if len(byTxn) != 4 {
		t.Fatalf("Query{Txn} = %d records, want 4", len(byTxn))
	}
	for i := 1; i < len(byTxn); i++ {
		if byTxn[i].Seq <= byTxn[i-1].Seq {
			t.Fatal("query results out of log order")
		}
	}

	// Kind + party intersection.
	byKind, err := v.QueryAll(vault.Query{Kind: evidence.KindNRR, Party: org})
	if err != nil {
		t.Fatal(err)
	}
	if len(byKind) != 4 {
		t.Fatalf("Query{Kind,Party} = %d records, want 4", len(byKind))
	}

	// Limit streams only the first N.
	limited, err := v.QueryAll(vault.Query{Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 7 {
		t.Fatalf("Query{Limit: 7} = %d records, want 7", len(limited))
	}

	// Time bounds around the middle of the log.
	all := testpki.Query(t, v, store.Query{})
	mid := all[9].At
	bounded, err := v.QueryAll(vault.Query{From: mid})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range bounded {
		if rec.At.Before(mid) {
			t.Fatalf("record %d outside time bound", rec.Seq)
		}
	}

	// Streaming iteration visits every record exactly once.
	it := v.Query(vault.Query{})
	count := 0
	for it.Next() {
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Fatalf("full stream = %d records, want 20", count)
	}

	// A run query on a fresh run finds nothing.
	none, err := v.QueryAll(vault.Query{Run: id.NewRun()})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("Query{unknown run} = %d records, want 0", len(none))
	}
}

// TestVaultOnCommitDeliversBatches: every committed record reaches the
// commit hooks, in chain order, after it is durable — the contract the
// live subscription plane is built on — and a cancelled hook stops
// receiving.
func TestVaultOnCommitDeliversBatches(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	var mu sync.Mutex
	var seen []uint64
	cancel := v.OnCommit(func(recs []*store.Record) {
		mu.Lock()
		for _, r := range recs {
			seen = append(seen, r.Seq)
		}
		mu.Unlock()
	})
	run := id.NewRun()
	for i := 1; i <= 10; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}
	// Append blocks until the batch is durable, and hooks fire before the
	// waiters wake, so all 10 must be visible now.
	mu.Lock()
	got := append([]uint64(nil), seen...)
	mu.Unlock()
	if len(got) != 10 {
		t.Fatalf("commit hook saw %d records, want 10", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("commit hook order: position %d has seq %d", i, seq)
		}
	}
	cancel()
	if _, err := v.Append(store.Generated, newToken(t, realm, run, 11), ""); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	after := len(seen)
	mu.Unlock()
	if after != 10 {
		t.Fatalf("cancelled hook still receiving: saw %d records", after)
	}
}

// TestVaultAppendAsyncSync: async appends ride a later group commit in
// enqueue order, and Sync is a durability barrier for everything
// enqueued before it.
func TestVaultAppendAsyncSync(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v, err := vault.Open(dir, realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	run := id.NewRun()
	for i := 1; i <= 5; i++ {
		if err := v.AppendAsync(store.Generated, newToken(t, realm, run, i), "async"); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := v.QueryAll(vault.Query{Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("after Sync: %d records visible, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.Token.Step != i+1 {
			t.Fatalf("async order: position %d has step %d", i, rec.Token.Step)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the acknowledged barrier means the records are on disk.
	v2 := openVault(t, dir)
	defer v2.Close()
	recs, err = v2.QueryAll(vault.Query{Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("after reopen: %d records, want 5", len(recs))
	}
	if err := v2.DeepVerify(); err != nil {
		t.Fatal(err)
	}
}

// TestVaultHealth: the /healthz check reports the vault's shape, and the
// seal-chain head once a segment is sealed.
func TestVaultHealth(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v, err := vault.Open(t.TempDir(), realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if h := v.Health().(map[string]any); h["last_seq"] != uint64(0) || h["seal_head"] != nil {
		t.Fatalf("empty vault health = %v", h)
	}
	run := id.NewRun()
	for i := 1; i <= 6; i++ {
		if _, err := v.Append(store.Generated, newToken(t, realm, run, i), ""); err != nil {
			t.Fatal(err)
		}
	}
	h := v.Health().(map[string]any)
	m := v.Manifest()
	if len(m) != 1 {
		t.Fatalf("sealed %d segments, want 1", len(m))
	}
	want := map[string]any{"segments": 1, "sealed_records": uint64(4), "tail_records": 2, "last_seq": uint64(6), "seal_head": m[0].Digest}
	if fmt.Sprint(h) != fmt.Sprint(want) {
		t.Fatalf("health = %v, want %v", h, want)
	}
}

// TestInvalidUTF8TokenNeverBricksVault: a token whose identifiers are not
// valid UTF-8 is refused at issue and at append, so no record the
// decoders refuse reaches disk, and the vault reopens with everything it
// accepted.
func TestInvalidUTF8TokenNeverBricksVault(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	issuer := realm.Party(org).Issuer
	d := sig.Sum([]byte("content"))
	if _, err := issuer.Issue(evidence.KindNRO, "run-\xff", 1, d, evidence.WithService("svc\xfe")); err == nil {
		t.Fatal("Issue signed a token whose run and service are not valid UTF-8")
	}
	dir := t.TempDir()
	v := openVault(t, dir)
	if _, err := v.Append(store.Generated, newToken(t, realm, id.NewRun(), 1), "before"); err != nil {
		t.Fatal(err)
	}
	bad := *newToken(t, realm, id.NewRun(), 1)
	bad.Run, bad.Service = "run-\xff", "svc\xfe"
	if _, err := v.Append(store.Received, &bad, "hostile"); err == nil || !strings.Contains(err.Error(), "UTF-8") {
		t.Fatalf("Append of a token with invalid UTF-8 identifiers: error %v, want a UTF-8 refusal", err)
	}
	if _, err := v.Append(store.Generated, newToken(t, realm, id.NewRun(), 2), "after"); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v = openVault(t, dir)
	defer v.Close()
	if v.Len() != 2 {
		t.Fatalf("reopened vault holds %d records, want 2", v.Len())
	}
	if err := v.VerifyChain(); err != nil {
		t.Fatal(err)
	}
}
