package vault_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nonrep/internal/id"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// groupOf builds n entries for run, steps from..from+n-1.
func groupOf(t testing.TB, realm *testpki.Realm, run id.Run, from, n int) []store.Entry {
	t.Helper()
	entries := make([]store.Entry, n)
	for i := range entries {
		entries[i] = store.Entry{Dir: store.Generated, Token: newToken(t, realm, run, from+i), Note: "grouped"}
	}
	return entries
}

// commitWidths subscribes to v's commits and returns a func reporting the
// record count of every commit seen so far.
func commitWidths(v *vault.Vault) func() []int {
	var mu sync.Mutex
	var widths []int
	v.OnCommit(func(recs []*store.Record) {
		mu.Lock()
		widths = append(widths, len(recs))
		mu.Unlock()
	})
	return func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), widths...)
	}
}

// TestVaultAppendGroupIsOneCommit: a group arriving at an idle committer
// — the case where the drain loop would otherwise pick up the first
// record alone — is still one commit: one hook callback carrying every
// record, contiguous sequence numbers in slice order.
func TestVaultAppendGroupIsOneCommit(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v := openVault(t, t.TempDir())
	defer v.Close()
	widths := commitWidths(v)
	run := id.NewRun()

	for round := 0; round < 5; round++ {
		time.Sleep(2 * time.Millisecond) // let the committer go idle
		recs, err := v.AppendGroup(groupOf(t, realm, run, round*3+1, 3))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3 {
			t.Fatalf("round %d: %d records returned, want 3", round, len(recs))
		}
		for i, rec := range recs {
			if want := uint64(round*3 + i + 1); rec.Seq != want {
				t.Fatalf("round %d: record %d has seq %d, want %d", round, i, rec.Seq, want)
			}
			if rec.Token.Step != round*3+i+1 {
				t.Fatalf("round %d: record %d holds step %d: slice order lost", round, i, rec.Token.Step)
			}
		}
	}
	got := widths()
	if len(got) != 5 {
		t.Fatalf("5 groups made %d commits (%v), want 5", len(got), got)
	}
	for i, w := range got {
		if w != 3 {
			t.Fatalf("commit %d carried %d records, want the whole group of 3 (%v)", i, w, got)
		}
	}
	if recs, err := v.AppendGroup(nil); err != nil || recs != nil {
		t.Fatalf("empty group = (%v, %v), want (nil, nil)", recs, err)
	}
	if err := v.DeepVerify(); err != nil {
		t.Fatal(err)
	}
}

// TestVaultAppendGroupNeverSplitUnderLoad: whatever else is queueing —
// blocking appends, async appends, other groups — no commit ever holds
// part of a group, and every caller's records are contiguous.
func TestVaultAppendGroupNeverSplitUnderLoad(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	// maxBatch 2 makes the committer cut batches as often as it can.
	v := openVault(t, t.TempDir(), vault.WithMaxBatch(2))
	defer v.Close()
	var mu sync.Mutex
	var commits [][]*store.Record
	v.OnCommit(func(recs []*store.Record) {
		mu.Lock()
		commits = append(commits, recs)
		mu.Unlock()
	})

	const workers, rounds, width = 4, 20, 4
	groupRun := make([]id.Run, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		groupRun[w] = id.NewRun()
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				recs, err := v.AppendGroup(groupOf(t, realm, groupRun[w], r*width+1, width))
				if err != nil {
					t.Error(err)
					return
				}
				for i := 1; i < len(recs); i++ {
					if recs[i].Seq != recs[i-1].Seq+1 {
						t.Errorf("group of worker %d round %d is not contiguous: %d then %d", w, r, recs[i-1].Seq, recs[i].Seq)
					}
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			run := id.NewRun()
			for r := 0; r < rounds; r++ {
				if _, err := v.Append(store.Received, newToken(t, realm, run, 2*r+1), "single"); err != nil {
					t.Error(err)
					return
				}
				if err := v.AppendAsync(store.Received, newToken(t, realm, run, 2*r+2), "async"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	grouped := 0
	for _, recs := range commits {
		// Within a commit, grouped records come in whole groups: a run of
		// `width` consecutive steps of one run, starting at a group
		// boundary.
		for i := 0; i < len(recs); {
			if recs[i].Note != "grouped" {
				i++
				continue
			}
			if (recs[i].Token.Step-1)%width != 0 || i+width > len(recs) {
				t.Fatalf("commit starting at seq %d begins or ends inside a group (step %d at offset %d of %d)",
					recs[0].Seq, recs[i].Token.Step, i, len(recs))
			}
			for j := 1; j < width; j++ {
				if recs[i+j].Token.Run != recs[i].Token.Run || recs[i+j].Token.Step != recs[i].Token.Step+j {
					t.Fatalf("commit at seq %d interleaves a group", recs[0].Seq)
				}
			}
			grouped += width
			i += width
		}
	}
	if grouped != workers*rounds*width {
		t.Fatalf("hooks saw %d grouped records, want %d", grouped, workers*rounds*width)
	}
	if err := v.DeepVerify(); err != nil {
		t.Fatal(err)
	}
}

// TestVaultAppendGroupEnqueueOrder: a group takes its place among
// blocking and async appends in the order the calls were made.
func TestVaultAppendGroupEnqueueOrder(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	v := openVault(t, t.TempDir())
	defer v.Close()
	run := id.NewRun()
	if err := v.AppendAsync(store.Generated, newToken(t, realm, run, 1), "async"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.AppendGroup(groupOf(t, realm, run, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := v.AppendAsync(store.Generated, newToken(t, realm, run, 5), "async"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Append(store.Generated, newToken(t, realm, run, 6), "single"); err != nil {
		t.Fatal(err)
	}
	recs, err := v.QueryAll(vault.Query{Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("%d records, want 6", len(recs))
	}
	for i, rec := range recs {
		if rec.Token.Step != i+1 || rec.Seq != uint64(i+1) {
			t.Fatalf("position %d holds step %d seq %d: enqueue order is not commit order", i, rec.Token.Step, rec.Seq)
		}
	}
}

// TestVaultAppendGroupFailsWhole: an entry that cannot be chained fails
// every entry of its group — none of them reaches the log, the hooks or
// the disk — and the chain rewinds, so the next append takes the sequence
// number the group's first entry had briefly held.
func TestVaultAppendGroupFailsWhole(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir)
	widths := commitWidths(v)
	run := id.NewRun()
	if _, err := v.Append(store.Generated, newToken(t, realm, run, 1), ""); err != nil {
		t.Fatal(err)
	}
	bad := groupOf(t, realm, run, 2, 3)
	bad[2].Token = nil // chains two records, then fails
	if recs, err := v.AppendGroup(bad); err == nil || recs != nil {
		t.Fatalf("group with an unchainable entry = (%v, %v), want an error and no records", recs, err)
	}
	if v.Len() != 1 {
		t.Fatalf("Len = %d after a failed group, want 1", v.Len())
	}
	// A failed group sharing a commit with good requests must not take
	// them down, nor leave a hole between them.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				_, _ = v.AppendGroup(bad)
				return
			}
			if _, err := v.AppendGroup(groupOf(t, realm, id.NewRun(), 1, 2)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	rec, err := v.Append(store.Generated, newToken(t, realm, run, 2), "")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 10 {
		t.Fatalf("append after failed groups got seq %d, want 10 (1 + 4 groups of 2 + 1)", rec.Seq)
	}
	total := 0
	for _, w := range widths() {
		total += w
	}
	if total != 10 {
		t.Fatalf("commit hooks saw %d records, want 10", total)
	}
	if err := v.DeepVerify(); err != nil {
		t.Fatalf("chain after rewinds: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	re := openVault(t, dir)
	defer re.Close()
	if re.Len() != 10 {
		t.Fatalf("reopened Len = %d, want 10", re.Len())
	}
	if err := re.DeepVerify(); err != nil {
		t.Fatal(err)
	}
}

// TestVaultAppendGroupSealsAfterGroup: a group that crosses the segment
// size is not cut at the boundary — the segment seals once the whole
// group is in it.
func TestVaultAppendGroupSealsAfterGroup(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	dir := t.TempDir()
	v := openVault(t, dir, vault.WithSegmentRecords(4))
	var mu sync.Mutex
	var seals []vault.ManifestEntry
	v.OnSeal(func(e vault.ManifestEntry) {
		mu.Lock()
		seals = append(seals, e)
		mu.Unlock()
	})
	run := id.NewRun()
	if _, err := v.AppendGroup(groupOf(t, realm, run, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.AppendGroup(groupOf(t, realm, run, 4, 3)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]vault.ManifestEntry(nil), seals...)
	mu.Unlock()
	if len(got) != 1 || got[0].FirstSeq != 1 || got[0].LastSeq != 6 {
		t.Fatalf("seals = %+v, want one seal over records 1..6", got)
	}
	if st := v.Stats(); st.TailRecords != 0 || st.Segments != 1 {
		t.Fatalf("stats = %+v, want an empty tail behind one sealed segment", st)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	re := openVault(t, dir, vault.WithSegmentRecords(4))
	defer re.Close()
	if err := re.DeepVerify(); err != nil {
		t.Fatal(err)
	}
	if recs := re.ByRun(run); len(recs) != 6 {
		t.Fatalf("reopened vault serves %d records of the run, want 6", len(recs))
	}
}

// TestVaultTornGroupRecoversToPrefix: power lost inside a group's write
// leaves some whole frames and a partial one. Open keeps the whole frames
// — a prefix of the group, the state record-by-record appends leave when
// the crash falls between two of them — and the log carries on from there.
func TestVaultTornGroupRecoversToPrefix(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	run := id.NewRun()
	for keep := 0; keep <= 3; keep++ {
		dir := t.TempDir()
		v := openVault(t, dir)
		if _, err := v.Append(store.Generated, newToken(t, realm, run, 1), ""); err != nil {
			t.Fatal(err)
		}
		if _, err := v.AppendGroup(groupOf(t, realm, run, 2, 3)); err != nil {
			t.Fatal(err)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		// Frame boundaries: ends[i] is where record i+1's frame ends.
		tail := filepath.Join(dir, "seg-00000001.log")
		data, err := os.ReadFile(tail)
		if err != nil {
			t.Fatal(err)
		}
		ends := []int64{store.SegmentHeaderLen}
		if _, _, _, err := store.DecodeSegmentData(data, func(_ *store.Record, n int64) error {
			ends = append(ends, ends[len(ends)-1]+n)
			return nil
		}); err != nil || len(ends) != 5 {
			t.Fatalf("tail holds %d frames (%v), want 4", len(ends)-1, err)
		}
		// Tear: keep `keep` whole frames of the group's three and half of
		// the next.
		cut := ends[1+keep]
		if keep < 3 {
			cut += (ends[2+keep] - ends[1+keep]) / 2
		}
		if err := os.Truncate(tail, cut); err != nil {
			t.Fatal(err)
		}
		re := openVault(t, dir)
		if re.Len() != 1+keep {
			t.Fatalf("keep %d: recovered Len = %d, want %d", keep, re.Len(), 1+keep)
		}
		if _, err := re.AppendGroup(groupOf(t, realm, run, 10, 2)); err != nil {
			t.Fatalf("keep %d: group after recovery: %v", keep, err)
		}
		if err := re.DeepVerify(); err != nil {
			t.Fatalf("keep %d: %v", keep, err)
		}
		re.Close()
	}
}
