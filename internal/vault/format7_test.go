package vault_test

import (
	"maps"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/clock"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// interleavedRuns is a client's evidence of two pipelined calls whose
// steps interleave: both requests' origins, then each run's reply pair —
// the receipt and the response origin under one batch signature, the
// first response origin with its snapshot journaled as a structured
// note — and last both receipts.
func interleavedRuns(t *testing.T, realm *testpki.Realm) []store.Entry {
	t.Helper()
	runs := []id.Run{id.NewRun(), id.NewRun()}
	var origins, replies [2][]store.Entry
	for i, run := range runs {
		nro, err := realm.Party(peerOrg).Issuer.Issue(evidence.KindNRO, run, 1, sig.Sum([]byte("request")),
			evidence.WithRecipients(org), evidence.WithService("urn:org:a/orders"))
		if err != nil {
			t.Fatal(err)
		}
		origins[i] = []store.Entry{{Dir: store.Generated, Token: nro, Note: "request origin"}}
		replies[i] = pairedGroup(t, realm, run, false)
	}
	note, err := canon.Marshal(evidence.ResponseSnapshot{Run: runs[0], Server: org, Status: evidence.StatusOK,
		RequestDigest: replies[0][0].Token.Digest})
	if err != nil {
		t.Fatal(err)
	}
	replies[0][1].Note = string(note)
	return []store.Entry{origins[0][0], origins[1][0], replies[0][0], replies[0][1], replies[1][0], replies[1][1], replies[0][2], replies[1][2]}
}

// TestSegmentBytesIndependentOfCommits: a record's frame does not depend
// on how appends were grouped into commits. The same records appended one
// per commit, two per commit and all in one group leave byte-identical
// segment, index and manifest files: every frame after a run's first
// leans on it, from the same commit or an earlier one, and each response
// origin borrows its receipt's signature. A request the committer refuses
// half-staged in the middle of a batch lends nothing to the requests after
// it: the vault reopens, verifies and serves every run by key.
func TestSegmentBytesIndependentOfCommits(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org, peerOrg)
	entries := interleavedRuns(t, realm)
	t0 := time.Date(2026, 10, 17, 9, 0, 0, 0, time.UTC)
	var want map[string]string
	for _, per := range []int{1, 2, len(entries)} {
		dir := t.TempDir()
		v, err := vault.Open(dir, clock.NewManual(t0), vault.WithSegmentRecords(len(entries)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(entries); i += per {
			if _, err := v.AppendGroup(entries[i:min(i+per, len(entries))]); err != nil {
				t.Fatal(err)
			}
		}
		sizes, err := v.Sizes()
		if err != nil || len(sizes) == 0 || !sizes[0].Sealed {
			t.Fatalf("%d per commit: Sizes = %+v, err %v", per, sizes, err)
		}
		s := sizes[0]
		if s.Format != "binary" || s.Records != len(entries) || s.Followers != len(entries)-2 || s.SigBorrowers != 2 ||
			s.Kinds[evidence.KindNROResp].NoteBytes[store.NoteStructured] == 0 {
			t.Fatalf("%d per commit: segment reported as %+v, want two plain frames, two signature borrowers and a structured note", per, s)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		got := dirDigests(t, dir)
		if want == nil {
			want = got
		} else if !maps.Equal(got, want) {
			t.Fatalf("%d per commit: the vault's files differ from one per commit:\n got %v\nwant %v", per, got, want)
		}
	}

	// The committer held after a run's first record while four requests
	// queue: the other run's first record, a group whose second entry it
	// refuses after staging the first — a plain frame of a third run — then
	// a record of that run and one of the first.
	dir := t.TempDir()
	v, err := vault.Open(dir, clock.NewManual(t0))
	if err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	var commits [][]*store.Record
	v.OnCommit(func(recs []*store.Record) {
		commits = append(commits, recs)
		if len(commits) == 1 {
			close(held)
			<-release
		}
	})
	enqueue := func(e store.Entry) {
		t.Helper()
		if err := v.AppendAsync(e.Dir, e.Token, e.Note); err != nil {
			t.Fatal(err)
		}
	}
	enqueue(entries[0])
	<-held
	third := id.NewRun()
	issue := func(step int) *evidence.Token {
		tok, err := realm.Party(peerOrg).Issuer.Issue(evidence.KindNRO, third, step, sig.Sum([]byte("other")), evidence.WithRecipients(org))
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	enqueue(entries[1])
	refused := make(chan error, 1)
	go func() {
		_, err := v.AppendGroup([]store.Entry{
			{Dir: store.Generated, Token: issue(1), Note: "request origin"},
			{Dir: store.Direction("\xff"), Token: issue(2), Note: "refused"},
		})
		refused <- err
	}()
	for v.Queued() < 2 {
		time.Sleep(time.Millisecond)
	}
	enqueue(store.Entry{Dir: store.Generated, Token: issue(3), Note: "request origin"})
	enqueue(entries[2])
	close(release)
	if err := <-refused; err == nil {
		t.Fatal("a group with an entry of invalid UTF-8 was committed")
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(commits) != 2 || len(commits[1]) != 3 {
		t.Fatalf("%d commits, want one record, then the three the committer kept of the four requests", len(commits))
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	re := openVault(t, dir, vault.WithReadOnly())
	defer re.Close()
	if err := re.DeepVerify(); err != nil {
		t.Fatal(err)
	}
	byRun := make(map[id.Run][]*store.Record)
	for _, recs := range commits {
		for _, rec := range recs {
			byRun[rec.Token.Run] = append(byRun[rec.Token.Run], rec)
		}
	}
	for run, want := range byRun {
		got, err := re.QueryAll(vault.Query{Run: run})
		if err != nil {
			t.Fatalf("keyed read of run %s: %v", run, err)
		}
		sameRecords(t, "keyed read of "+string(run), want, got)
	}
}
