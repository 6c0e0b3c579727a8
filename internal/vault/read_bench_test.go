package vault_test

import (
	"testing"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// The read paths that verify what they serve, as benchmarks: a format
// change that moves work between the frame decoder and the chain
// verifier shows here as the sum, which is what a reader pays.

const (
	benchRecords    = 8192
	benchSegment    = 1024
	benchRunRecords = 4
)

// benchVault builds a vault of benchRecords records in runs of
// benchRunRecords, sealed into segments of segRecords, and returns its
// directory and runs.
func benchVault(b *testing.B, segRecords int) (string, []id.Run) {
	b.Helper()
	return benchVaultOf(b, segRecords, benchRunRecords)
}

// benchVaultOf is benchVault with each run a group of runRecords records
// in one commit — so all but the first of them a follower frame — and
// about benchRecords records in all.
func benchVaultOf(b *testing.B, segRecords, runRecords int) (string, []id.Run) {
	b.Helper()
	var runs []id.Run
	dir := benchVaultFill(b, segRecords, func(realm *testpki.Realm, commit func([]store.Entry)) {
		for i := 0; i < benchRecords/runRecords; i++ {
			run := id.NewRun()
			commit(benchEntries(b, realm, run, 1, runRecords))
			runs = append(runs, run)
		}
	})
	return dir, runs
}

// benchVaultFill builds a vault sealed into segments of segRecords from
// the commits fill makes, and returns its directory.
func benchVaultFill(b *testing.B, segRecords int, fill func(realm *testpki.Realm, commit func([]store.Entry))) string {
	b.Helper()
	realm := testpki.MustRealm(org)
	dir := b.TempDir()
	v, err := vault.Open(dir, realm.Clock, vault.WithSegmentRecords(segRecords), vault.WithoutSync())
	if err != nil {
		b.Fatal(err)
	}
	fill(realm, func(entries []store.Entry) {
		if _, err := v.AppendGroup(entries); err != nil {
			b.Fatal(err)
		}
	})
	if err := v.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// benchEntries is n records of run, from step on.
func benchEntries(b *testing.B, realm *testpki.Realm, run id.Run, step, n int) []store.Entry {
	entries := make([]store.Entry, n)
	for j := range entries {
		entries[j] = store.Entry{Dir: store.Generated, Token: newToken(b, realm, run, step+j), Note: "request origin"}
	}
	return entries
}

// BenchmarkVaultVerifyingScan: a full query over sealed segments — every
// record decoded, chained and held to its seal.
func BenchmarkVaultVerifyingScan(b *testing.B) {
	dir, _ := benchVault(b, benchSegment)
	v, err := vault.Open(dir, nil, vault.WithReadOnly())
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := v.QueryAll(vault.Query{})
		if err != nil || len(recs) != benchRecords {
			b.Fatalf("scan = %d records, err %v", len(recs), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRecords), "ns/record")
}

// BenchmarkVaultByRun: keyed reads over sealed segments — each record
// decoded from its indexed slot and held to the hash the seal pins. The
// runs were appended as groups of four, so since format 4 three of the
// four reads parse their leader's frame too.
func BenchmarkVaultByRun(b *testing.B) {
	dir, runs := benchVault(b, benchSegment)
	benchByRun(b, dir, runs, benchRunRecords)
}

// BenchmarkVaultByRunFollowers: the same over runs appended as groups of
// three — a protocol step's evidence: every second and third record a
// follower — reported per record, which is what compares across group
// sizes and formats.
func BenchmarkVaultByRunFollowers(b *testing.B) {
	dir, runs := benchVaultOf(b, benchSegment, 3)
	benchByRun(b, dir, runs, 3)
}

// BenchmarkVaultByRunInterleaved: keyed reads of runs whose request pair
// and response pair committed apart, as on a busy server — the next
// run's request pair between them — so a run's four records lie in two
// windows and its read decodes up to eight.
func BenchmarkVaultByRunInterleaved(b *testing.B) {
	var runs []id.Run
	dir := benchVaultFill(b, benchSegment, func(realm *testpki.Realm, commit func([]store.Entry)) {
		for i := 0; i < benchRecords/benchRunRecords; i++ {
			runs = append(runs, id.NewRun())
			commit(benchEntries(b, realm, runs[i], 1, 2))
			if i > 0 {
				commit(benchEntries(b, realm, runs[i-1], 3, 2))
			}
		}
		commit(benchEntries(b, realm, runs[len(runs)-1], 3, 2))
	})
	benchByRun(b, dir, runs, benchRunRecords)
}

// BenchmarkVaultByRunMisaligned: keyed reads of runs of four, as
// BenchmarkVaultByRun — each run's last record committed apart, which
// leaves its frame as it was — but sealed after seqs 1023, 2047, … —
// the first segment one record short of benchSegment, each later one
// benchSegment records from a run's last record — as a vault whose first
// seal closed after seq 4k+3 is, the benchmark harness's audit_read vault
// among them. Windows counted from each segment's first record put every
// run of a later segment in two windows (eight decodes); counted from the
// vault's sequence numbers, one.
func BenchmarkVaultByRunMisaligned(b *testing.B) {
	realm := testpki.MustRealm(org)
	dir := b.TempDir()
	v, err := vault.Open(dir, realm.Clock, vault.WithSegmentRecords(2*benchRecords), vault.WithoutSync())
	if err != nil {
		b.Fatal(err)
	}
	commit := func(entries []store.Entry) {
		if _, err := v.AppendGroup(entries); err != nil {
			b.Fatal(err)
		}
		if last, _ := v.LastPosition(); last%benchSegment == benchSegment-1 {
			if err := v.SealNow(); err != nil {
				b.Fatal(err)
			}
		}
	}
	var runs []id.Run
	for i := 0; i < benchRecords/benchRunRecords; i++ {
		run := id.NewRun()
		entries := benchEntries(b, realm, run, 1, benchRunRecords)
		commit(entries[:benchRunRecords-1])
		commit(entries[benchRunRecords-1:])
		runs = append(runs, run)
	}
	if err := v.SealNow(); err != nil {
		b.Fatal(err)
	}
	if err := v.Close(); err != nil {
		b.Fatal(err)
	}
	benchByRun(b, dir, runs, benchRunRecords)
}

// BenchmarkVaultByKind: a kind query over sealed segments laid out as a
// durable client's — per job a job-enqueued record, the call's four
// tokens and a job-done, the last three in one commit — asking for the
// job-enqueued records, as crash recovery does. One record in six is
// nominated, so with a windowed index most of the windows are decoded
// whole for it.
func BenchmarkVaultByKind(b *testing.B) {
	const jobRecords = 6
	kinds := [jobRecords]evidence.Kind{evidence.KindJobEnqueued, evidence.KindNRO, evidence.KindNRR,
		evidence.KindNROResp, evidence.KindNRRResp, evidence.KindJobDone}
	jobs := benchRecords / jobRecords
	dir := benchVaultFill(b, benchSegment, func(realm *testpki.Realm, commit func([]store.Entry)) {
		for i := 0; i < jobs; i++ {
			run := id.NewRun()
			var entries []store.Entry
			for step, kind := range kinds {
				tok, err := realm.Party(org).Issuer.Issue(kind, run, step+1, sig.Sum([]byte(kind)))
				if err != nil {
					b.Fatal(err)
				}
				entries = append(entries, store.Entry{Dir: store.Generated, Token: tok})
				if step < 3 {
					commit(entries)
					entries = nil
				}
			}
			commit(entries)
		}
	})
	v, err := vault.Open(dir, nil, vault.WithReadOnly())
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, err := v.QueryAll(vault.Query{Kind: evidence.KindJobEnqueued}); err != nil || len(recs) != jobs {
			b.Fatalf("kind query = %d records, err %v", len(recs), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/record")
}

func benchByRun(b *testing.B, dir string, runs []id.Run, runRecords int) {
	v, err := vault.Open(dir, nil, vault.WithReadOnly())
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs := v.ByRun(runs[i%len(runs)]); len(recs) != runRecords {
			b.Fatalf("ByRun = %d records", len(recs))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*runRecords), "ns/record")
}

// BenchmarkVaultTailReplay: Open over an unsealed tail of benchRecords
// records — every frame decoded and chained from the last seal.
func BenchmarkVaultTailReplay(b *testing.B) {
	dir, _ := benchVault(b, 2*benchRecords)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := vault.Open(dir, nil, vault.WithReadOnly())
		if err != nil {
			b.Fatal(err)
		}
		if st := v.Stats(); st.TailRecords != benchRecords {
			b.Fatalf("tail = %d records", st.TailRecords)
		}
		v.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRecords), "ns/record")
}

// BenchmarkVaultTailQuery: the read a cursor makes on every wake once it
// is current — an empty page at the head of a vault with a hundred
// sealed segments and a full unsealed tail of the default segment size.
// It should cost the result (nothing), not a walk of the segments or the
// tail.
func BenchmarkVaultTailQuery(b *testing.B) {
	const sealedRecords, sealed, tail = 256, 100, 4095
	realm := testpki.MustRealm(org)
	tok := newToken(b, realm, id.NewRun(), 1)
	fill := func(v *vault.Vault, records, group int) {
		entries := make([]store.Entry, group)
		for i := range entries {
			entries[i] = store.Entry{Dir: store.Generated, Token: tok}
		}
		for ; records > 0; records -= group {
			if _, err := v.AppendGroup(entries); err != nil {
				b.Fatal(err)
			}
		}
	}
	dir := b.TempDir()
	v, err := vault.Open(dir, realm.Clock, vault.WithSegmentRecords(sealedRecords), vault.WithoutSync())
	if err != nil {
		b.Fatal(err)
	}
	fill(v, sealed*sealedRecords, sealedRecords/4)
	if err := v.Close(); err != nil {
		b.Fatal(err)
	}
	if v, err = vault.Open(dir, realm.Clock, vault.WithoutSync()); err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	fill(v, tail, 63)
	head, _ := v.LastPosition()
	if n := len(v.Manifest()); n != sealed || head != sealed*sealedRecords+tail {
		b.Fatalf("%d sealed segments and %d records, want %d and %d", n, head, sealed, sealed*sealedRecords+tail)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := v.QueryAll(vault.Query{AfterSeq: head, Limit: 512})
		if err != nil || len(recs) != 0 {
			b.Fatalf("read at the head: %d records, %v", len(recs), err)
		}
	}
}
