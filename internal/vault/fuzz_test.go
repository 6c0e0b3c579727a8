// Fuzz harnesses for the vault's untrusted decode surfaces: evidence
// records and segment files arrive from disk (possibly corrupted or
// doctored) and, with replication, from the network (possibly hostile).
// Every malformed input must come back as an error — never a panic and
// never an attacker-sized allocation. Seed corpora live in testdata/fuzz;
// CI adds a bounded fuzzing interval per target.
package vault

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// FuzzRecordDecode feeds arbitrary bytes to the record decoder and chain
// verifier — the per-line work of segment replay and keyed reads — and
// carries whatever decodes through a binary frame, which must give its
// note back exactly: a note that is JSON travels as a structured tree only
// where the tree rebuilds it.
func FuzzRecordDecode(f *testing.F) {
	f.Add([]byte(`{"seq":1,"prev":"0000000000000000000000000000000000000000000000000000000000000000","at":"2004-03-25T09:00:00Z","direction":"generated","token":{"kind":"nro-req","run":"r1","step":1,"issuer":"urn:org:a","digest":"0000000000000000000000000000000000000000000000000000000000000000","issued_at":"2004-03-25T09:00:00Z","signature":{}},"hash":"0000000000000000000000000000000000000000000000000000000000000000"}`))
	f.Add([]byte(`{"seq":18446744073709551615,"token":null}`))
	f.Add([]byte(`[]`))
	// Journaled notes: a job's spec and outcome, and one with whitespace.
	for _, note := range []string{
		`{"job":"run-00ff","type":"call","server":"urn:org:b","service":"urn:org:b/echo","params":[{"kind":"value","name":"arg0","value":"AAEC"}],"enqueued":"2004-03-25T09:00:00Z"}`,
		`{"job":"run-00ff","attempts":1}`,
		`{"job": "run-00ff"}`,
	} {
		tok := &evidence.Token{Kind: evidence.KindJobDone, Run: "run-00ff", Issuer: "urn:org:fuzz", IssuedAt: time.Unix(1754600000, 0).UTC()}
		rec, err := store.NextRecord(0, sig.Digest{}, tok.IssuedAt, store.Generated, tok, note)
		if err != nil {
			f.Fatal(err)
		}
		seed, err := canon.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rec := &store.Record{}
		if err := canon.Unmarshal(data, rec); err != nil {
			return
		}
		cv := &store.ChainVerifier{}
		_ = cv.Check(rec)
		if rec.Token == nil {
			return
		}
		frame, err := store.AppendRecordBinary(nil, rec)
		if err != nil {
			return // a time no frame can carry
		}
		back, _, err := store.DecodeRecordFrame(frame)
		if err == nil && back.Note != rec.Note {
			t.Fatalf("note %q came back from its frame as %q", rec.Note, back.Note)
		}
	})
}

// hostileFrameRuns are segment images around a run of two records (a
// leader and its follower): the run itself, and the shapes the frame
// decoder must refuse or a reader must not trust — a bad checksum, a
// note code outside the vocabulary, current frames under a version-2
// header, a hash-less follower that elides its Prev with neither
// predecessor nor leader, a token-less frame — and, around a run of
// three, followers that point before the header, into a frame, onto
// another follower, onto a token-less frame and onto a leader with a bad
// checksum.
func hostileFrameRuns(tb testing.TB) map[string][]byte {
	tb.Helper()
	tok := &evidence.Token{Kind: evidence.KindNRO, Run: "run-00ff", Step: 1, Issuer: "urn:org:fuzz", IssuedAt: time.Unix(1754600000, 0).UTC()}
	first, err := store.NextRecord(0, sig.Digest{}, tok.IssuedAt, store.Generated, tok, "request origin")
	if err != nil {
		tb.Fatal(err)
	}
	second, err := store.NextRecord(first.Seq, first.Hash, tok.IssuedAt, store.Received, tok, "request receipt")
	if err != nil {
		tb.Fatal(err)
	}
	run, err := store.AppendFrameRun(nil, []*store.Record{first, second})
	if err != nil {
		tb.Fatal(err)
	}
	lone, err := store.AppendFrameRun(nil, []*store.Record{first})
	if err != nil {
		tb.Fatal(err)
	}
	refit := func(body []byte) []byte { // length prefix and checksum around a frame body
		body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		return append(append(lone[:store.SegmentHeaderLen:store.SegmentHeaderLen], binary.AppendUvarint(nil, uint64(len(body)))...), body...)
	}
	// The note code is the first byte two frames that differ only in
	// their (vocabulary) note disagree on.
	renoted := *first
	renoted.Note = "request receipt"
	other, err := store.AppendFrameRun(nil, []*store.Record{&renoted})
	if err != nil {
		tb.Fatal(err)
	}
	code := 0
	for code < len(lone) && lone[code] == other[code] {
		code++
	}
	mutate := func(at int, to byte) []byte {
		b := append([]byte(nil), lone...)
		_, w := binary.Uvarint(b[store.SegmentHeaderLen:])
		b[at] = to
		return refit(b[store.SegmentHeaderLen+w : len(b)-4])
	}
	badCRC := append([]byte(nil), run...)
	badCRC[len(badCRC)-1] ^= 0x01
	asV2 := append([]byte(nil), run...)
	asV2[3] = 2
	tokenless := refit(append(append([]byte{0x41, 1}, make([]byte, sig.DigestSize)...), 0, 1)) // Prev | hash-less, seq 1, zero Prev; At, direction

	// A third record of the run: frames two and three follow the first.
	third, err := store.NextRecord(second.Seq, second.Hash, tok.IssuedAt, store.Generated, tok, "response origin")
	if err != nil {
		tb.Fatal(err)
	}
	three, err := store.AppendFrameRun(nil, []*store.Record{first, second, third})
	if err != nil {
		tb.Fatal(err)
	}
	// repoint rewrites the back-distance of the follower that ends image —
	// it sits after the frame's flags and one-byte seq — and refits its
	// checksum.
	repoint := func(image []byte, start int, back uint64) []byte {
		_, w := binary.Uvarint(image[start:])
		body := image[start+w : len(image)-4]
		_, old := binary.Uvarint(body[2:])
		body = append(append(append([]byte(nil), body[:2]...), binary.AppendUvarint(nil, back)...), body[2+old:]...)
		body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		return append(append(image[:start:start], binary.AppendUvarint(nil, uint64(len(body)))...), body...)
	}
	leaderLen, lastAt := len(lone)-store.SegmentHeaderLen, len(run)
	badLeader := append([]byte(nil), run...)
	badLeader[len(lone)-1] ^= 0x01
	behindTokenless := append(append([]byte(nil), tokenless...), run[len(lone):]...)
	return map[string][]byte{
		"run-of-two":                   run,
		"bad-checksum":                 badCRC,
		"unknown-note-code":            mutate(code, 200),
		"v4-frames-under-v2-header":    asV2,
		"hash-less-orphan-elided-prev": append(run[:store.SegmentHeaderLen:store.SegmentHeaderLen], run[len(lone):]...),
		"token-less":                   tokenless,
		"run-of-three":                 three,
		"follower-before-header":       repoint(three, lastAt, uint64(lastAt)),
		"follower-into-a-frame":        repoint(three, lastAt, uint64(lastAt-store.SegmentHeaderLen-leaderLen/2)),
		"follower-onto-a-follower":     repoint(three, lastAt, uint64(lastAt-len(lone))),
		"follower-onto-token-less":     repoint(behindTokenless, len(tokenless), uint64(len(tokenless)-store.SegmentHeaderLen)),
		"follower-of-a-bad-checksum":   badLeader,
	}
}

// TestHostileFrameRunsAtOpen holds the seeds to what they claim: as a
// vault's tail the two well-formed runs open with their records, every
// other image is refused — none truncated away as if torn, none served.
func TestHostileFrameRunsAtOpen(t *testing.T) {
	t.Parallel()
	for name, image := range hostileFrameRuns(t) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), image, 0o600); err != nil {
			t.Fatal(err)
		}
		v, err := Open(dir, nil, WithReadOnly())
		if want := map[string]int{"run-of-two": 2, "run-of-three": 3}[name]; want > 0 {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if st := v.Stats(); st.TailRecords != want {
				t.Fatalf("%s: tail holds %d records, want %d", name, st.TailRecords, want)
			}
			if n := store.CountFrames(image).Followers; n != want-1 {
				t.Fatalf("%s: %d follower frames, want %d", name, n, want-1)
			}
			if err := v.DeepVerify(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			v.Close()
			continue
		}
		if err == nil {
			v.Close()
			t.Fatalf("%s: the vault opened", name)
		}
	}
}

// FuzzSegmentOpen writes arbitrary bytes as a vault's tail segment and
// opens the vault: recovery must truncate or reject, never panic.
func FuzzSegmentOpen(f *testing.F) {
	f.Add([]byte("{\"seq\":1}\n"))
	f.Add([]byte("not json at all\n{\"torn"))
	f.Add([]byte("\n\n\n"))
	for _, seed := range hostileFrameRuns(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), data, 0o600); err != nil {
			t.Fatal(err)
		}
		v, err := Open(dir, nil)
		if err != nil {
			return
		}
		_ = v.DeepVerify()
		_ = v.Close()
	})
}

// FuzzManifestOpen writes arbitrary bytes as a vault manifest: the seal
// chain loader must reject corruption without panicking.
func FuzzManifestOpen(f *testing.F) {
	f.Add([]byte("{\"segment\":1,\"first_seq\":1,\"last_seq\":1}\n"))
	f.Add([]byte("{}\n{}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o600); err != nil {
			t.Fatal(err)
		}
		v, err := Open(dir, nil)
		if err != nil {
			return
		}
		_ = v.Close()
	})
}

// FuzzReplicaReceive feeds arbitrary bytes as a wire-decoded
// SegmentPackage into a replica store: the seal-chain acceptance rule
// must refuse garbage without panicking and without corrupting the
// (empty) replica.
func FuzzReplicaReceive(f *testing.F) {
	f.Add([]byte(`{"entry":{"segment":1,"first_seq":1,"last_seq":1},"data":"e30K"}`))
	f.Add([]byte(`{"entry":{"segment":0},"data":""}`))
	for _, frames := range hostileFrameRuns(f) {
		seed, err := canon.Marshal(&SegmentPackage{Entry: ManifestEntry{Segment: 1, FirstSeq: 1, LastSeq: 1}, Data: frames})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		pkg := &SegmentPackage{}
		if err := canon.Unmarshal(data, pkg); err != nil {
			return
		}
		rs, err := OpenReplicaSet(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Receive("urn:org:fuzz", pkg); err != nil {
			return
		}
		// Anything accepted must verify as a replica vault.
		v, err := Open(rs.Dir("urn:org:fuzz"), nil, WithReadOnly())
		if err != nil {
			t.Fatalf("accepted package does not open: %v", err)
		}
		defer v.Close()
		if err := v.DeepVerify(); err != nil {
			t.Fatalf("accepted package does not verify: %v", err)
		}
	})
}

// indexFuzzVault is the checked-in vault FuzzIndexOpen attacks
// (testdata/v2-vault): one sealed current-format segment of six records
// — a three-record run, a transaction-linked three-record run — with
// its binary index. RUNS.json names the runs.
type indexFuzzVault struct {
	dir   string
	entry ManifestEntry
	idx   []byte
	runs  []struct {
		Run     id.Run `json:"run"`
		Txn     id.Txn `json:"txn"`
		Records int    `json:"records"`
	}
	hashes map[sig.Digest]bool // every authentic record of the segment
}

func loadIndexFuzzVault(tb testing.TB) *indexFuzzVault {
	tb.Helper()
	fv := &indexFuzzVault{dir: filepath.Join("testdata", "v2-vault"), hashes: make(map[sig.Digest]bool)}
	entries, err := readManifestFile(filepath.Join(fv.dir, manifestName))
	if err != nil || len(entries) != 1 {
		tb.Fatalf("fixture manifest: %d entries, err %v", len(entries), err)
	}
	fv.entry = entries[0]
	if fv.idx, err = os.ReadFile(idxPath(fv.dir, 1)); err != nil {
		tb.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(fv.dir, "RUNS.json"))
	if err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal(meta, &fv.runs); err != nil {
		tb.Fatal(err)
	}
	if _, err := readSealedSegment(fv.dir, fv.entry, nil, func(rec *store.Record, _ int64) error {
		fv.hashes[rec.Hash] = true
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return fv
}

// hostileIndexes derives the structural attacks on a valid index file:
// each mutation keeps the file plausible enough to get past the header.
func hostileIndexes(tb testing.TB, good []byte) map[string][]byte {
	tb.Helper()
	payload, err := indexFilePayload(good)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := parseIndexPayload(payload)
	if err != nil {
		tb.Fatal(err)
	}
	base := len(good) - len(payload)
	offsetsAt := base + indexFixedLen
	runsAt := offsetsAt + ix.count*(ix.offWidth+sig.DigestSize) // runs table: keys, blobLen, dir, blob
	dirAt := runsAt + 8
	blobAt := dirAt + len(ix.tables[tableRuns].dir)
	mutate := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		fn(b)
		return b
	}
	return map[string][]byte{
		"valid": good,
		"offsets-past-the-file": mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[offsetsAt+4:], 0xFFFFFFF0)
		}),
		"offsets-descending": mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[offsetsAt+8:], 4)
		}),
		"count-larger-than-file": mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[base+16:], 0x00FFFFFF)
		}),
		"key-table-unsorted": mutate(func(b []byte) {
			first, second := binary.LittleEndian.Uint32(b[dirAt:]), binary.LittleEndian.Uint32(b[dirAt+4:])
			binary.LittleEndian.PutUint32(b[dirAt:], second)
			binary.LittleEndian.PutUint32(b[dirAt+4:], first)
		}),
		"key-table-overlapping": mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[dirAt+4:], binary.LittleEndian.Uint32(b[dirAt:]))
		}),
		"key-entry-past-its-table": mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[dirAt:], 0x7FFFFFFF)
		}),
		"key-count-larger-than-file": mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[runsAt:], 0x3FFFFFFF)
		}),
		"posting-count-larger-than-file": mutate(func(b []byte) {
			// First entry: key length, key, then the posting count.
			b[blobAt+1+int(b[blobAt])] = 0x7F
		}),
		"posting-past-the-segment": mutate(func(b []byte) {
			b[blobAt+2+int(b[blobAt])] = 0x7E
		}),
		"posting-names-another-run": mutate(func(b []byte) {
			b[blobAt+2+int(b[blobAt])] ^= 0x03
		}),
		"truncated-arrays":  good[:offsetsAt+ix.count*ix.offWidth+sig.DigestSize+5],
		"truncated-tables":  good[:blobAt+3],
		"truncated-header":  good[:base-3],
		"legacy-json-index": []byte(`{"entry":{"segment":1},"size":10,"offsets":[4],"hashes":[]}`),
	}
}

// FuzzIndexOpen feeds arbitrary bytes to the vault as a sealed segment's
// index file. Two layers hold: behind the seal's pinned digest a hostile
// index is simply rebuilt — the opened vault serves exactly the true
// records; and with the pin bypassed (the parsed view handed straight to
// the keyed-read path) it can make reads fail with ErrSealBroken but
// never panic, never allocate out of proportion to its size, and never
// get a record served that is not an authentic record matching the
// query.
func FuzzIndexOpen(f *testing.F) {
	fv := loadIndexFuzzVault(f)
	for _, seed := range hostileIndexes(f, fv.idx) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Layer 1: through Open, where the seal pins the index.
		dir := t.TempDir()
		for _, name := range []string{manifestName, "seg-00000001.log"} {
			b, err := os.ReadFile(filepath.Join(fv.dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(idxPath(dir, 1), data, 0o600); err != nil {
			t.Fatal(err)
		}
		v, err := Open(dir, nil, WithReadOnly())
		if err != nil {
			t.Fatalf("open with a hostile index: %v", err)
		}
		for _, r := range fv.runs {
			recs, err := v.QueryAll(Query{Run: r.Run})
			if err != nil || len(recs) != r.Records {
				t.Fatalf("ByRun behind the pin = %d records, err %v, want %d", len(recs), err, r.Records)
			}
		}
		if err := v.DeepVerify(); err != nil {
			t.Fatalf("DeepVerify behind the pin: %v", err)
		}
		v.Close()

		// Layer 2: the parser and the keyed-read path on their own.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payload, err := indexFilePayload(data)
		if err != nil {
			return
		}
		ix, err := parseIndexPayload(payload)
		if err != nil {
			if !errors.Is(err, ErrSealBroken) {
				t.Fatalf("parse error is not ErrSealBroken: %v", err)
			}
			return
		}
		_, _ = ix.toPayload()
		idx := &segmentIndex{Entry: fv.entry, indexView: ix}
		queries := []Query{{Party: "urn:org:a"}, {Kind: evidence.KindNRO}, {Kind: evidence.KindNRR, Party: "urn:org:a"}}
		for _, r := range fv.runs {
			queries = append(queries, Query{Run: r.Run}, Query{Txn: r.Txn, Run: r.Run})
		}
		for _, q := range queries {
			it := &Iterator{q: q, dir: fv.dir}
			recs, err := it.loadSegment(idx)
			if err != nil {
				if !errors.Is(err, ErrSealBroken) {
					t.Fatalf("keyed read over a hostile index failed with %v, want ErrSealBroken", err)
				}
				continue
			}
			for _, rec := range recs {
				if !fv.hashes[rec.Hash] || !q.Matches(rec) {
					t.Fatalf("hostile index got record %d served for %+v", rec.Seq, q)
				}
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+256*uint64(len(data)) {
			t.Fatalf("a %d-byte index made the reader allocate %d bytes", len(data), grew)
		}
	})
}
