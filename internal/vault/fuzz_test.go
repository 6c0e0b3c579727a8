// Fuzz harnesses for the vault's untrusted decode surfaces: evidence
// records and segment files arrive from disk (possibly corrupted or
// doctored) and, with replication, from the network (possibly hostile).
// Every malformed input must come back as an error — never a panic and
// never an attacker-sized allocation. Seed corpora live in testdata/fuzz;
// CI adds a bounded fuzzing interval per target.
package vault

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
// where the tree rebuilds it. A record whose signature has a batch path
// travels too with its sibling under the same batch signature behind it,
// which borrows that signature and must come back the same.
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
	// Batch-signed tokens: at a leaf with a sibling, and with a stored root
	// or forward-secure fields beside the path.
	for _, s := range []sig.Signature{
		{Algorithm: sig.AlgEd25519, KeyID: "urn:org:fuzz#key", Bytes: make([]byte, 64), BatchPath: [][]byte{make([]byte, 32), make([]byte, 32)}, BatchIndex: 2},
		{Algorithm: sig.AlgEd25519, KeyID: "urn:org:fuzz#key", Bytes: []byte{}, BatchRoot: make([]byte, 32), BatchPath: [][]byte{nil}, Period: 3},
	} {
		tok := &evidence.Token{Kind: evidence.KindNRR, Run: "run-00ff", Step: 2, Issuer: "urn:org:fuzz", IssuedAt: time.Unix(1754600000, 0).UTC(), Signature: s}
		rec, err := store.NextRecord(0, sig.Digest{}, tok.IssuedAt, store.Generated, tok, "request receipt")
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
		run, err := store.AppendFrameRun(nil, []*store.Record{rec})
		if err != nil {
			return // a time no frame can carry
		}
		var back *store.Record
		err = store.DecodeFrameRun(run, func(r *store.Record) error { back = r; return nil })
		if err == nil && back.Note != rec.Note {
			t.Fatalf("note %q came back from its frame as %q", rec.Note, back.Note)
		}
		if s := rec.Token.Signature; len(s.BatchPath) > 0 && err == nil {
			checkSiblingFrames(t, back, s)
		}
	})
}

// checkSiblingFrames writes rec and a sibling leaf of its batch signature
// s as one run, the sibling borrowing the signature, and holds both to
// what comes back.
func checkSiblingFrames(t *testing.T, rec *store.Record, s sig.Signature) {
	tbs, err := rec.Token.TBSDigest()
	if err != nil {
		return
	}
	sibling := *rec.Token
	sibling.Step++
	sibling.Signature = sig.Signature{Algorithm: s.Algorithm, KeyID: s.KeyID, Bytes: s.Bytes,
		BatchPath: append([][]byte{tbs[:]}, s.BatchPath[1:]...), BatchIndex: s.BatchIndex ^ 1}
	next, err := store.NextRecord(rec.Seq, rec.Hash, rec.At, rec.Direction, &sibling, rec.Note)
	if err != nil {
		return
	}
	run, err := store.AppendFrameRun(nil, []*store.Record{rec, next})
	if err != nil {
		return
	}
	var got []*store.Record
	if err := store.DecodeFrameRun(run, func(r *store.Record) error {
		got = append(got, r)
		return nil
	}); err != nil || len(got) != 2 {
		t.Fatalf("a record and its sibling do not come back from their frames: %d records, err %v", len(got), err)
	}
	for i, want := range []*store.Record{rec, next} {
		w, werr := canon.Marshal(want)
		g, gerr := canon.Marshal(got[i])
		if werr != nil || gerr != nil || !bytes.Equal(w, g) || got[i].Hash != want.Hash {
			t.Fatalf("record %d of a sibling pair drifted:\n want %s\n  got %s", i, w, g)
		}
	}
}

// hostileFrameRuns are segment images around a run of two records (a
// leader and its follower): the run itself, and the shapes the frame
// decoder must refuse or a reader must not trust — a bad checksum, a
// note code outside the vocabulary, current frames under a version-2
// header, a hash-less follower that elides its Prev with neither
// predecessor nor leader, a token-less frame — and, around a run of
// three, followers that point before the header, into a frame, onto
// another follower, onto a token-less frame and onto a leader with a bad
// checksum; and, the run of three followed by the opening frames of two
// more runs of its party, which take their parties from its first frame,
// the last one's party source pointed onto a follower, onto a frame that
// takes its parties from a source itself, before the header, and at a
// frame a commit dropped.
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
	// repoint rewrites the back-distance of the follower or the party
	// source of the plain frame that ends image — it sits after the frame's
	// flags, the frame eliding its seq and Prev — and refits its checksum.
	repoint := func(image []byte, start int, back uint64) []byte {
		_, w := binary.Uvarint(image[start:])
		body := image[start+w : len(image)-4]
		_, old := binary.Uvarint(body[1:])
		body = append(append(append([]byte(nil), body[:1]...), binary.AppendUvarint(nil, back)...), body[1+old:]...)
		body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		return append(append(image[:start:start], binary.AppendUvarint(nil, uint64(len(body)))...), body...)
	}
	leaderLen, lastAt := len(lone)-store.SegmentHeaderLen, len(run)
	badLeader := append([]byte(nil), run...)
	badLeader[len(lone)-1] ^= 0x01
	behindTokenless := append(append([]byte(nil), tokenless...), run[len(lone):]...)

	// The opening frames of runs B and C, and of X, which a commit drops
	// after B's: each takes its parties from the first frame.
	opening := func(prev *store.Record, run id.Run, note string) *store.Record {
		t := *tok
		t.Run = run
		rec, err := store.NextRecord(prev.Seq, prev.Hash, tok.IssuedAt, store.Generated, &t, note)
		if err != nil {
			tb.Fatal(err)
		}
		return rec
	}
	b := opening(third, "run-01ff", "request origin")
	c := opening(b, "run-02ff", "request origin")
	sourced, err := store.AppendFrameRun(nil, []*store.Record{first, second, third, b, c})
	if err != nil {
		tb.Fatal(err)
	}
	withX, err := store.AppendFrameRun(nil, []*store.Record{first, second, third, b, opening(b, "run-03ff", "a request its commit dropped")})
	if err != nil {
		tb.Fatal(err)
	}
	bAt := len(three)
	end, err := store.FrameEnd(sourced, int64(bAt), store.EncBinary)
	if err != nil {
		tb.Fatal(err)
	}
	cAt := int(end) // where X's frame starts in withX, and C's in sourced
	xLen := len(withX) - cAt
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
		"runs-with-a-party-source":     sourced,
		"source-onto-a-follower":       repoint(sourced, cAt, uint64(cAt-len(lone))),
		"source-onto-a-borrower":       repoint(sourced, cAt, uint64(cAt-bAt)),
		"source-before-header":         repoint(sourced, cAt, uint64(cAt)),
		"source-a-commit-dropped":      repoint(sourced, cAt, uint64(xLen)),
	}
}

// TestHostileFrameRunsAtOpen holds the seeds to what they claim: as a
// vault's tail the three well-formed images open with their records,
// every frame after the first leaning on it, and every other image is
// refused — none truncated away as if torn, none served; a party source
// a frame may not take its parties from, as malformed binary.
func TestHostileFrameRunsAtOpen(t *testing.T) {
	t.Parallel()
	for name, image := range hostileFrameRuns(t) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), image, 0o600); err != nil {
			t.Fatal(err)
		}
		v, err := Open(dir, nil, WithReadOnly())
		if want := map[string]int{"run-of-two": 2, "run-of-three": 3, "runs-with-a-party-source": 5}[name]; want > 0 {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if st := v.Stats(); st.TailRecords != want {
				t.Fatalf("%s: tail holds %d records, want %d", name, st.TailRecords, want)
			}
			if count, err := store.CountFrames(image); err != nil || count.Followers+count.PartyBorrowers != want-1 {
				t.Fatalf("%s: %d follower frames and %d taking their parties, err %v, want %d", name, count.Followers, count.PartyBorrowers, err, want-1)
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
		if strings.HasPrefix(name, "source-") && !errors.Is(err, canon.ErrBinary) {
			t.Fatalf("%s: Open = %v, want ErrBinary", name, err)
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

// indexFuzzVault is a vault FuzzIndexOpen attacks through the index of
// one of its sealed segments: testdata/v2-vault, one sealed segment of
// six records — a three-record run, a transaction-linked three-record
// run — under a version-2 index; testdata/v6-vault, two sealed segments
// of eleven and twelve records and a one-record tail under version-3
// indexes, runs of four records, every second one transaction-linked,
// straddling windows; and testdata/v8-vault, the records of
// testdata/v7-vault sealed again at the same seqs in segment format 8
// under version-4 indexes, whose second segment (seqs 12 to 23) opens and
// closes with a partial window. RUNS.json names the runs.
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

func loadIndexFuzzVault(tb testing.TB, dir string, seg int) *indexFuzzVault {
	tb.Helper()
	fv := &indexFuzzVault{dir: dir, hashes: make(map[sig.Digest]bool)}
	entries, err := readManifestFile(filepath.Join(fv.dir, manifestName))
	if err != nil || len(entries) < seg {
		tb.Fatalf("fixture manifest: %d entries, err %v", len(entries), err)
	}
	fv.entry = entries[seg-1]
	if fv.idx, err = os.ReadFile(idxPath(fv.dir, fv.entry.Segment)); err != nil {
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
// Against a version-3 or version-4 index it adds the attacks on its
// window pins, and against a version-4 index those on its window
// offsets.
func hostileIndexes(tb testing.TB, fv *indexFuzzVault) map[string][]byte {
	tb.Helper()
	good := fv.idx
	l := indexLayouts[fv.entry.IndexFormat]
	payload, err := indexFilePayload(good, l.magic)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := parseIndexPayload(payload, l)
	if err != nil {
		tb.Fatal(err)
	}
	base := len(good) - len(payload)
	offsetsAt := base + indexFixedLen
	hashesAt := offsetsAt + len(ix.offsets)
	runsAt := hashesAt + len(ix.hashes) // runs table: keys, blobLen, dir, blob
	dirAt := runsAt + 8
	blobAt := dirAt + len(ix.tables[tableRuns].dir)
	mutate := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		fn(b)
		return b
	}
	seeds := map[string][]byte{
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
		"truncated-arrays":  good[:hashesAt+sig.DigestSize+5],
		"truncated-tables":  good[:blobAt+3],
		"truncated-header":  good[:base-3],
		"legacy-json-index": []byte(`{"entry":{"segment":1},"size":10,"offsets":[4],"hashes":[]}`),
	}
	if l.stride == 1 {
		return seeds
	}
	// Windowed: its magic over a pin for every record, pins cut short, a
	// pin moved to the window after its own, and a count that leaves
	// another number of records in the last window.
	pins := len(ix.hashes) / sig.DigestSize
	perRecord := make([]byte, 0, ix.count*sig.DigestSize)
	for i := 0; i < ix.count; i++ {
		perRecord = append(perRecord, ix.hashes[sig.DigestSize*min(ix.window(i), pins-1):][:sig.DigestSize]...)
	}
	seeds["pin-per-record"] = append(append(append([]byte(nil), good[:hashesAt]...), perRecord...), good[runsAt:]...)
	seeds["pins-truncated"] = append(append([]byte(nil), good[:runsAt-sig.DigestSize]...), good[runsAt:]...)
	seeds["pins-swapped"] = mutate(func(b []byte) {
		copy(b[hashesAt:], good[hashesAt+sig.DigestSize:runsAt])
		copy(b[runsAt-sig.DigestSize:], good[hashesAt:hashesAt+sig.DigestSize])
	})
	seeds["count-off-by-one"] = mutate(func(b []byte) {
		binary.LittleEndian.PutUint32(b[base+16:], uint32(ix.count-1))
	})
	// The other windowed version's magic over this one's payload: a
	// version-4 index read with the version-3 layout and the reverse.
	other := indexLayouts[indexFormatAligned].magic
	if l.aligned {
		other = indexLayouts[indexFormatWindowed].magic
	}
	seeds["other-window-version"] = mutate(func(b []byte) { copy(b, other) })
	if !l.aligned {
		return seeds
	}
	// Aligned: a window's offset past the segment, one off a frame
	// boundary, the first window's offset taken for a record's, and
	// offsets and pins for windows counted from the segment's first record
	// — one fewer where the first window is partial.
	seeds["window-offset-past-the-segment"] = mutate(func(b []byte) {
		binary.LittleEndian.PutUint32(b[offsetsAt+4:], uint32(ix.size)+1)
	})
	seeds["window-offset-off-a-frame"] = mutate(func(b []byte) {
		binary.LittleEndian.PutUint32(b[offsetsAt+4:], uint32(ix.offset(1))+1)
	})
	seeds["window-offset-first-frame"] = mutate(func(b []byte) {
		binary.LittleEndian.PutUint32(b[offsetsAt+4:], uint32(ix.offset(0)))
	})
	relative := (ix.count + ix.stride - 1) / ix.stride
	seeds["windows-from-the-segment"] = append(append(append(append([]byte(nil), good[:offsetsAt]...),
		good[offsetsAt+len(ix.offsets)-relative*ix.offWidth:hashesAt]...),
		good[runsAt-relative*sig.DigestSize:runsAt]...), good[runsAt:]...)
	return seeds
}

// FuzzIndexOpen feeds arbitrary bytes to the vault as a sealed segment's
// index file — under the version-4 seal of testdata/v8-vault when
// they open with the version-4 magic, under the version-3 seal of
// testdata/v6-vault with the version-3 magic, under the version-2 seal
// of testdata/v2-vault otherwise. Two layers hold: behind the seal's
// pinned digest a hostile index is simply rebuilt — the opened vault
// serves exactly the true records; and with the pin bypassed (the parsed
// view handed straight to the keyed-read path) it can make reads fail
// with ErrSealBroken but never panic, never allocate out of proportion to
// its size, and never get a record served that is not an authentic
// record matching the query.
func FuzzIndexOpen(f *testing.F) {
	v2 := loadIndexFuzzVault(f, filepath.Join("testdata", "v2-vault"), 1)
	v6 := loadIndexFuzzVault(f, filepath.Join("testdata", "v6-vault"), 1)
	v8 := loadIndexFuzzVault(f, filepath.Join("testdata", "v8-vault"), 2)
	for _, fv := range []*indexFuzzVault{v2, v6, v8} {
		for _, seed := range hostileIndexes(f, fv) {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fv := v2
		switch {
		case bytes.HasPrefix(data, []byte(indexLayouts[indexFormatAligned].magic)):
			fv = v8
		case bytes.HasPrefix(data, []byte(indexLayouts[indexFormatWindowed].magic)):
			fv = v6
		}
		// Layer 1: through Open, where the seal pins the index.
		dir := t.TempDir()
		files, err := os.ReadDir(fv.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if name := file.Name(); name != "RUNS.json" && name != "LOCK" && name != filepath.Base(idxPath("", fv.entry.Segment)) {
				b, err := os.ReadFile(filepath.Join(fv.dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := os.WriteFile(idxPath(dir, fv.entry.Segment), data, 0o600); err != nil {
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
		l := indexLayouts[fv.entry.IndexFormat]
		payload, err := indexFilePayload(data, l.magic)
		if err != nil {
			return
		}
		ix, err := parseIndexPayload(payload, l)
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
