package store_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

// goldenV5Records builds the records of the format-5 golden segment: what
// a durable call journals — its job's spec, the reply group whose
// response snapshot names the request digest its leader carries, the
// receipt and the job's outcome — a subscription's authorization, and a
// job's attempts whose notes stay literal, in whole or in part.
func goldenV5Records(t *testing.T) []*store.Record {
	t.Helper()
	const client, server, watcher = id.Party("urn:org:client"), id.Party("urn:org:server"), id.Party("urn:org:watcher")
	const svc = id.Service("urn:org:server/echo")
	realm := testpki.MustRealm(client, server, watcher)
	issue := func(p id.Party, kind evidence.Kind, run id.Run, step int, digest sig.Digest, opts ...evidence.IssueOption) *evidence.Token {
		tok, err := realm.Party(p).Issuer.Issue(kind, run, step, digest, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	at := time.Date(2026, 10, 15, 8, 43, 29, 627198276, time.UTC)
	job, retried, subRun := id.NewRun(), id.NewRun(), id.NewRun()
	blob := make([]byte, 64)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	value := `"` + base64.StdEncoding.EncodeToString(blob) + `"`
	spec := fmt.Sprintf(`{"job":%q,"type":"call","server":%q,"service":%q,"operation":"Echo","params":[{"kind":"value","name":"arg0","value":%s}],"enqueued":%q}`,
		job, server, svc, value, at.Add(-80*time.Microsecond).Format(time.RFC3339Nano))
	reqDigest := sig.Sum([]byte("request snapshot"))
	snap, err := canon.Marshal(&evidence.ResponseSnapshot{Run: job, Server: server, Status: evidence.StatusOK,
		Result: []evidence.Param{{Kind: evidence.ParamValue, Name: "result0", Value: json.RawMessage(value)}}, RequestDigest: reqDigest})
	if err != nil {
		t.Fatal(err)
	}
	done := fmt.Sprintf(`{"job":%q,"attempts":1}`, job)
	subOpen := fmt.Sprintf(`{"subscriber":%q,"sub_id":"sub-%s","addr":"127.0.0.1:41000","after_seq":7,"after_hash":%q,"seals":true}`,
		watcher, subRun, sig.Sum([]byte("head")))
	attempts := []string{
		// Escapes: the whole note stays literal.
		fmt.Sprintf(`{"job":%q,"attempt":1,"cause":"read \"frame\": EOF\n"}`, retried),
		// Whitespace: likewise.
		fmt.Sprintf(`{"job": %q, "attempt": 2}`, retried),
		// A fraction: likewise.
		fmt.Sprintf(`{"job":%q,"attempt":3,"backoff":0.25}`, retried),
		// A time with an offset: the string stays literal, the note does not.
		fmt.Sprintf(`{"job":%q,"attempt":4,"enqueued":"2026-10-15T10:43:29.627198276+02:00"}`, retried),
		// A key outside the vocabulary and base64 that does not re-encode.
		fmt.Sprintf(`{"job":%q,"attempt":5,"colour":"sky blue","value":"QR=="}`, retried),
		// Every other form: a suffix of a party and of an earlier string,
		// atoms, a negative and a 64-bit integer, empty and long containers.
		fmt.Sprintf(`{"job":%q,"attempt":6,"cause":{"kid":"urn:org:client#key","server":"urn:org:server2","service":"urn:org:server2/echo","ok":[null,false,true],"step":-3,"size":18446744073709551615,"chunks":[],"ref":{},"path":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}}`, retried),
	}
	type entry struct {
		dir  store.Direction
		tok  *evidence.Token
		note string
	}
	to := func(p id.Party) evidence.IssueOption { return evidence.WithRecipients(p) }
	entries := []entry{
		{store.Generated, issue(client, evidence.KindJobEnqueued, job, 0, sig.Sum([]byte(spec))), spec},
		{store.Received, issue(server, evidence.KindNRR, job, 2, reqDigest, to(client), evidence.WithService(svc)), "request receipt"},
		{store.Received, issue(server, evidence.KindNROResp, job, 3, sig.Sum(snap), to(client), evidence.WithService(svc)), string(snap)},
		{store.Generated, issue(client, evidence.KindNRRResp, job, 4, sig.Sum(snap), to(server), evidence.WithService(svc)), "response receipt (consumed)"},
		{store.Generated, issue(client, evidence.KindJobDone, job, 0, sig.Sum([]byte(done))), done},
		{store.Received, issue(watcher, evidence.KindSubOpen, subRun, 1, sig.Sum([]byte(subOpen))), subOpen},
	}
	for i, note := range attempts {
		entries = append(entries, entry{store.Generated, issue(client, evidence.KindJobAttempt, retried, i+1, sig.Sum([]byte(note))), note})
	}
	var recs []*store.Record
	seq, prev := uint64(0), sig.Digest{}
	for i, e := range entries {
		rec, err := store.NextRecord(seq, prev, at.Add(time.Duration(i)*time.Millisecond), e.dir, e.tok, e.note)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		seq, prev = rec.Seq, rec.Hash
	}
	return recs
}

// goldenV5Writes cuts the golden records into the writes they model: the
// job-enqueued commit, the reply group, the receipt with the job's
// outcome, the subscription, and the attempts.
func goldenV5Writes(recs []*store.Record) [][]*store.Record {
	return [][]*store.Record{recs[0:1], recs[1:3], recs[3:5], recs[5:6], recs[6:12]}
}

// encodeWrites lays writes out as one segment file — one encoder, cut
// between writes — returning it with the offset of every frame and of the
// end.
func encodeWrites(t *testing.T, writes [][]*store.Record) (seg []byte, offs []int64) {
	t.Helper()
	hdr := store.SegmentHeader()
	seg = append(seg, hdr[:]...)
	var enc store.RecordEncoder
	for _, w := range writes {
		enc.Cut()
		for _, rec := range w {
			offs = append(offs, int64(len(seg)))
			var err error
			if seg, err = enc.AppendRecord(seg, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return seg, append(offs, int64(len(seg)))
}

// TestBinaryV5GoldenSegment freezes format 5: the records of
// testdata/v5/golden.jsonl, laid out as the writes they model, encode byte
// for byte to testdata/v5/golden-v5.seg, and decode from it — scanned and
// by keyed slot — to the same canonical JSON, hashes and signatures as
// from testdata/v5/golden-v4.seg, the same records as the build before
// format 5 wrote them. Notes that are canonical JSON travel as trees —
// the response snapshot naming its leader's digest in one byte — and each
// note or string the tree cannot rebuild exactly travels as text.
func TestBinaryV5GoldenSegment(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "v5")
	if *updateGolden {
		var lines []byte
		recs := goldenV5Records(t)
		for _, rec := range recs {
			line, err := canon.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(append(lines, line...), '\n')
		}
		seg, _ := encodeWrites(t, goldenV5Writes(recs))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{"golden.jsonl": lines, "golden-v5.seg": seg} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	jsonl, frozen, v4 := read("golden.jsonl"), read("golden-v5.seg"), read("golden-v4.seg")
	want := bytes.Split(bytes.TrimSpace(jsonl), []byte("\n"))
	var golden []*store.Record
	if _, _, _, err := store.DecodeSegmentData(jsonl, func(rec *store.Record, _ int64) error {
		golden = append(golden, rec)
		return nil
	}); err != nil || len(golden) != len(want) {
		t.Fatalf("golden.jsonl: %d of %d records, err %v", len(golden), len(want), err)
	}
	if encoded, _ := encodeWrites(t, goldenV5Writes(golden)); !bytes.Equal(encoded, frozen) {
		t.Fatalf("the encoder no longer writes the frozen format-5 bytes (%d bytes, frozen %d)", len(encoded), len(frozen))
	}
	recs, offs := scanGolden(t, "v5", frozen, want, store.EncBinary)
	old, _ := scanGolden(t, "v4", v4, want, store.EncBinaryV4)
	for i, rec := range recs {
		checkSameRecord(t, fmt.Sprintf("v5 record %d against v4", i), old[i], rec)
		var prev *sig.Digest
		if i > 0 {
			prev = &recs[i-1].Hash
		}
		dec, err := store.DecodeRecordData(frozen, offs[i], offs[i+1], store.EncBinary, prev)
		if err != nil {
			t.Fatalf("keyed decode of v5 record %d: %v", i, err)
		}
		checkSameRecord(t, fmt.Sprintf("keyed v5 record %d", i), rec, dec)
	}

	// What each frame must carry as text: the whole note where it stays
	// literal, the parts the tree cannot rebuild where it does not.
	structured := map[int][]string{
		0: nil, 2: nil, 4: nil,
		5:  {"sub-" + string(recs[5].Token.Run)},
		9:  {"2026-10-15T10:43:29.627198276+02:00"},
		10: {"colour", "sky blue", "QR=="},
		11: {"urn:org:server2", "/echo", "#key"}, // suffixes of an earlier string and of a party
	}
	for i, rec := range recs {
		frame := frozen[offs[i]:offs[i+1]]
		parts, isTree := structured[i]
		if strings.HasPrefix(rec.Note, "{") && bytes.Contains(frame, []byte(rec.Note)) == isTree {
			t.Fatalf("record %d: structured=%v, but the frame disagrees: %s", i, isTree, rec.Note)
		}
		for _, part := range parts {
			if !bytes.Contains(frame, []byte(part)) {
				t.Fatalf("record %d: frame does not carry %q as text", i, part)
			}
		}
	}
	// The snapshot's request digest is its leader's: one byte, neither the
	// digest's hex nor its bytes.
	if reply := frozen[offs[2]:offs[3]]; bytes.Contains(reply, recs[1].Token.Digest[:]) || !bytes.Contains(frozen[offs[1]:offs[2]], recs[1].Token.Digest[:]) {
		t.Fatal("the response snapshot does not name its request digest by reference to the leader")
	}
	count := store.CountFrames(frozen)
	for kind, limit := range map[evidence.Kind]int64{evidence.KindJobEnqueued: 150, evidence.KindNROResp: 120, evidence.KindJobDone: 10} {
		if c := count.Kinds[kind]; c == nil || c.NoteBytes[store.NoteStructured] == 0 || c.NoteBytes[store.NoteStructured] > limit*int64(c.Records) {
			t.Fatalf("%s notes stored as %+v, want structured in at most %d bytes each", kind, c, limit)
		}
	}
	if saved := len(v4) - len(frozen); saved < 600 {
		t.Fatalf("format 5 saves %d bytes over format 4 on the golden records, want at least 600", saved)
	}
	// Format 4 has no structured notes: the frames are refused under its
	// header.
	asV4 := append([]byte(nil), frozen...)
	asV4[3] = 4
	if _, _, _, err := store.DecodeSegmentData(asV4, func(*store.Record, int64) error { return nil }); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("structured notes under a v4 header = %v, want ErrBinary", err)
	}
}
