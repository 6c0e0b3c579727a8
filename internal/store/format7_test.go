package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

// ringSize is how many of a file's latest plain frames a version-7
// follower may lean on: part of the format.
const ringSize = 16

// goldenV7Records builds the records of the format-7 golden segment, one
// file as a vault appends them, in the writes they model:
//
//	client of a direct call     {NRO}                     frame 0
//	server of another           {NRO, NRR, NROResp}       frames 1-3
//	the client's reply          {NRR, NROResp, NRRResp}   frames 4-6
//	the server's receipt        {NRRResp}                 frame 7
//	client of a pipelined call  {NRO}                     frame 8
//	its reply, a batch pair     {NRR, NROResp, NRRResp}   frames 9-11
//	a durable client's job      {job-enqueued}            frame 12
//	its call                    {NRO}                     frame 13
//	its reply and outcome       {NRR, NROResp, NRRResp, job-done}
//
// The direct call's later writes lean on the leaders of earlier ones,
// across the other run's frames; the pipelined response origin borrows
// its receipt's signature; the durable job's request origin names
// recipients its journal record does not, so it leads its run anew, and
// the response snapshot journaled beside the response origin names its
// leader's digest by reference.
func goldenV7Records(t *testing.T) []*store.Record {
	t.Helper()
	const client, server = id.Party("urn:org:client"), id.Party("urn:org:server")
	const svc = id.Service("urn:org:server/echo")
	realm := testpki.MustRealm(client, server)
	issue := func(p, to id.Party, kind evidence.Kind, run id.Run, step int, what string) *evidence.Token {
		tok, err := realm.Party(p).Issuer.Issue(kind, run, step, sig.Sum([]byte(what)), evidence.WithRecipients(to), evidence.WithService(svc))
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	b := evidence.NewBatchIssuer(realm.Party(server).Issuer)
	defer b.Close()
	direct, other, piped, job := id.NewRun(), id.NewRun(), id.NewRun(), id.NewRun()
	pair, err := b.IssueBatch([]evidence.TokenRequest{
		{Kind: evidence.KindNRR, Run: piped, Step: 2, Digest: sig.Sum([]byte("piped request")), Opts: []evidence.IssueOption{evidence.WithRecipients(client), evidence.WithService(svc)}},
		{Kind: evidence.KindNROResp, Run: piped, Step: 3, Digest: sig.Sum([]byte("piped response")), Opts: []evidence.IssueOption{evidence.WithRecipients(client), evidence.WithService(svc)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	journal := func(kind evidence.Kind, step int, body any) (*evidence.Token, string) {
		note, err := canon.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		tok, err := realm.Party(client).Issuer.Issue(kind, job, step, sig.Sum(note))
		if err != nil {
			t.Fatal(err)
		}
		return tok, string(note)
	}
	at := time.Date(2026, 10, 17, 10, 0, 0, 0, time.UTC)
	enqueued, spec := journal(evidence.KindJobEnqueued, 0, struct {
		Job       id.Run     `json:"job"`
		Type      string     `json:"type"`
		Server    id.Party   `json:"server"`
		Service   id.Service `json:"service"`
		Operation string     `json:"operation"`
		Enqueued  time.Time  `json:"enqueued"`
	}{job, "call", server, svc, "Echo", at})
	jobNRO := issue(client, server, evidence.KindNRO, job, 1, "job request")
	result, err := evidence.ValueParam("result0", []byte{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := canon.Marshal(evidence.ResponseSnapshot{Run: job, Server: server, Status: evidence.StatusOK,
		Result: []evidence.Param{result}, RequestDigest: jobNRO.Digest})
	if err != nil {
		t.Fatal(err)
	}
	done, outcome := journal(evidence.KindJobDone, 0, struct {
		Job      id.Run `json:"job"`
		Attempts int    `json:"attempts"`
	}{job, 1})
	type entry struct {
		dir  store.Direction
		tok  *evidence.Token
		note string
	}
	entries := []entry{
		{store.Generated, issue(client, server, evidence.KindNRO, direct, 1, "request"), "request origin"},
		{store.Received, issue(client, server, evidence.KindNRO, other, 1, "other request"), "request origin"},
		{store.Generated, issue(server, client, evidence.KindNRR, other, 2, "other request"), "request receipt"},
		{store.Generated, issue(server, client, evidence.KindNROResp, other, 3, "other response"), "response origin (ok)"},
		{store.Received, issue(server, client, evidence.KindNRR, direct, 2, "request"), "request receipt"},
		{store.Received, issue(server, client, evidence.KindNROResp, direct, 3, "response"), "response origin"},
		{store.Generated, issue(client, server, evidence.KindNRRResp, direct, 4, "response"), "response receipt (consumed)"},
		{store.Received, issue(client, server, evidence.KindNRRResp, other, 4, "other response"), "response receipt (consumed)"},
		{store.Generated, issue(client, server, evidence.KindNRO, piped, 1, "piped request"), "request origin"},
		{store.Received, pair[0], "request receipt"},
		{store.Received, pair[1], "response origin"},
		{store.Generated, issue(client, server, evidence.KindNRRResp, piped, 4, "piped response"), "response receipt (consumed)"},
		{store.Generated, enqueued, spec},
		{store.Generated, jobNRO, "request origin"},
		{store.Received, issue(server, client, evidence.KindNRR, job, 2, "job request"), "request receipt"},
		{store.Received, issue(server, client, evidence.KindNROResp, job, 3, "job response"), string(snapshot)},
		{store.Generated, issue(client, server, evidence.KindNRRResp, job, 4, "job response"), "response receipt (consumed)"},
		{store.Generated, done, outcome},
	}
	var c chain
	for i, e := range entries {
		c.add(t, at.Add(time.Duration(i)*time.Millisecond), e.dir, e.tok, e.note)
	}
	return c
}

// goldenV7Writes is where each write of the golden segment starts.
var goldenV7Writes = []int{0, 1, 4, 7, 8, 9, 12, 13, 14}

// encodeV7 lays records out as one segment file, one encoder, as a vault
// appends them whatever the commits; with cut set, the encoder is cut
// where each write starts, as the build before format 7 did.
func encodeV7(t *testing.T, recs []*store.Record, cut bool) (seg []byte, offs []int64) {
	t.Helper()
	hdr := store.SegmentHeader()
	seg = append(seg, hdr[:]...)
	var enc store.RecordEncoder
	w := 0
	for i, rec := range recs {
		if cut && w < len(goldenV7Writes) && goldenV7Writes[w] == i {
			enc.Cut()
			w++
		}
		offs = append(offs, int64(len(seg)))
		var err error
		if seg, err = enc.AppendRecord(seg, rec); err != nil {
			t.Fatal(err)
		}
	}
	return seg, append(offs, int64(len(seg)))
}

// TestBinaryV7GoldenSegment freezes format 7: the records of
// testdata/v7/golden.jsonl encode byte for byte to
// testdata/v7/golden-v7.seg and decode from it — scanned and by keyed
// slot — to the same canonical JSON, hashes and signatures. Every frame
// leads, follows the leader the layout says or borrows its mate's
// signature; the followers of later writes cost what those of the first
// write do, where the build before format 7 wrote a plain frame.
func TestBinaryV7GoldenSegment(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "v7")
	if *updateGolden {
		recs := goldenV7Records(t)
		var lines []byte
		for _, rec := range recs {
			line, err := canon.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(append(lines, line...), '\n')
		}
		seg, _ := encodeV7(t, recs, false)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{"golden.jsonl": lines, "golden-v7.seg": seg} {
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
	jsonl, frozen := read("golden.jsonl"), read("golden-v7.seg")
	want := bytes.Split(bytes.TrimSpace(jsonl), []byte("\n"))
	var golden []*store.Record
	if _, _, _, err := store.DecodeSegmentData(jsonl, func(rec *store.Record, _ int64) error {
		golden = append(golden, rec)
		return nil
	}); err != nil || len(golden) != len(want) {
		t.Fatalf("golden.jsonl: %d of %d records, err %v", len(golden), len(want), err)
	}
	if encoded, _ := encodeV7(t, golden, false); !bytes.Equal(encoded, frozen) {
		t.Fatalf("the encoder no longer writes the frozen format-7 bytes (%d bytes, frozen %d)", len(encoded), len(frozen))
	}
	recs, offs := scanGolden(t, "v7", frozen, want, store.EncBinary)
	for i, rec := range recs {
		var prev *sig.Digest
		if i > 0 {
			prev = &recs[i-1].Hash
		}
		dec, err := store.DecodeRecordData(frozen, offs[i], offs[i+1], store.EncBinary, prev, prevAt(offs, i))
		if err != nil {
			t.Fatalf("keyed decode of v7 record %d: %v", i, err)
		}
		checkSameRecord(t, fmt.Sprintf("keyed v7 record %d", i), rec, dec)
	}

	// Which frame each follows (-1: plain), and which borrow a signature.
	leader := []int{-1, -1, 1, 1, 0, 0, 0, 1, -1, 8, 8, 8, -1, -1, 13, 13, 13, 13}
	borrows := map[int]bool{10: true}
	for i, lead := range leader {
		h := headOf(t, frozen[offs[i]:offs[i+1]])
		if h.follower() != (lead >= 0) || (lead >= 0 && h.back != uint64(offs[i]-offs[lead])) || (h.mask&bSig != 0) != borrows[i] {
			t.Fatalf("frame %d: follower=%v back=%d mask=%#x, want leader %d, borrowing a signature %v", i, h.follower(), h.back, h.mask, lead, borrows[i])
		}
	}
	// The response snapshot names its request digest — its leader's — in
	// one byte.
	if bytes.Contains(frozen[offs[15]:offs[16]], recs[13].Token.Digest[:]) || !bytes.Contains(frozen[offs[13]:offs[14]], recs[13].Token.Digest[:]) {
		t.Fatal("the response snapshot does not name its request digest by reference to the leader")
	}
	count, err := store.CountFrames(frozen)
	if err != nil || count.Frames != len(recs) || count.Followers != 13 || count.SigBorrowers != 1 {
		t.Fatalf("CountFrames = %+v, err %v, want %d frames, 13 followers, 1 borrowing a signature", count, err, len(recs))
	}
	// Cut at every write, the same records cost a plain frame more per
	// write that continues a run.
	if cut, _ := encodeV7(t, recs, true); len(cut)-len(frozen) < 4*64 {
		t.Fatalf("cross-write followers save %d bytes over frames cut at every write, want at least %d", len(cut)-len(frozen), 4*64)
	}
	// Version 6 lets a follower lean only on the last plain frame: the
	// client's reply, behind the other run's leader, is refused under its
	// header.
	asV6 := append([]byte(nil), frozen...)
	asV6[3] = 6
	if _, _, _, err := store.DecodeSegmentData(asV6, func(*store.Record, int64) error { return nil }); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("cross-write followers under a v6 header = %v, want ErrBinary", err)
	}
}

// ringRun is a run's first record, then the first records of others
// other runs, then the run's second record, as one encoder appends them,
// with the offset of every frame and of the end.
func ringRun(tb testing.TB, others int) (data []byte, offs []int64, recs []*store.Record) {
	tb.Helper()
	realm := testpki.MustRealm(org)
	run := id.NewRun()
	var c chain
	at := time.Unix(1760695200, 0).UTC()
	c.add(tb, at, store.Generated, newToken(tb, realm, run, 1), "request origin")
	for i := 0; i < others; i++ {
		c.add(tb, at.Add(time.Duration(i+1)*time.Millisecond), store.Generated, newToken(tb, realm, id.NewRun(), 1), "request origin")
	}
	c.add(tb, at.Add(time.Second), store.Generated, newToken(tb, realm, run, 2), "request receipt")
	data, err := store.AppendFrameRun(nil, c)
	if err != nil {
		tb.Fatal(err)
	}
	offs = []int64{store.SegmentHeaderLen}
	if _, _, _, err := store.DecodeSegmentData(data, func(_ *store.Record, n int64) error {
		offs = append(offs, offs[len(offs)-1]+n)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return data, offs, c
}

// TestBinaryV7LeaderRefusals: a version-7 follower leans on a plain frame
// among the last ringSize of its file and on nothing else. The encoder
// leans on a run's leader across the plain frames of ringSize-1 other
// runs and not across ringSize. A scan refuses a follower whose back
// lands outside its ring, on a follower, in the middle of a frame or on
// the header; a keyed read, which sees only the slot and the frames it
// names, refuses the last three and reads the first — what the follower
// took from the frame it names is pinned by its hash all the same.
func TestBinaryV7LeaderRefusals(t *testing.T) {
	t.Parallel()
	data, offs, recs := ringRun(t, ringSize-1)
	last := len(recs) - 1
	if h := headOf(t, data[offs[last]:offs[last+1]]); !h.follower() || h.back != uint64(offs[last]-offs[0]) {
		t.Fatalf("a leader %d plain frames back: follower=%v back=%d, want a follower of the first frame", ringSize-1, h.follower(), h.back)
	}
	far, fOffs, fRecs := ringRun(t, ringSize)
	fLast := len(fRecs) - 1
	if headOf(t, far[fOffs[fLast]:fOffs[fLast+1]]).follower() {
		t.Fatalf("a leader %d plain frames back is leaned on", ringSize)
	}
	outside, err := store.AppendFollower(append([]byte(nil), far[:fOffs[fLast]]...), fRecs[fLast], fRecs[0], uint64(fOffs[fLast]-fOffs[0]), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A two-run file — A, B, then A's and B's second records following
	// their leaders — whose last follower is re-pointed.
	realm := testpki.MustRealm(org)
	a, b := id.NewRun(), id.NewRun()
	var c chain
	at := time.Unix(1760695200, 0).UTC()
	for i, tok := range []*evidence.Token{newToken(t, realm, a, 1), newToken(t, realm, b, 1), newToken(t, realm, a, 2), newToken(t, realm, b, 2)} {
		c.add(t, at.Add(time.Duration(i)*time.Millisecond), store.Generated, tok, "")
	}
	two, err := store.AppendFrameRun(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	tOffs := []int64{store.SegmentHeaderLen}
	if _, _, _, err := store.DecodeSegmentData(two, func(_ *store.Record, n int64) error {
		tOffs = append(tOffs, tOffs[len(tOffs)-1]+n)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if h := headOf(t, two[tOffs[3]:tOffs[4]]); h.back != uint64(tOffs[3]-tOffs[1]) {
		t.Fatalf("control: B's second record follows back %d, want %d", h.back, tOffs[3]-tOffs[1])
	}
	type hostile struct {
		hostileRun
		prev       *sig.Digest
		prevStart  int64
		keyedReads bool
	}
	onTwo := func(back uint64) hostile {
		return hostile{repoint(two, tOffs[3], tOffs[4], back), &c[2].Hash, tOffs[2], false}
	}
	for name, bad := range map[string]hostile{
		"back outside the ring":     {hostileRun{outside, fOffs[fLast], int64(len(outside))}, &fRecs[fLast-1].Hash, fOffs[fLast-1], true},
		"back on a follower":        onTwo(uint64(tOffs[3] - tOffs[2])),
		"back in the middle of one": onTwo(uint64(tOffs[3]-tOffs[1]) - 5),
		"back on the header":        onTwo(uint64(tOffs[3] - 1)),
	} {
		n := 0
		if _, _, _, err := store.DecodeSegmentData(bad.data, func(*store.Record, int64) error { n++; return nil }); !errors.Is(err, canon.ErrBinary) {
			t.Errorf("%s: scan read %d records, err %v, want ErrBinary", name, n, err)
		}
		rec, err := store.DecodeRecordData(bad.data, bad.start, bad.end, store.EncBinary, bad.prev, bad.prevStart)
		switch {
		case bad.keyedReads && err != nil:
			t.Errorf("%s: keyed read: %v", name, err)
		case bad.keyedReads:
			checkSameRecord(t, name, fRecs[fLast], rec)
		case !errors.Is(err, canon.ErrBinary):
			t.Errorf("%s: keyed read = %v, err %v, want ErrBinary", name, rec, err)
		}
	}
}
