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

// goldenV10Extra issues the records the format-10 golden segment holds
// after the format-9 golden's, chained on from after:
//
//	a durable call's job-enqueued       {JobEnqueued}   frame 25
//	its request origin                  {NRO}           frame 26
//	its receipt and response origin     {NRR, NROResp}  frames 27-28
//	the client's receipt of that        {NRRResp}       frame 29
//	the job's outcome                   {JobDone}       frame 30
//	a call's request origin             {NRO}           frame 31
//	its receipt and response origin     {NRR, NROResp}  frames 32-33
//	another call's request, time-stamped {NRO}          frame 34
//	the client's receipt, not consumed  {NRRResp}       frame 35
//	a TTP's substitute receipt          {Substitute}    frame 36
//
// The journal records and the durable response origin are signed over the
// digest of their JSON notes, so they derive their digests from them; the
// durable run's receipt writes its digest, because the response origin it
// acknowledges derives its own. The second call's receipt and the TTP's
// substitute are receipts of its response origin, which is two frames
// before the first and three before the second; the time-stamped request
// writes its stamp's Ed25519 signature without a length.
func goldenV10Extra(t *testing.T, after *store.Record) []*store.Record {
	t.Helper()
	const client, server, ttp = id.Party("urn:org:client"), id.Party("urn:org:server"), id.Party("urn:org:ttp")
	realm := testpki.MustRealm(client, server, ttp)
	issue := func(p id.Party, kind evidence.Kind, run id.Run, step int, digest sig.Digest, to ...id.Party) *evidence.Token {
		tok, err := realm.Party(p).Issuer.Issue(kind, run, step, digest, evidence.WithRecipients(to...), evidence.WithService("urn:org:server/echo"))
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	pair := func(run id.Run, request, response sig.Digest) []*evidence.Token {
		opts := []evidence.IssueOption{evidence.WithRecipients(client), evidence.WithService("urn:org:server/echo")}
		toks, err := realm.Party(server).Issuer.IssueBatch([]evidence.TokenRequest{
			{Kind: evidence.KindNRR, Run: run, Step: 2, Digest: request, Opts: opts},
			{Kind: evidence.KindNROResp, Run: run, Step: 3, Digest: response, Opts: opts},
		})
		if err != nil {
			t.Fatal(err)
		}
		return toks
	}
	receipt := func(run id.Run, resp *evidence.Token, c evidence.Consumption) sig.Digest {
		d, ok := evidence.ReceiptOf(run, resp, c)
		if !ok {
			t.Fatal("the response origin names no client")
		}
		return d
	}
	note := func(v any) string {
		raw, err := canon.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	job, call := id.NewRun(), id.NewRun()
	spec := note(map[string]any{"job": job, "type": "call", "server": server, "operation": "Echo"})
	snapshot := note(map[string]any{"run": job, "status": "ok", "results": []any{}})
	done := note(map[string]any{"job": job, "attempts": 1})
	durable := pair(job, sig.Sum([]byte("durable request")), sig.Sum([]byte(snapshot)))
	direct := pair(call, sig.Sum([]byte("request")), sig.Sum([]byte("response")))
	stamped, err := realm.StampedIssuer(client).Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("stamped")), evidence.WithRecipients(server))
	if err != nil {
		t.Fatal(err)
	}
	c := chain{after}
	for i, e := range []struct {
		dir  store.Direction
		tok  *evidence.Token
		note string
	}{
		{store.Generated, issue(client, evidence.KindJobEnqueued, job, 0, sig.Sum([]byte(spec))), spec},
		{store.Generated, issue(client, evidence.KindNRO, job, 1, sig.Sum([]byte("durable request")), server), "request origin"},
		{store.Received, durable[0], "request receipt"},
		{store.Received, durable[1], snapshot},
		{store.Generated, issue(client, evidence.KindNRRResp, job, 4, receipt(job, durable[1], evidence.Consumed), server), "response receipt (consumed)"},
		{store.Generated, issue(client, evidence.KindJobDone, job, 0, sig.Sum([]byte(done))), done},
		{store.Generated, issue(client, evidence.KindNRO, call, 1, sig.Sum([]byte("request")), server), "request origin"},
		{store.Received, direct[0], "request receipt"},
		{store.Received, direct[1], "response origin (ok)"},
		{store.Generated, stamped, "request origin"},
		{store.Generated, issue(client, evidence.KindNRRResp, call, 4, receipt(call, direct[1], evidence.NotConsumed), server), "response receipt (not-consumed)"},
		{store.Received, issue(ttp, evidence.KindSubstitute, call, 5, receipt(call, direct[1], evidence.Consumed), server), "substitute receipt"},
	} {
		c.add(t, after.At.Add(time.Duration(i+1)*time.Millisecond), e.dir, e.tok, e.note)
	}
	return c[1:]
}

// TestBinaryV10GoldenSegment freezes format 10: the records of
// testdata/v10/golden.jsonl — the format-9 golden's, then
// goldenV10Extra's — encode byte for byte to testdata/v10/golden-v10.seg
// and decode from it, scanned and by keyed slot, to the same canonical
// JSON, hashes and signatures. The format-9 records keep their layout;
// of the records after them, the three over their notes derive their
// digests from them, the receipt and the substitute rebuild theirs from
// the response origin they name, and everything else writes its digest or
// takes its leader's. Under a version-9 header the derived forms are
// refused.
func TestBinaryV10GoldenSegment(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "v10")
	_, v9 := readRecords(t, filepath.Join("testdata", "v9", "golden.jsonl"))
	if *updateGolden {
		recs := append(v9[:len(v9):len(v9)], goldenV10Extra(t, v9[len(v9)-1])...)
		var lines []byte
		for _, rec := range recs {
			line, err := canon.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(append(lines, line...), '\n')
		}
		seg, _ := encodeFile(t, recs, false)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{"golden.jsonl": lines, "golden-v10.seg": seg} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	jsonl, golden := readRecords(t, filepath.Join(dir, "golden.jsonl"))
	frozen, err := os.ReadFile(filepath.Join(dir, "golden-v10.seg"))
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSpace(jsonl), []byte("\n"))
	if len(golden) != len(v9)+12 || frozen[3] != 10 {
		t.Fatalf("golden.jsonl holds %d records, want format 9's %d and 12 more; the frozen file says version %d", len(golden), len(v9), frozen[3])
	}
	for i := range v9 {
		checkSameRecord(t, fmt.Sprintf("v10 golden record %d against v9", i), v9[i], golden[i])
	}
	if encoded, _ := encodeFile(t, golden, false); !bytes.Equal(encoded, frozen) {
		t.Fatalf("the encoder no longer writes the frozen format-10 bytes (%d bytes, frozen %d)", len(encoded), len(frozen))
	}
	recs, offs := scanGolden(t, "v10", frozen, want, store.EncBinary)
	for i, rec := range recs {
		var prev *sig.Digest
		if i > 0 {
			prev = &recs[i-1].Hash
		}
		dec, err := store.DecodeRecordData(frozen, offs[i], offs[i+1], store.EncBinary, rec.Seq, prev, prevAt(offs, i))
		if err != nil {
			t.Fatalf("keyed decode of v10 record %d: %v", i, err)
		}
		checkSameRecord(t, fmt.Sprintf("keyed v10 record %d", i), rec, dec)
	}

	// Which frame each of the new records follows (-1: plain).
	leader := map[int]int{25: -1, 26: -1, 27: 26, 28: 26, 29: 26, 30: 26, 31: -1, 32: 31, 33: 31, 34: -1, 35: 31, 36: 31}
	for i, lead := range leader {
		h := headOf(t, frozen[offs[i]:offs[i+1]])
		if h.follower() != (lead >= 0) || (lead >= 0 && h.back != uint64(offs[i]-offs[lead])) {
			t.Fatalf("frame %d: follower=%v back=%d, want leader %d", i, h.follower(), h.back, lead)
		}
	}
	// The frames that derive their digests do not write them; the durable
	// run's receipt, whose response origin derives its own, writes its.
	derives := map[int]bool{25: true, 28: true, 30: true, 35: true, 36: true, 29: false}
	for i, derived := range derives {
		if d := recs[i].Token.Digest; bytes.Contains(frozen[offs[i]:offs[i+1]], d[:]) == derived {
			t.Fatalf("frame %d writes its digest: %v, want %v", i, derived, !derived)
		}
	}
	stamp := recs[34].Token.Timestamp.Signature.Bytes
	if frame := frozen[offs[34]:offs[35]]; len(stamp) != sig.FixedBytesLen || !bytes.Contains(frame, stamp) || bytes.Contains(frame, append([]byte{sig.FixedBytesLen}, stamp...)) {
		t.Fatal("the time-stamped request does not write its stamp's signature without a length")
	}
	count, err := store.CountFrames(frozen)
	// The format-8 golden's durable run journals two records over their
	// notes too.
	if err != nil || count.Frames != len(recs) || count.Digests[store.DigestNote] != 3+2 || count.Digests[store.DigestReceipt] != 2 {
		t.Fatalf("CountFrames = %+v, err %v, want %d frames, 5 digests from notes, 2 receipts", count, err, len(recs))
	}
	v9count, err := store.CountFrames(mustRead(t, filepath.Join("testdata", "v9", "golden-v9.seg")))
	if err != nil || v9count.Digests[store.DigestNote]+v9count.Digests[store.DigestReceipt] != 0 {
		t.Fatalf("format 9 derives digests: %+v, err %v", v9count.Digests, err)
	}

	// Version 9 knows no derived digests: the frames are refused under
	// its header.
	asV9 := append([]byte(nil), frozen...)
	asV9[3] = 9
	if _, _, _, err := store.DecodeSegmentData(asV9, func(*store.Record, int64) error { return nil }); !errors.Is(err, canon.ErrBinary) {
		t.Fatalf("format-10 frames under a v9 header = %v, want ErrBinary", err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// receiptRun is two calls' evidence as a server's vault holds it, as one
// push: call A's {NRO, NRR, NROResp} (frames 0-2), call B's (frames 3-5),
// then A's receipt (frame 6), which rebuilds its digest from A's response
// origin, four frames before it. A run C follows (frames 7-10) whose
// response origin derives its digest from its note, and whose receipt
// therefore writes its own.
func receiptRun(tb testing.TB) (data []byte, offs []int64, recs []*store.Record) {
	tb.Helper()
	const client, server = id.Party("urn:org:client"), id.Party("urn:org:server")
	realm := testpki.MustRealm(client, server)
	var c chain
	at := time.Unix(1760832000, 0).UTC()
	add := func(dir store.Direction, tok *evidence.Token, note string) {
		c.add(tb, at.Add(time.Duration(len(c))*time.Millisecond), dir, tok, note)
	}
	call := func(run id.Run, response string) *evidence.Token {
		nro, err := realm.Party(client).Issuer.Issue(evidence.KindNRO, run, 1, sig.Sum([]byte("request")), evidence.WithRecipients(server))
		if err != nil {
			tb.Fatal(err)
		}
		opts := []evidence.IssueOption{evidence.WithRecipients(client)}
		pair, err := realm.Party(server).Issuer.IssueBatch([]evidence.TokenRequest{
			{Kind: evidence.KindNRR, Run: run, Step: 2, Digest: nro.Digest, Opts: opts},
			{Kind: evidence.KindNROResp, Run: run, Step: 3, Digest: sig.Sum([]byte(response)), Opts: opts},
		})
		if err != nil {
			tb.Fatal(err)
		}
		note := "response origin (ok)"
		if response[0] == '{' {
			note = response
		}
		add(store.Received, nro, "request origin")
		add(store.Generated, pair[0], "request receipt")
		add(store.Generated, pair[1], note)
		return pair[1]
	}
	receipt := func(run id.Run, resp *evidence.Token) {
		d, ok := evidence.ReceiptOf(run, resp, evidence.Consumed)
		if !ok {
			tb.Fatal("the response origin names no client")
		}
		tok, err := realm.Party(client).Issuer.Issue(evidence.KindNRRResp, run, 4, d, evidence.WithRecipients(server))
		if err != nil {
			tb.Fatal(err)
		}
		add(store.Received, tok, "response receipt (consumed)")
	}
	a, b, cRun := id.NewRun(), id.NewRun(), id.NewRun()
	respA := call(a, "response")
	call(b, "response")
	receipt(a, respA)
	respC := call(cRun, `{"status":"ok"}`)
	receipt(cRun, respC)
	data, err := store.AppendFrameRun(nil, c)
	if err != nil {
		tb.Fatal(err)
	}
	offs = frameOffsets(tb, data)
	count, err := store.CountFrames(data)
	if err != nil || count.Digests[store.DigestReceipt] != 1 || count.Digests[store.DigestNote] != 1 ||
		bytes.Contains(data[offs[6]:offs[7]], c[6].Token.Digest[:]) || !bytes.Contains(data[offs[10]:offs[11]], c[10].Token.Digest[:]) {
		tb.Fatalf("control: digests %v, err %v, want A's receipt rebuilt and C's written", count.Digests, err)
	}
	return data, offs, c
}

// hostileV10 are runs that end in a receipt naming, as the response
// origin its digest is the receipt of, what it may not: a point inside a
// frame, another run's response origin, which follows another leader, a
// frame of its run that is no response origin, its leader, a point before
// the segment, a response origin that derives its own digest — or a plain
// frame that claims a receipt's digest; and format-10 frames under a
// version-9 header. Each keeps valid checksums, and each receipt's digest
// is the receipt of the frame it names, so the refusal is the decoder's
// own.
func hostileV10(tb testing.TB) map[string]hostileRun {
	tb.Helper()
	data, offs, recs := receiptRun(tb)
	lead := recs[0]
	// aimed is A's receipt rebuilt to name resp, back bytes before it,
	// followed by the frames before it or, as a plain frame, by none.
	aimed := func(resp *store.Record, back int64, follows bool) hostileRun {
		d, ok := evidence.ReceiptOf(lead.Token.Run, resp.Token, evidence.Consumed)
		if !ok {
			tb.Fatal("test setup: the named frame has no sole recipient")
		}
		tok := *recs[6].Token
		tok.Digest = d
		rec, err := store.NextRecord(recs[5].Seq, recs[5].Hash, recs[6].At, recs[6].Direction, &tok, recs[6].Note)
		if err != nil {
			tb.Fatal(err)
		}
		var l *store.Record
		if follows {
			l = lead
		}
		out, err := store.AppendReceipt(append([]byte(nil), data[:offs[6]]...), rec, l, uint64(offs[6]-offs[0]), nil, resp, uint64(back))
		if err != nil {
			tb.Fatal(err)
		}
		return hostileRun{out, offs[6], int64(len(out))}
	}
	// C's receipt rebuilt to name C's response origin.
	cOut, err := store.AppendReceipt(append([]byte(nil), data[:offs[10]]...), recs[10], recs[7], uint64(offs[10]-offs[7]), nil, recs[9], uint64(offs[10]-offs[9]))
	if err != nil {
		tb.Fatal(err)
	}
	asV9 := append([]byte(nil), data[:offs[7]]...)
	asV9[3] = 9
	return map[string]hostileRun{
		"inside a frame":                     aimed(recs[2], offs[6]-offs[2]-1, true),
		"another run's response origin":      aimed(recs[5], offs[6]-offs[5], true),
		"a receipt of the run":               aimed(recs[1], offs[6]-offs[1], true),
		"the leader":                         aimed(recs[0], offs[6]-offs[0], true),
		"before the segment":                 aimed(recs[2], offs[6]+8, true),
		"a response origin that derives":     {cOut, offs[10], int64(len(cOut))},
		"a plain frame":                      aimed(recs[2], offs[6]-offs[2], false),
		"format-10 frames under a v9 header": {asV9, offs[6], offs[7]},
	}
}

// TestBinaryV10ReceiptRefusals: what hostileV10 names as a response
// origin is corruption to a scan and to a keyed read alike — an error,
// never a panic or a record the frame does not hold.
func TestBinaryV10ReceiptRefusals(t *testing.T) {
	t.Parallel()
	data, offs, recs := receiptRun(t)
	if rec, err := store.DecodeRecordData(data, offs[6], offs[7], store.EncBinary, recs[6].Seq, &recs[5].Hash, offs[5]); err != nil || rec.Hash != recs[6].Hash {
		t.Fatalf("control: keyed read of the receipt = %v, err %v", rec, err)
	}
	for name, bad := range hostileV10(t) {
		n := 0
		if _, _, _, err := store.DecodeSegmentData(bad.data, func(*store.Record, int64) error { n++; return nil }); !errors.Is(err, canon.ErrBinary) {
			t.Errorf("%s: scan read %d records, err %v, want ErrBinary", name, n, err)
		}
		prev := sig.Sum([]byte("any predecessor"))
		if rec, err := store.DecodeRecordData(bad.data, bad.start, bad.end, store.DetectEncoding(bad.data), 7, &prev, -1); !errors.Is(err, canon.ErrBinary) {
			t.Errorf("%s: keyed read = %v, err %v, want ErrBinary", name, rec, err)
		}
	}
}

// TestBinaryDerivedDigestsExactOrLiteral: a digest is derived only where
// the derivation reproduces it — a note that is not what the token
// covers, a coded note even when the token covers its word, and a receipt
// of the response origin under another client or over another response
// leave the digest written, and every record reads back as written.
func TestBinaryDerivedDigestsExactOrLiteral(t *testing.T) {
	t.Parallel()
	const client, server = id.Party("urn:org:client"), id.Party("urn:org:server")
	realm := testpki.MustRealm(client, server)
	run := id.NewRun()
	issue := func(p id.Party, kind evidence.Kind, step int, digest sig.Digest, to id.Party) *evidence.Token {
		tok, err := realm.Party(p).Issuer.Issue(kind, run, step, digest, evidence.WithRecipients(to))
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	nro := issue(client, evidence.KindNRO, 1, sig.Sum([]byte("request")), server)
	resp := issue(server, evidence.KindNROResp, 3, sig.Sum([]byte("response")), client)
	other := *resp
	other.Recipients = []id.Party{"urn:org:other"}
	receipt := func(resp *evidence.Token, c evidence.Consumption) sig.Digest {
		d, _ := evidence.ReceiptOf(run, resp, c)
		return d
	}
	at := time.Unix(1760832000, 0).UTC()
	var c chain
	c.add(t, at, store.Received, nro, "request origin")
	c.add(t, at, store.Generated, resp, "response origin (ok)")
	for _, e := range []struct {
		tok  *evidence.Token
		note string
	}{
		{issue(client, evidence.KindJobDone, 0, sig.Sum([]byte(`{"job":1}`)), server), `{"job":2}`},
		{issue(client, evidence.KindJobDone, 0, sig.Sum([]byte("request origin")), server), "request origin"},
		{issue(client, evidence.KindNRRResp, 4, receipt(&other, evidence.Consumed), server), "response receipt (consumed)"},
		{issue(client, evidence.KindNRRResp, 4, sig.Sum([]byte("another response")), server), "response receipt (consumed)"},
	} {
		c.add(t, at, store.Generated, e.tok, e.note)
	}
	data, err := store.AppendFrameRun(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, data)
	for i := 2; i < len(c); i++ {
		if d := c[i].Token.Digest; !bytes.Contains(data[offs[i]:offs[i+1]], d[:]) {
			t.Fatalf("frame %d derives a digest its derivation does not reproduce", i)
		}
	}
	var back []*store.Record
	if err := store.DecodeFrameRun(data, func(rec *store.Record) error { back = append(back, rec); return nil }); err != nil || len(back) != len(c) {
		t.Fatalf("decoded %d records, err %v", len(back), err)
	}
	for i := range c {
		checkSameRecord(t, fmt.Sprintf("record %d", i), c[i], back[i])
	}
}
