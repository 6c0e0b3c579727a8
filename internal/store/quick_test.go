package store_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

// TestQuickChainVerifiesForAnySequence: any sequence of appended tokens
// yields a verifiable chain.
func TestQuickChainVerifiesForAnySequence(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	issuer := realm.Party(org).Issuer
	f := func(payloads [][]byte) bool {
		var records chain
		for i, payload := range payloads {
			tok, err := issuer.Issue(evidence.KindNRO, id.NewRun(), i, sig.Sum(payload))
			if err != nil {
				return false
			}
			dir := store.Generated
			if i%2 == 1 {
				dir = store.Received
			}
			records.add(t, realm.Clock.Now(), dir, tok, "note")
		}
		return store.VerifyRecords(records) == nil && len(records) == len(payloads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeDerivesAppendedHash: for any sequence of appended
// tokens and notes, the hash a decoder derives from a frame is the hash
// the log chained when it appended the record — as a run (Prev elided)
// and as stand-alone frames.
func TestQuickDecodeDerivesAppendedHash(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	issuer := realm.Party(org).Issuer
	f := func(payloads [][]byte, notes []string) bool {
		var recs chain
		for i, payload := range payloads {
			tok, err := issuer.Issue(evidence.KindNRR, id.NewRun(), i, sig.Sum(payload))
			if err != nil {
				return false
			}
			note := "request receipt"
			if len(notes) > 0 && i%2 == 1 {
				note = notes[i%len(notes)]
			}
			recs.add(t, realm.Clock.Now(), store.Received, tok, note)
		}
		run, err := store.AppendFrameRun(nil, recs)
		if err != nil {
			return false
		}
		i := 0
		if err := store.DecodeFrameRun(run, func(rec *store.Record) error {
			if rec.Hash != recs[i].Hash || rec.Prev != recs[i].Prev || rec.Note != recs[i].Note {
				t.Errorf("record %d of a run decoded to a different hash, link or note", i)
			}
			i++
			return nil
		}); err != nil || i != len(recs) {
			return false
		}
		for _, rec := range recs {
			frame, err := store.AppendRecordBinary(nil, rec)
			if err != nil {
				return false
			}
			if dec, _, err := store.DecodeRecordFrame(frame); err != nil || dec.Hash != rec.Hash {
				return false
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAnySingleMutationBreaksChain: mutating any one record of a
// chain (note, direction, sequence, or token binding) is always detected.
func TestQuickAnySingleMutationBreaksChain(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	issuer := realm.Party(org).Issuer
	rng := rand.New(rand.NewSource(7))

	build := func(n int) []*store.Record {
		var records chain
		for i := 0; i < n; i++ {
			tok, err := issuer.Issue(evidence.KindNRO, id.NewRun(), i, sig.Sum([]byte{byte(i)}))
			if err != nil {
				t.Fatal(err)
			}
			records.add(t, realm.Clock.Now(), store.Generated, tok, "n")
		}
		return records
	}

	f := func(seed uint8) bool {
		n := 2 + int(seed)%6
		records := build(n)
		idx := rng.Intn(n)
		switch rng.Intn(4) {
		case 0:
			records[idx].Note = records[idx].Note + "x"
		case 1:
			records[idx].Direction = store.Received
			if idx%2 == 1 {
				records[idx].Direction = store.Generated
			}
			records[idx].Note = "flipped"
		case 2:
			records[idx].Seq += 7
		case 3:
			records[idx].At = records[idx].At.Add(1)
		}
		return store.VerifyRecords(records) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRecordRemovalOrReorderDetected: dropping or swapping records is
// always detected — the log is append-only in a verifiable sense.
func TestQuickRecordRemovalOrReorderDetected(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	issuer := realm.Party(org).Issuer
	var records chain
	for i := 0; i < 8; i++ {
		tok, err := issuer.Issue(evidence.KindNRO, id.NewRun(), i, sig.Sum([]byte{byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		records.add(t, realm.Clock.Now(), store.Generated, tok, "")
	}

	// Drop an interior record.
	dropped := append(append([]*store.Record(nil), records[:3]...), records[4:]...)
	if store.VerifyRecords(dropped) == nil {
		t.Fatal("chain verified after record removal")
	}
	// Swap two records.
	swapped := append([]*store.Record(nil), records...)
	swapped[2], swapped[5] = swapped[5], swapped[2]
	if store.VerifyRecords(swapped) == nil {
		t.Fatal("chain verified after reorder")
	}
	// Truncate the tail: NOT detectable by the chain alone (a prefix is
	// a valid chain) — this is why parties exchange receipts; document
	// the boundary of the guarantee here.
	truncated := records[:6]
	if store.VerifyRecords(truncated) != nil {
		t.Fatal("prefix of a valid chain should verify (guarantee boundary)")
	}
}

// TestQuickBatchSignedRoundTrip: the tokens of one batch signature, of
// any size from 1 to 64, laid out in any order and cut into writes
// anywhere, decode — scanned and by keyed slot — to the records encoded,
// and every signature, borrowed from a mate or written out, verifies.
func TestQuickBatchSignedRoundTrip(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(org)
	issuer := realm.Party(org).Issuer
	verifier := realm.Verifier()
	borrowed := 0
	f := func(size uint8, seed int64) bool {
		n := int(size)%64 + 1
		rng := rand.New(rand.NewSource(seed))
		run := id.NewRun()
		reqs := make([]evidence.TokenRequest, n)
		for i := range reqs {
			reqs[i] = evidence.TokenRequest{Kind: evidence.KindPostmark, Run: run, Step: i, Digest: sig.Sum([]byte{byte(i)})}
		}
		toks, err := issuer.IssueBatch(reqs)
		if err != nil {
			t.Error(err)
			return false
		}
		var recs chain
		for _, i := range rng.Perm(n) {
			recs.add(t, realm.Clock.Now(), store.Generated, toks[i], "epm postmark")
		}
		hdr := store.SegmentHeader()
		seg := append([]byte(nil), hdr[:]...)
		offs := []int64{}
		var enc store.RecordEncoder
		for _, rec := range recs {
			if rng.Intn(4) == 0 {
				enc.Cut()
			}
			offs = append(offs, int64(len(seg)))
			if seg, err = enc.AppendRecord(seg, rec); err != nil {
				t.Error(err)
				return false
			}
		}
		offs = append(offs, int64(len(seg)))
		check := func(what string, i int, rec *store.Record) bool {
			w, werr := canon.Marshal(recs[i])
			g, gerr := canon.Marshal(rec)
			if werr != nil || gerr != nil || !bytes.Equal(w, g) || rec.Hash != recs[i].Hash {
				t.Errorf("%s record %d of %d drifted", what, i, n)
				return false
			}
			if err := verifier.Verify(rec.Token); err != nil {
				t.Errorf("%s record %d of %d does not verify: %v", what, i, n, err)
				return false
			}
			return true
		}
		i := 0
		if _, _, _, err := store.DecodeSegmentData(seg, func(rec *store.Record, _ int64) error {
			if !check("scanned", i, rec) {
				return errors.New("drift")
			}
			i++
			return nil
		}); err != nil || i != n {
			return false
		}
		for i := range recs {
			var prev *sig.Digest
			if i > 0 {
				prev = &recs[i-1].Hash
			}
			dec, err := store.DecodeRecordData(seg, offs[i], offs[i+1], store.EncBinary, recs[i].Seq, prev, prevAt(offs, i))
			if err != nil {
				t.Errorf("keyed record %d of %d: %v", i, n, err)
				return false
			}
			if !check("keyed", i, dec) {
				return false
			}
		}
		count, err := store.CountFrames(seg)
		borrowed += count.SigBorrowers
		return err == nil && count.Frames == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if borrowed == 0 {
		t.Fatal("no frame borrowed its signature in any layout")
	}
}
