// Quorum replication needs the replica to hold records *before* they
// are sealed: an append only counts as durable under an N-of-M policy
// once N replicas acknowledge it, and segments seal thousands of
// records later. ReceiveTail is that path — chain-verified record
// batches append to the replica's unsealed tail, stored as the next
// segment file in the source's replica directory. Because a replica
// directory is a valid read-only vault directory, the tail records are
// immediately adjudicable from the replica (vault.Open replays them as
// the unsealed tail), and when the sealed segment eventually ships,
// Receive's verified install simply replaces the tail file with the
// source's sealed bytes.
package vault

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// replicaTail is the in-memory state of one source's unsealed replica
// tail: the records past the sealed head, held to the same chain the
// sealed history ends on.
type replicaTail struct {
	seg     uint64 // tail segment number: last sealed + 1
	records []*store.Record
	// enc is the tail file's encoding as found on disk; a file an
	// earlier build started is replaced, not appended to, on the next
	// push.
	enc store.Encoding
}

func (t *replicaTail) last() (*store.Record, bool) {
	if n := len(t.records); n > 0 {
		return t.records[n-1], true
	}
	return nil, false
}

// loadTail loads (once) the tail file of a source's replica, verifying
// its chain against the sealed head. A torn or unverifiable tail file is
// discarded — tail records are re-pushed by the source from the replica's
// acknowledged position, so the self-healing recovery is to start the
// tail again rather than refuse service. rs.mu held.
func (rs *ReplicaSet) loadTail(st *replicaState) error {
	lastSeal, haveSeal := st.last()
	tailSeg := uint64(1)
	if haveSeal {
		tailSeg = lastSeal.Segment + 1
	}
	if st.tail != nil && st.tail.seg == tailSeg {
		return nil
	}
	tail := &replicaTail{seg: tailSeg}
	path := segPath(st.dir, tailSeg)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("vault: read replica tail: %w", err)
	}
	var expectSeq uint64
	var expectHash sig.Digest
	if haveSeal {
		expectSeq, expectHash = lastSeal.LastSeq, lastSeal.LastHash
	}
	cv := store.ResumeChain(expectSeq, expectHash)
	enc, _, torn, derr := store.DecodeSegmentData(data, func(rec *store.Record, _ int64) error {
		if cerr := cv.Advance(rec); cerr != nil {
			return cerr
		}
		tail.records = append(tail.records, rec)
		return nil
	})
	if derr != nil || torn {
		// Discard and let the source re-push from the acknowledged seal.
		if rerr := os.Remove(path); rerr != nil && !os.IsNotExist(rerr) {
			return fmt.Errorf("vault: discard unverifiable replica tail: %w", rerr)
		}
		tail.records = nil
	}
	tail.enc = enc
	st.tail = tail
	return nil
}

// rebaseTail re-anchors a source's tail after a sealed segment was
// accepted: records the seal now covers drop out of the tail, and any
// remainder (pushed ahead of the seal) is rewritten as the next tail
// file. rs.mu held.
func (rs *ReplicaSet) rebaseTail(st *replicaState, e ManifestEntry) error {
	if st.tail == nil {
		return nil
	}
	var keep []*store.Record
	for _, rec := range st.tail.records {
		if rec.Seq > e.LastSeq {
			keep = append(keep, rec)
		}
	}
	st.tail = &replicaTail{seg: e.Segment + 1, records: keep, enc: store.EncBinary}
	if len(keep) == 0 {
		return nil
	}
	buf, err := store.AppendFrameRun(nil, keep)
	if err != nil {
		return err
	}
	return writeFileSync(segPath(st.dir, st.tail.seg), buf)
}

// ReceiveTail verifies and durably appends pushed unsealed records to
// the replica's tail, returning the new acknowledged sequence (the
// highest record held for source, sealed or tail). Each record must
// extend the replica's hash chain; re-deliveries of already-held tail
// records are acknowledged idempotently when they match and rejected as
// conflicts when they do not, and a batch that skips past the replica's
// position fails with ErrReplicaGap so the pusher backfills first.
func (rs *ReplicaSet) ReceiveTail(source string, records []*store.Record) (uint64, error) {
	if source == "" {
		return 0, errors.New("vault: replica source must be named")
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	st, err := rs.state(source)
	if err != nil {
		return 0, err
	}
	if err := rs.loadTail(st); err != nil {
		return 0, err
	}
	var sealedSeq uint64
	var pos uint64
	var posHash sig.Digest
	if last, ok := st.last(); ok {
		sealedSeq, pos, posHash = last.LastSeq, last.LastSeq, last.LastHash
	}
	if last, ok := st.tail.last(); ok {
		pos, posHash = last.Seq, last.Hash
	}
	cv := store.ResumeChain(pos, posHash)
	var fresh []*store.Record
	for _, rec := range records {
		if rec == nil {
			return 0, errors.New("vault: nil record in tail push")
		}
		if rec.Seq <= sealedSeq {
			// Already sealed; the seal chain pinned it long ago.
			continue
		}
		if rec.Seq <= pos {
			// Re-delivery of a held tail record: acknowledge only an
			// exact match.
			idx := int(rec.Seq - sealedSeq - 1)
			held := rec.Hash
			if idx < len(st.tail.records) {
				held = st.tail.records[idx].Hash
			} else if fi := idx - len(st.tail.records); fi >= 0 && fi < len(fresh) {
				held = fresh[fi].Hash
			}
			if held != rec.Hash {
				return 0, fmt.Errorf("%w: tail record %d conflicts with the accepted replica", ErrSealBroken, rec.Seq)
			}
			continue
		}
		if rec.Seq != pos+1 {
			return 0, fmt.Errorf("%w: tail push at %d, replica holds %d", ErrReplicaGap, rec.Seq, pos)
		}
		if cerr := cv.Check(rec); cerr != nil {
			return 0, fmt.Errorf("%w: tail record %d: %v", ErrSealBroken, rec.Seq, cerr)
		}
		fresh = append(fresh, rec)
		pos, posHash = cv.Position()
	}
	if len(fresh) == 0 {
		return pos, nil
	}
	if err := os.MkdirAll(st.dir, 0o700); err != nil {
		return 0, fmt.Errorf("vault: create replica dir: %w", err)
	}
	if _, serr := os.Stat(filepath.Join(st.dir, sourceFileName)); serr != nil {
		if err := writeFileSync(filepath.Join(st.dir, sourceFileName), []byte(source)); err != nil {
			return 0, err
		}
	}
	path := segPath(st.dir, st.tail.seg)
	if len(st.tail.records) > 0 && st.tail.enc == store.EncBinary {
		// Extend the file: a fresh encoder, so the first appended frame
		// carries its Prev and is plain — the push shares within itself —
		// and the frames decode wherever the file is cut.
		var buf []byte
		var enc store.RecordEncoder
		for _, rec := range fresh {
			var aerr error
			if buf, aerr = enc.AppendRecord(buf, rec); aerr != nil {
				return 0, aerr
			}
		}
		if err := appendFileSync(path, buf); err != nil {
			return 0, err
		}
	} else {
		// Start the file — or replace one an earlier build started in a
		// superseded encoding, which frames of this one must not extend.
		// The replacement is atomic: the held records were acknowledged.
		all := append(st.tail.records[:len(st.tail.records):len(st.tail.records)], fresh...)
		buf, aerr := store.AppendFrameRun(nil, all)
		if aerr != nil {
			return 0, aerr
		}
		if err := writeFileAtomic(path, buf); err != nil {
			return 0, err
		}
		if err := syncDirPath(st.dir); err != nil {
			return 0, err
		}
		st.tail.enc = store.EncBinary
	}
	st.tail.records = append(st.tail.records, fresh...)
	return pos, nil
}

// AckedSeq reports the highest record sequence durably held for source,
// across sealed segments and the unsealed tail — the pusher's resume
// cursor for quorum accounting.
func (rs *ReplicaSet) AckedSeq(source string) (uint64, error) {
	seq, _, err := rs.AckedPosition(source)
	return seq, err
}

// AckedPosition is AckedSeq plus the chain hash at that position — the
// verified resume point a feed-driven standby subscribes from.
func (rs *ReplicaSet) AckedPosition(source string) (uint64, sig.Digest, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	st, err := rs.state(source)
	if err != nil {
		return 0, sig.Digest{}, err
	}
	if err := rs.loadTail(st); err != nil {
		return 0, sig.Digest{}, err
	}
	if last, ok := st.tail.last(); ok {
		return last.Seq, last.Hash, nil
	}
	if last, ok := st.last(); ok {
		return last.LastSeq, last.LastHash, nil
	}
	return 0, sig.Digest{}, nil
}
