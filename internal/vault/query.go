package vault

import (
	"fmt"

	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// Query selects evidence records for adjudication; see store.Query.
type Query = store.Query

// indexed reports whether q can be answered from posting lists.
func indexed(q Query) bool {
	return q.Run != "" || q.Txn != "" || q.Party != "" || q.Kind != ""
}

// inTimeBounds reports whether a segment's sealed time range can contain
// matches of q.
func inTimeBounds(q Query, e ManifestEntry) bool {
	if !q.From.IsZero() && e.LastAt.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && e.FirstAt.After(q.To) {
		return false
	}
	return true
}

// candidates returns the ascending sequence numbers a segment's index
// nominates for q, and whether the posting lists applied (false means scan
// everything).
func candidates(q Query, idx *segmentIndex) ([]uint64, bool, error) {
	if !indexed(q) {
		return nil, false, nil
	}
	var seqs []uint64
	have := false
	for _, sel := range [...]struct {
		table int
		key   string
	}{
		{tableRuns, string(q.Run)}, {tableTxns, string(q.Txn)},
		{tableParties, string(q.Party)}, {tableKinds, string(q.Kind)},
	} {
		if sel.key == "" {
			continue
		}
		list, err := idx.lookup(sel.table, sel.key)
		if err != nil {
			return nil, true, err
		}
		if have {
			list = intersectSeqs(seqs, list)
		}
		seqs, have = list, true
	}
	return seqs, true, nil
}

// Iterator streams query results in log order without materialising the
// log. It satisfies core's RecordSource.
type Iterator struct {
	q       Query
	dir     string
	sealed  []*segmentIndex
	segPos  int
	pending []*store.Record
	pendPos int
	tail    []*store.Record
	tailPos int
	emitted int
	cur     *store.Record
	err     error
}

// Query returns a streaming iterator over records matching q, in log
// order: sealed segments first, then the in-memory tail as of the call.
// A query keyed by run or transaction visits only the segments the
// routing maps nominate, so its cost tracks the result, not the log.
func (v *Vault) Query(q Query) *Iterator {
	it := &Iterator{q: q, dir: v.dir}
	var key [64]byte
	v.mu.Lock()
	switch {
	case q.Run != "":
		for _, pos := range v.runSegs[string(tableKey(key[:0], tableRuns, string(q.Run)))] {
			it.sealed = append(it.sealed, v.sealed[pos])
		}
	case q.Txn != "":
		for _, pos := range v.txnSegs[string(tableKey(key[:0], tableTxns, string(q.Txn)))] {
			it.sealed = append(it.sealed, v.sealed[pos])
		}
	default:
		it.sealed = make([]*segmentIndex, len(v.sealed))
		copy(it.sealed, v.sealed)
	}
	for _, rec := range v.active.records {
		if q.Matches(rec) {
			it.tail = append(it.tail, rec)
		}
	}
	v.mu.Unlock()
	return it
}

// QueryAll collects every matching record.
func (v *Vault) QueryAll(q Query) ([]*store.Record, error) {
	it := v.Query(q)
	var out []*store.Record
	for it.Next() {
		out = append(out, it.Record())
	}
	return out, it.Err()
}

// Next advances to the next matching record, reporting whether one is
// available. After Next returns false, consult Err.
func (it *Iterator) Next() bool {
	if it.err != nil {
		return false
	}
	for {
		if it.q.Limit > 0 && it.emitted >= it.q.Limit {
			return false
		}
		if it.pendPos < len(it.pending) {
			it.cur = it.pending[it.pendPos]
			it.pendPos++
			it.emitted++
			return true
		}
		if it.segPos < len(it.sealed) {
			idx := it.sealed[it.segPos]
			it.segPos++
			pending, err := it.loadSegment(idx)
			if err != nil {
				it.err = err
				return false
			}
			it.pending, it.pendPos = pending, 0
			continue
		}
		if it.tailPos < len(it.tail) {
			it.cur = it.tail[it.tailPos]
			it.tailPos++
			it.emitted++
			return true
		}
		return false
	}
}

// Record returns the record Next advanced to.
func (it *Iterator) Record() *store.Record { return it.cur }

// Err returns the first error the iterator hit.
func (it *Iterator) Err() error { return it.err }

// loadSegment reads a sealed segment's matches: by direct offset reads
// when the posting lists apply, by sequential scan otherwise. Every
// record served from disk is verified against the seal — its hash is
// derived from its bytes and compared with the pinned hash list (keyed
// reads) or the full record chain and content digest (scans) — so
// tampered sealed evidence is reported as broken, never returned as
// authentic.
func (it *Iterator) loadSegment(idx *segmentIndex) ([]*store.Record, error) {
	// A segment wholly behind the resume cursor is skipped without a
	// read; the cursor makes repeated paging queries cost the remainder.
	if idx.Entry.LastSeq <= it.q.AfterSeq {
		return nil, nil
	}
	if !inTimeBounds(it.q, idx.Entry) {
		return nil, nil
	}
	seqs, usedIndex, err := candidates(it.q, idx)
	if err != nil {
		return nil, err
	}
	if usedIndex && len(seqs) == 0 {
		return nil, nil
	}
	path := segPath(it.dir, idx.Entry.Segment)
	if !usedIndex {
		var out []*store.Record
		_, err := readSealedSegment(it.dir, idx.Entry, nil, func(rec *store.Record, _ int64) error {
			if it.q.Matches(rec) {
				out = append(out, rec)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}

	// Keyed reads map the segment once and decode each nominated record
	// from its indexed byte slot — no sequential scan, no per-record read
	// syscall. The encoding is the file's own; offsets from a JSON-era
	// index address JSON lines, binary-era offsets address binary frames.
	data, release, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("vault: open segment %d: %w", idx.Entry.Segment, err)
	}
	defer release()
	enc := store.DetectEncoding(data)
	size := idx.size
	if size == 0 || size > int64(len(data)) {
		size = int64(len(data))
	}
	var out []*store.Record
	for _, seq := range seqs {
		if seq < idx.firstSeq || seq-idx.firstSeq >= uint64(idx.count) {
			return nil, fmt.Errorf("%w: segment %d index out of range", ErrSealBroken, idx.Entry.Segment)
		}
		i := int(seq - idx.firstSeq)
		start := idx.offset(i)
		end := size
		if i+1 < idx.count {
			end = idx.offset(i + 1)
		}
		if start < 0 || end < start || end > int64(len(data)) {
			return nil, fmt.Errorf("%w: segment %d index offsets out of range", ErrSealBroken, idx.Entry.Segment)
		}
		// A frame that follows its predecessor directly elides Prev; the
		// predecessor's hash is pinned in the index beside its own. A
		// follower frame finds its leader in the mapping itself.
		var prev *sig.Digest
		if i > 0 {
			h := idx.hash(i - 1)
			prev = &h
		}
		rec, err := store.DecodeRecordData(data, start, end, enc, prev)
		if err != nil {
			// A sealed record that cannot be read back is a broken seal.
			return nil, fmt.Errorf("%w: segment %d record %d: %v", ErrSealBroken, idx.Entry.Segment, seq, err)
		}
		// Authenticate before serving: the decoder derived the record's
		// hash from the frame's own bytes, what it borrowed from its
		// leader's, and the pinned hash before it (and held a stored hash,
		// where the format has one, to that), so an edited body — the
		// frame's or its leader's, checksum fixed up or not — cannot
		// reproduce the hash pinned under the seal at its position.
		if rec.Hash != idx.hash(i) {
			return nil, fmt.Errorf("%w: segment %d record %d hash differs from seal", ErrSealBroken, idx.Entry.Segment, seq)
		}
		if it.q.Matches(rec) {
			out = append(out, rec)
		}
	}
	return out, nil
}
