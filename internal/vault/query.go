package vault

import (
	"fmt"
	"sort"

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
	windows int // index windows decoded by keyed reads
}

// Query returns a streaming iterator over records matching q, in log
// order: sealed segments first, then the in-memory tail as of the call.
// A query keyed by run or transaction visits only the segments the
// routing maps nominate, and a cursor (AfterSeq) skips what lies behind
// it without a copy, so a query's cost tracks the result, not the log.
func (v *Vault) Query(q Query) *Iterator {
	it := &Iterator{q: q, dir: v.dir}
	var key [64]byte
	v.mu.Lock()
	// Segments are in sequence order: the first one ending past the
	// cursor is the first with anything to read.
	from := sort.Search(len(v.sealed), func(i int) bool { return v.sealed[i].Entry.LastSeq > q.AfterSeq })
	switch {
	case q.Run != "":
		it.sealed = v.routedFrom(v.runSegs[string(tableKey(key[:0], tableRuns, string(q.Run)))], from)
	case q.Txn != "":
		it.sealed = v.routedFrom(v.txnSegs[string(tableKey(key[:0], tableTxns, string(q.Txn)))], from)
	default:
		it.sealed = append([]*segmentIndex(nil), v.sealed[from:]...)
	}
	tail := v.active.records
	if len(tail) > 0 && q.AfterSeq >= tail[0].Seq {
		tail = tail[min(q.AfterSeq+1-tail[0].Seq, uint64(len(tail))):]
	}
	for _, rec := range tail {
		if q.Limit > 0 && len(it.tail) >= q.Limit {
			break
		}
		if q.Matches(rec) {
			it.tail = append(it.tail, rec)
		}
	}
	v.mu.Unlock()
	return it
}

// routedFrom resolves a routing map's segment positions (mu held),
// keeping those at or after from.
func (v *Vault) routedFrom(positions []int, from int) []*segmentIndex {
	var out []*segmentIndex
	for _, pos := range positions {
		if pos >= from {
			out = append(out, v.sealed[pos])
		}
	}
	return out
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

// cursorRange nominates the records a cursor read — a query with no
// key and no time bounds — takes from a segment its cursor or its limit
// cuts, so a page read from the middle of a sealed segment decodes the
// windows it covers rather than the whole segment. A read of the whole
// segment is left to the scan (false).
func (it *Iterator) cursorRange(idx *segmentIndex) ([]uint64, bool) {
	q := it.q
	if !q.From.IsZero() || !q.To.IsZero() {
		return nil, false
	}
	first, last := max(q.AfterSeq+1, idx.Entry.FirstSeq), idx.Entry.LastSeq
	if q.Limit > 0 {
		last = min(last, first+uint64(q.Limit-it.emitted)-1)
	}
	if first == idx.Entry.FirstSeq && last == idx.Entry.LastSeq {
		return nil, false
	}
	seqs := make([]uint64, 0, last-first+1)
	for seq := first; seq <= last; seq++ {
		seqs = append(seqs, seq)
	}
	return seqs, true
}

// loadSegment reads a sealed segment's matches: by direct offset reads
// when the posting lists apply or a cursor cuts the segment, by
// sequential scan otherwise. Every record served from disk is verified
// against the seal — its hash is derived from its bytes and chained to
// the pinned hash of its window (offset reads) or the full record chain
// and content digest (scans) — so tampered sealed evidence is reported
// as broken, never returned as authentic.
func (it *Iterator) loadSegment(idx *segmentIndex) ([]*store.Record, error) {
	if !inTimeBounds(it.q, idx.Entry) {
		return nil, nil
	}
	seqs, usedIndex, err := candidates(it.q, idx)
	if err != nil {
		return nil, err
	}
	if !usedIndex {
		seqs, usedIndex = it.cursorRange(idx)
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

	// Keyed reads map the segment once and decode each window of records
	// that holds a nominated one, walking its frames from the index's
	// offset — no sequential scan of the segment, no per-record read
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
	records := data[:size]
	slots := store.NewSlotReader(data, enc)
	broken := func(format string, args ...any) error {
		return fmt.Errorf("%w: segment %d %s", ErrSealBroken, idx.Entry.Segment, fmt.Sprintf(format, args...))
	}
	var out []*store.Record
	for len(seqs) > 0 {
		if seqs[0] < idx.firstSeq || seqs[0]-idx.firstSeq >= uint64(idx.count) {
			return nil, broken("index out of range")
		}
		w := idx.window(int(seqs[0] - idx.firstSeq))
		lo, hi := idx.bounds(w)
		it.windows++
		// The window chains from the pin before it and its read starts at
		// the frame before it — the mate of its first record, whose length
		// prefix is all that is read of it; the first window chains from
		// the Prev its first frame carries. Records of one window are
		// decoded once each, in order.
		at := idx.walkFrom(w)
		var cv *store.ChainVerifier
		prevStart := int64(-1)
		if w > 0 {
			cv = store.ResumeChain(idx.firstSeq+uint64(lo)-1, idx.pin(w-1))
			prevStart = at
			if at, err = store.FrameEnd(records, at, enc); err != nil {
				return nil, broken("window %d: %v", w, err)
			}
		}
		for i := lo; i < hi; i++ {
			seq := idx.firstSeq + uint64(i)
			end, err := store.FrameEnd(records, at, enc)
			if err != nil {
				return nil, broken("record %d: %v", seq, err)
			}
			// A frame that follows its predecessor directly elides Prev (and
			// its seq, which the window places) and is completed with the
			// hash derived for the record before it; that record's frame is
			// the mate a frame borrowing a signature leans on. A follower
			// frame finds its leader, and a plain frame its party source, in
			// the mapping itself — parsed once for the whole segment read.
			var prev *sig.Digest
			if cv != nil {
				_, h := cv.Position()
				prev = &h
			}
			rec, err := slots.Decode(at, end, seq, prev, prevStart)
			if err != nil {
				// A sealed record that cannot be read back is a broken seal.
				return nil, broken("record %d: %v", seq, err)
			}
			if cv == nil {
				cv = store.ResumeChain(seq-1, rec.Prev)
			}
			if err := cv.Advance(rec); err != nil {
				return nil, broken("record %d: %v", seq, err)
			}
			if len(seqs) > 0 && seqs[0] == seq {
				if it.q.Matches(rec) {
					out = append(out, rec)
				}
				seqs = seqs[1:]
			}
			prevStart, at = at, end
		}
		// The segment's last record ends where the seal says the segment
		// does.
		if hi == idx.count && at != size {
			return nil, broken("records end at %d of %d bytes", at, size)
		}
		// Authenticate before serving — nothing is returned unless every
		// window holds: the decoder derived each record's hash from its
		// frame's own bytes, what it borrowed from its leader's and its
		// mate's, and the hash before it (and held a stored hash, where
		// the format has one, to that), so an edited body anywhere in the
		// window — the frame's, its leader's or its mate's, checksum fixed
		// up or not — cannot reproduce the hash the seal pins at the
		// window's end.
		if _, last := cv.Position(); last != idx.pin(w) {
			return nil, broken("window %d hash differs from seal", w)
		}
	}
	return out, nil
}
