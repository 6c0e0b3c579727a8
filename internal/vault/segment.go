package vault

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
)

const (
	manifestName = "MANIFEST"
	segFormat    = "seg-%08d.log"
	idxFormat    = "seg-%08d.idx"
)

func segPath(dir string, n uint64) string { return filepath.Join(dir, fmt.Sprintf(segFormat, n)) }
func idxPath(dir string, n uint64) string { return filepath.Join(dir, fmt.Sprintf(idxFormat, n)) }

// ManifestEntry seals one segment. Entries form their own hash chain
// (Prev links to the preceding entry's Digest), so tamper evidence
// survives segment rotation: a sealed segment cannot be rewritten, dropped
// or reordered without breaking either the record chain, the entry chain
// or the segment content digest. The type is exported because seals now
// travel: replication ships each sealed segment together with its entry,
// and receivers re-verify the chain before accepting the copy.
type ManifestEntry struct {
	Segment  uint64     `json:"segment"`
	FirstSeq uint64     `json:"first_seq"`
	LastSeq  uint64     `json:"last_seq"`
	FirstAt  time.Time  `json:"first_at"`
	LastAt   time.Time  `json:"last_at"`
	LastHash sig.Digest `json:"last_hash"`
	// Content is the running digest of the segment's record hashes.
	Content sig.Digest `json:"content"`
	// Index is the digest of the segment's persistent index payload, so a
	// tampered index cannot silently hide evidence from keyed queries.
	Index sig.Digest `json:"index"`
	// IndexFormat says what Index digests: absent (0) on seals written
	// before the binary index, whose Index is the canonical-JSON digest
	// of the logical payload — omitempty keeps their entry digests
	// unchanged — and indexFormatBinary, indexFormatWindowed or
	// indexFormatAligned on seals whose Index is the SHA-256 of the
	// binary payload bytes, one hash pinned per record or per window of
	// records.
	IndexFormat uint8 `json:"index_format,omitempty"`
	// Prev is the Digest of the preceding manifest entry.
	Prev sig.Digest `json:"prev"`
	// Digest seals the entry: the digest of its canonical encoding with
	// Digest itself zeroed.
	Digest sig.Digest `json:"digest"`
}

func (e *ManifestEntry) computeDigest() (sig.Digest, error) {
	clone := *e
	clone.Digest = sig.Digest{}
	return sig.SumCanonical(&clone)
}

// VerifySeal checks that the entry's digest seals its own canonical
// encoding — the first integrity gate for entries arriving from outside
// the local trust boundary (archive objects, shipped packages). It does
// not check chain linkage; that needs the neighbouring entries.
func (e *ManifestEntry) VerifySeal() error {
	d, err := e.computeDigest()
	if err != nil {
		return err
	}
	if d != e.Digest {
		return fmt.Errorf("%w: manifest entry %d digest mismatch", ErrSealBroken, e.Segment)
	}
	return nil
}

// segmentIndex is a sealed segment as the vault holds it in memory: its
// seal and a view over its index, normally a read-only mapping of the
// index file — the records, and the index itself, stay out of the heap.
// The mapping is released when the segmentIndex becomes unreachable
// (iterators may hold one past the vault's Close).
type segmentIndex struct {
	Entry ManifestEntry
	*indexView
}

// segment is the in-memory state of the one unsealed (active) segment —
// the only part of a vault whose records live in RAM.
type segment struct {
	number   uint64
	firstSeq uint64
	// enc is the segment file's record encoding; binary segments carry a
	// header, so their first record offset is enc.HeaderLen().
	enc     store.Encoding
	records []*store.Record
	offsets []int64
	size    int64
	content sig.Digest
	runs    map[id.Run][]uint64
	txns    map[id.Txn][]uint64
	parties map[id.Party][]uint64
	kinds   map[evidence.Kind][]uint64
}

func newSegment(number, firstSeq uint64) *segment {
	return &segment{
		number:   number,
		firstSeq: firstSeq,
		enc:      store.EncJSON,
		runs:     make(map[id.Run][]uint64),
		txns:     make(map[id.Txn][]uint64),
		parties:  make(map[id.Party][]uint64),
		kinds:    make(map[evidence.Kind][]uint64),
	}
}

// setEncoding fixes the segment's file encoding before any record is
// absorbed, re-basing the size so offsets account for the binary
// header. It must not be called once records have been added.
func (s *segment) setEncoding(enc store.Encoding) {
	s.enc = enc
	if len(s.records) == 0 {
		s.size = enc.HeaderLen()
	}
}

// add absorbs a record whose encoded line occupies lineLen bytes at the
// current end of the segment file.
func (s *segment) add(rec *store.Record, lineLen int64) {
	s.records = append(s.records, rec)
	s.offsets = append(s.offsets, s.size)
	s.size += lineLen
	s.content = sig.SumPair(s.content, rec.Hash)
	s.runs[rec.Token.Run] = append(s.runs[rec.Token.Run], rec.Seq)
	if rec.Token.Txn != "" {
		s.txns[rec.Token.Txn] = append(s.txns[rec.Token.Txn], rec.Seq)
	}
	s.parties[rec.Token.Issuer] = append(s.parties[rec.Token.Issuer], rec.Seq)
	s.kinds[rec.Token.Kind] = append(s.kinds[rec.Token.Kind], rec.Seq)
}

// payload freezes the segment's index content for encoding under layout
// l: the hash of the last record of each window, and in an aligned
// layout where each window's read starts in place of every record's
// offset.
func (s *segment) payload(l layout) *indexPayload {
	g := l.place(s.firstSeq, len(s.records))
	pins := make([]sig.Digest, g.windows())
	offsets := s.offsets
	if l.aligned {
		offsets = make([]int64, len(pins))
	}
	for w := range pins {
		lo, hi := g.bounds(w)
		pins[w] = s.records[hi-1].Hash
		if l.aligned {
			offsets[w] = s.offsets[max(lo-1, 0)]
		}
	}
	return &indexPayload{
		Size:    s.size,
		Offsets: offsets,
		Hashes:  pins,
		Runs:    s.runs,
		Txns:    s.txns,
		Parties: s.parties,
		Kinds:   s.kinds,
	}
}

// readSealedSegment streams a sealed segment's records in order, holding
// them to the seal: record chain, no torn tail, record count, content
// digest and chain endpoints must all match the manifest entry, else
// ErrSealBroken. With expectPrev non-nil, the first record must chain
// from that hash (cross-segment linkage, used by DeepVerify); otherwise
// the chain is self-seeded, which the content digest still pins. Record
// hashes come from the decoder, which derives each from the record's
// bytes and its predecessor's hash, so an edited frame moves every hash
// after it and cannot meet the seal's content digest and last hash. This
// is the single verification rule shared by index rebuild, full-scan
// queries and deep verification. The detected file encoding is
// returned: the content digest runs over record hashes, so a seal
// verifies identically whether the segment's bytes are JSON lines or
// binary frames — mixed-encoding vaults (and replicas of them) share
// one seal chain.
func readSealedSegment(dir string, e ManifestEntry, expectPrev *sig.Digest, fn func(rec *store.Record, lineLen int64) error) (store.Encoding, error) {
	return verifySealedSegmentFile(segPath(dir, e.Segment), e, expectPrev, fn)
}

// verifySealedSegmentFile is readSealedSegment against an explicit file
// path — replication verifies a shipped segment while it still sits at a
// temporary name, before renaming it into place. The file is mapped,
// not read: verification and full scans run straight off the page
// cache.
func verifySealedSegmentFile(path string, e ManifestEntry, expectPrev *sig.Digest, fn func(rec *store.Record, lineLen int64) error) (store.Encoding, error) {
	data, release, err := mapFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return store.EncUnknown, fmt.Errorf("%w: segment %d: %v", ErrSealBroken, e.Segment, err)
		}
		// A missing sealed segment reads as empty and fails the count
		// check below, the same verdict the streaming reader used to give.
		data, release = nil, func() {}
	}
	defer release()
	return verifySealedSegmentData(data, e, expectPrev, fn)
}

// verifySealedSegmentData is the in-memory core of sealed-segment
// verification, shared by the file path above and by package-level
// checks on segment bytes that never touch disk (archive fetches).
func verifySealedSegmentData(data []byte, e ManifestEntry, expectPrev *sig.Digest, fn func(rec *store.Record, lineLen int64) error) (store.Encoding, error) {
	var cv *store.ChainVerifier
	if expectPrev != nil {
		cv = store.ResumeChain(e.FirstSeq-1, *expectPrev)
	}
	content := sig.Digest{}
	count := uint64(0)
	enc, _, torn, err := store.DecodeSegmentData(data, func(rec *store.Record, n int64) error {
		if cv == nil {
			cv = store.ResumeChain(rec.Seq-1, rec.Prev)
		}
		if cerr := cv.Advance(rec); cerr != nil {
			return fmt.Errorf("%w: segment %d: %v", ErrSealBroken, e.Segment, cerr)
		}
		content = sig.SumPair(content, rec.Hash)
		count++
		return fn(rec, n)
	})
	if err != nil {
		if errors.Is(err, ErrSealBroken) || errors.Is(err, store.ErrChainBroken) {
			return enc, err
		}
		// A sealed segment that cannot be read back is a broken seal.
		return enc, fmt.Errorf("%w: segment %d: %v", ErrSealBroken, e.Segment, err)
	}
	if torn {
		return enc, fmt.Errorf("%w: sealed segment %d has a torn tail", ErrSealBroken, e.Segment)
	}
	if count != e.LastSeq-e.FirstSeq+1 || content != e.Content {
		return enc, fmt.Errorf("%w: segment %d does not match its seal", ErrSealBroken, e.Segment)
	}
	lastSeq, lastHash := cv.Position()
	if lastSeq != e.LastSeq || lastHash != e.LastHash {
		return enc, fmt.Errorf("%w: segment %d does not match its seal", ErrSealBroken, e.Segment)
	}
	return enc, nil
}

// intersectSeqs intersects two ascending sequence lists.
func intersectSeqs(a, b []uint64) []uint64 {
	var out []uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
