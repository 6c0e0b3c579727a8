// Binary segment index — the per-segment file (seg-*.idx) written once
// at seal time and read in place ever after.
//
//	file     magic "NRX" + version | uvarint n | the seal's manifest entry,
//	         canonical JSON, n bytes | payload
//	payload  u64 firstSeq | u64 size | u32 count | u8 offWidth | 3 × 0
//	         offsets  windows × offWidth  where a read of each window
//	                                      starts: the frame before it, or
//	                                      for the first window its own
//	                                      first frame (count × offWidth
//	                                      frame starts before version 4)
//	         hashes   windows × 32        the chained hash of the last
//	                                      record of each window
//	         4 key tables: runs, transactions, parties, kinds
//	table    u32 keys | u32 blobLen | keys × u32 entry offsets | blob
//	entry    uvarint keyLen | key | uvarint postings | delta varints
//
// The windows follow from the seal's IndexFormat (indexLayout), never
// from a field of the file, whose magic must name the same version.
// Version 4 (IndexFormat 4, what this build seals) counts windows of four
// from the vault's sequence numbers: record seq s lies in window
// ⌊(s−1)/4⌋, so a segment's first and last windows may be partial and a
// run of four aligned records lies in one window wherever the seals
// fall. It pins the hash of every record with s ≡ 0 (mod 4) and of the
// segment's last record, and stores one offset per window. Version 3
// (IndexFormat 3) counts windows of four from the segment's first record
// and version 2 (IndexFormat 2, and the binary rebuild of a legacy index)
// pins every record; both store one offset per record. A keyed read
// decodes the whole window of a record it serves, walking frames by
// their length prefixes (JSON lines by their newlines) from the frame
// before the window — the mate of the window's first record — chained
// from the pin before the window, and holds the window's last hash to
// its pin (Iterator.loadSegment). The segment's first window chains from
// the Prev its first frame stores.
//
// All integers are little-endian. Offsets and hashes are fixed-width
// arrays addressed in place; a table's keys are sorted bytewise (run and
// transaction identifiers in their packed form) and found by binary
// search; postings are record positions relative to firstSeq, the first
// absolute and the rest gaps. The encoding is a pure function of the
// segment's records, so every holder of a segment derives byte-identical
// index bytes, and ManifestEntry.Index pins the SHA-256 of the payload:
// a tampered index cannot hide or reorder evidence — it fails its pin
// and is rebuilt from the sealed segment. The embedded entry copy is
// for forensics only (which seal a stray index file belonged to); the
// manifest is the source of truth.
//
// Indexes written before this format are canonical JSON (first byte
// '{') with the canonical-JSON payload digest pinned; they are read and
// verified as they always were and converted in memory.
package vault

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

const (
	// indexFormatBinary is the ManifestEntry.IndexFormat of seals whose
	// Index digest is the SHA-256 of a version-2 binary payload: one
	// pinned hash per record. Read, never sealed.
	indexFormatBinary = 2
	// indexFormatWindowed is the ManifestEntry.IndexFormat of seals whose
	// Index digest is the SHA-256 of a version-3 binary payload: one
	// pinned hash per window of windowStride records counted from the
	// segment's first record. Read, never sealed.
	indexFormatWindowed = 3
	// indexFormatAligned is the ManifestEntry.IndexFormat of seals whose
	// Index digest is the SHA-256 of a version-4 binary payload: windows
	// of windowStride records counted from the vault's sequence numbers,
	// one pinned hash and one offset each. What this build seals.
	indexFormatAligned = 4
	// windowStride is how many records share one pinned hash in a
	// version-3 or version-4 index.
	windowStride = 4

	indexFixedLen = 24 // firstSeq, size, count, offWidth, padding
)

// layout is the shape of one binary index version: its file magic, how
// many records a window holds, and whether the windows are aligned —
// counted from the vault's sequence numbers, one offset each — or
// counted from the segment's first record, with an offset per record.
type layout struct {
	magic   string
	stride  int
	aligned bool
}

// indexLayouts lists the IndexFormat of every seal this build reads
// with the layout of the binary index it pins: version 4 under
// indexFormatAligned, version 3 under indexFormatWindowed, version 2
// under indexFormatBinary and under a legacy seal (0), whose index is
// rebuilt as version 2 — the per-record hashes its digest covers. The
// magic's first byte tells a binary index from a legacy JSON one ('{').
var indexLayouts = map[uint8]layout{
	0:                   {"NRX\x02", 1, false},
	indexFormatBinary:   {"NRX\x02", 1, false},
	indexFormatWindowed: {"NRX\x03", windowStride, false},
	indexFormatAligned:  {"NRX\x04", windowStride, true},
}

// indexLayout returns the layout of the binary index a seal of e's
// IndexFormat pins. It refuses a format this build does not know — one a
// later build sealed — with ErrIndexVersion, before anything of the
// segment is read: nothing is wrong with such evidence but the reader.
func indexLayout(e *ManifestEntry) (layout, error) {
	l, ok := indexLayouts[e.IndexFormat]
	if !ok {
		return layout{}, fmt.Errorf("%w: segment %d sealed under index format %d", ErrIndexVersion, e.Segment, e.IndexFormat)
	}
	return l, nil
}

// windowing places the count records of a segment in the windows of an
// index of its layout: phase is how many seqs of the segment's first
// window come before the segment (0 unless the layout is aligned).
type windowing struct {
	layout
	phase, count int
}

// place returns how the layout places count records from firstSeq.
func (l layout) place(firstSeq uint64, count int) windowing {
	g := windowing{layout: l, count: count}
	if l.aligned {
		g.phase = int((firstSeq - 1) % uint64(l.stride))
	}
	return g
}

// windows is how many windows the records span — one pinned hash each.
func (g windowing) windows() int {
	if g.count == 0 {
		return 0
	}
	return (g.count + g.phase + g.stride - 1) / g.stride
}

// offsetCount is how many offsets the index stores: one per window when
// aligned, one per record before.
func (g windowing) offsetCount() int {
	if g.aligned {
		return g.windows()
	}
	return g.count
}

// window returns the window of the record at position i.
func (g windowing) window(i int) int { return (i + g.phase) / g.stride }

// bounds returns the positions [lo, hi) of window w's records.
func (g windowing) bounds(w int) (lo, hi int) {
	return max(w*g.stride-g.phase, 0), min((w+1)*g.stride-g.phase, g.count)
}

// The key tables of an index, in file order.
const (
	tableRuns = iota
	tableTxns
	tableParties
	tableKinds
	numTables
)

// indexPayload is the logical content of a segment index: byte offsets
// for direct record access — one per record, or where each window's read
// starts in a version-4 index — plus posting lists by run, transaction,
// party and kind. It is what the active segment accumulates, what the
// binary encoder consumes, and — through its JSON form — what legacy
// seals pinned: their ManifestEntry.Index is this struct's canonical
// digest.
type indexPayload struct {
	Size    int64   `json:"size"`
	Offsets []int64 `json:"offsets"`
	// Hashes pins the chained hash of the last record of every window of
	// the index's layout (of every record in the legacy form), so a record
	// served from a sealed segment is verified against the seal without
	// reading more of the segment than its window.
	Hashes  []sig.Digest               `json:"hashes"`
	Runs    map[id.Run][]uint64        `json:"runs,omitempty"`
	Txns    map[id.Txn][]uint64        `json:"txns,omitempty"`
	Parties map[id.Party][]uint64      `json:"parties,omitempty"`
	Kinds   map[evidence.Kind][]uint64 `json:"kinds,omitempty"`
}

// legacyDigest returns the canonical digest legacy seals pinned.
func (p *indexPayload) legacyDigest() (sig.Digest, error) { return sig.SumCanonical(p) }

// legacyIndexFile is the JSON index file earlier builds wrote.
type legacyIndexFile struct {
	Entry ManifestEntry `json:"entry"`
	indexPayload
}

// encodeIndexPayload serialises p, the index of count records from
// firstSeq, as a binary index payload.
func encodeIndexPayload(firstSeq uint64, count int, p *indexPayload) []byte {
	offWidth := 4
	if p.Size > 1<<32-1 {
		offWidth = 8
	}
	dst := make([]byte, 0, indexFixedLen+len(p.Offsets)*offWidth+len(p.Hashes)*sig.DigestSize+count*8)
	dst = binary.LittleEndian.AppendUint64(dst, firstSeq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Size))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	dst = append(dst, byte(offWidth), 0, 0, 0)
	for _, off := range p.Offsets {
		if offWidth == 4 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(off))
		} else {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(off))
		}
	}
	for i := range p.Hashes {
		dst = append(dst, p.Hashes[i][:]...)
	}
	dst = appendKeyTable(dst, tableRuns, p.Runs, firstSeq)
	dst = appendKeyTable(dst, tableTxns, p.Txns, firstSeq)
	dst = appendKeyTable(dst, tableParties, p.Parties, firstSeq)
	dst = appendKeyTable(dst, tableKinds, p.Kinds, firstSeq)
	return dst
}

// packedTable reports whether table t stores its keys packed: run and
// transaction identifiers are, party URIs and kind words are not.
func packedTable(t int) bool { return t == tableRuns || t == tableTxns }

// tableKey is a posting-list key as table t stores and compares it.
func tableKey(dst []byte, t int, key string) []byte {
	if packedTable(t) {
		return canon.AppendPackedID(dst, key)
	}
	return append(dst, key...)
}

func appendKeyTable[K ~string](dst []byte, t int, postings map[K][]uint64, firstSeq uint64) []byte {
	type entry struct {
		key  []byte
		seqs []uint64
	}
	entries := make([]entry, 0, len(postings))
	for k, seqs := range postings {
		entries = append(entries, entry{tableKey(nil, t, string(k)), seqs})
	}
	sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })

	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entries)))
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // blob length, patched below
	dirAt := len(dst)
	dst = append(dst, make([]byte, 4*len(entries))...)
	blobAt := len(dst)
	for i, e := range entries {
		binary.LittleEndian.PutUint32(dst[dirAt+4*i:], uint32(len(dst)-blobAt))
		dst = binary.AppendUvarint(dst, uint64(len(e.key)))
		dst = append(dst, e.key...)
		dst = binary.AppendUvarint(dst, uint64(len(e.seqs)))
		prev := firstSeq
		for _, seq := range e.seqs {
			dst = binary.AppendUvarint(dst, seq-prev)
			prev = seq
		}
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-blobAt))
	return dst
}

// indexFileHeader returns what precedes the payload in an index file:
// the magic and the seal's manifest line.
func indexFileHeader(magic string, entryLine []byte) []byte {
	hdr := append(make([]byte, 0, len(magic)+binary.MaxVarintLen32+len(entryLine)), magic...)
	hdr = binary.AppendUvarint(hdr, uint64(len(entryLine)))
	return append(hdr, entryLine...)
}

// indexFilePayload locates the payload inside binary index file bytes
// that open with magic.
func indexFilePayload(data []byte, magic string) ([]byte, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: not a segment index of its seal's format", ErrSealBroken)
	}
	rest := data[len(magic):]
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > uint64(len(rest)-w) {
		return nil, fmt.Errorf("%w: segment index header truncated", ErrSealBroken)
	}
	return rest[w+int(n):], nil
}

// indexView reads a binary index payload in place: nothing is copied
// out of payload (typically a read-only file mapping) until a lookup
// asks for it.
type indexView struct {
	payload  []byte
	firstSeq uint64
	size     int64
	windowing
	offWidth int
	offsets  []byte
	hashes   []byte
	tables   [numTables]keyTable
}

// keyTable is one sorted key → postings table of an index.
type keyTable struct {
	dir  []byte // keys × u32 entry offsets into blob
	blob []byte
}

// parseIndexPayload validates the structure of a payload of the given
// layout — every section inside the payload, nothing left over — and
// returns a view over it. Entry contents are checked as they are read.
func parseIndexPayload(payload []byte, l layout) (*indexView, error) {
	bad := func(what string) (*indexView, error) {
		return nil, fmt.Errorf("%w: segment index %s", ErrSealBroken, what)
	}
	if len(payload) < indexFixedLen {
		return bad("truncated")
	}
	ix := &indexView{
		payload:  payload,
		firstSeq: binary.LittleEndian.Uint64(payload),
		size:     int64(binary.LittleEndian.Uint64(payload[8:])),
		offWidth: int(payload[20]),
	}
	ix.windowing = l.place(ix.firstSeq, int(binary.LittleEndian.Uint32(payload[16:])))
	if ix.offWidth != 4 && ix.offWidth != 8 {
		return bad("offset width")
	}
	if ix.size < 0 {
		return bad("segment size")
	}
	rest := payload[indexFixedLen:]
	offs, pins := ix.offsetCount(), ix.windows()
	if uint64(offs)*uint64(ix.offWidth)+uint64(pins)*sig.DigestSize > uint64(len(rest)) {
		return bad("arrays truncated")
	}
	ix.offsets, rest = rest[:offs*ix.offWidth], rest[offs*ix.offWidth:]
	ix.hashes, rest = rest[:pins*sig.DigestSize], rest[pins*sig.DigestSize:]
	for t := range ix.tables {
		if len(rest) < 8 {
			return bad("key table truncated")
		}
		keys := uint64(binary.LittleEndian.Uint32(rest))
		blobLen := uint64(binary.LittleEndian.Uint32(rest[4:]))
		rest = rest[8:]
		if 4*keys+blobLen > uint64(len(rest)) {
			return bad("key table truncated")
		}
		ix.tables[t].dir, rest = rest[:4*keys], rest[4*keys:]
		ix.tables[t].blob, rest = rest[:blobLen], rest[blobLen:]
	}
	if len(rest) != 0 {
		return bad("has trailing bytes")
	}
	return ix, nil
}

// digest is the SHA-256 of the payload bytes — what binary-format seals
// pin.
func (ix *indexView) digest() sig.Digest { return sha256.Sum256(ix.payload) }

// offset returns stored offset i: the start of record i's frame, or in a
// version-4 index where a read of window i starts (walkFrom).
func (ix *indexView) offset(i int) int64 {
	if ix.offWidth == 4 {
		return int64(binary.LittleEndian.Uint32(ix.offsets[4*i:]))
	}
	return int64(binary.LittleEndian.Uint64(ix.offsets[8*i:]))
}

// walkFrom returns where a read of window w starts: the start of the
// frame before the window — the mate of its first record — or, for the
// segment's first window, of that window's own first frame.
func (ix *indexView) walkFrom(w int) int64 {
	if ix.aligned {
		return ix.offset(w)
	}
	lo, _ := ix.bounds(w)
	return ix.offset(max(lo-1, 0))
}

// pin returns the chained hash pinned for window w: that of the last
// record of the window.
func (ix *indexView) pin(w int) (d sig.Digest) {
	copy(d[:], ix.hashes[sig.DigestSize*w:])
	return d
}

func (kt *keyTable) keys() int { return len(kt.dir) / 4 }

// entry returns entry i's key and the bytes that follow it (posting
// count, then postings).
func (kt *keyTable) entry(i int) (key, rest []byte, err error) {
	off := uint64(binary.LittleEndian.Uint32(kt.dir[4*i:]))
	if off > uint64(len(kt.blob)) {
		return nil, nil, fmt.Errorf("%w: segment index entry offset past its table", ErrSealBroken)
	}
	rest = kt.blob[off:]
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > uint64(len(rest)-w) {
		return nil, nil, fmt.Errorf("%w: segment index key truncated", ErrSealBroken)
	}
	return rest[w : w+int(n)], rest[w+int(n):], nil
}

// find binary-searches the table for key, returning the bytes after the
// matching entry's key, or nil when the key is absent.
func (kt *keyTable) find(key []byte) ([]byte, error) {
	var ferr error
	n := kt.keys()
	i := sort.Search(n, func(i int) bool {
		k, _, err := kt.entry(i)
		if err != nil {
			ferr = err
			return true
		}
		return bytes.Compare(k, key) >= 0
	})
	if ferr != nil || i == n {
		return nil, ferr
	}
	k, rest, err := kt.entry(i)
	if err != nil || !bytes.Equal(k, key) {
		return nil, err
	}
	return rest, nil
}

// postings decodes one entry's posting list (rest as returned by entry
// or find) into ascending absolute sequence numbers.
func (ix *indexView) postings(rest []byte) ([]uint64, error) {
	n, w := binary.Uvarint(rest)
	// Each posting is at least one byte and names a distinct record.
	if w <= 0 || n > uint64(len(rest)-w) || n > uint64(ix.count) {
		return nil, fmt.Errorf("%w: segment index posting count", ErrSealBroken)
	}
	rest = rest[w:]
	seqs := make([]uint64, n)
	seq := ix.firstSeq
	for i := range seqs {
		gap, w := binary.Uvarint(rest)
		if w <= 0 || (i > 0 && gap == 0) || gap >= uint64(ix.count) || seq+gap-ix.firstSeq >= uint64(ix.count) {
			return nil, fmt.Errorf("%w: segment index posting out of range", ErrSealBroken)
		}
		seq += gap
		seqs[i] = seq
		rest = rest[w:]
	}
	return seqs, nil
}

// lookup returns the ascending sequence numbers table t lists under
// key (nil when absent).
func (ix *indexView) lookup(t int, key string) ([]uint64, error) {
	var buf [64]byte
	rest, err := ix.tables[t].find(tableKey(buf[:0], t, key))
	if rest == nil || err != nil {
		return nil, err
	}
	return ix.postings(rest)
}

// eachKey calls fn with every stored key of table t, in order. The key
// bytes alias the payload.
func (ix *indexView) eachKey(t int, fn func(key, rest []byte) error) error {
	kt := &ix.tables[t]
	for i := 0; i < kt.keys(); i++ {
		key, rest, err := kt.entry(i)
		if err != nil {
			return err
		}
		if err := fn(key, rest); err != nil {
			return err
		}
	}
	return nil
}

// toPayload materialises the index as the logical payload — the form
// legacy seals digested. It is the slow path: taken only to verify a
// binary index against a legacy seal.
func (ix *indexView) toPayload() (*indexPayload, error) {
	p := &indexPayload{
		Size:    ix.size,
		Offsets: make([]int64, len(ix.offsets)/ix.offWidth),
		Hashes:  make([]sig.Digest, len(ix.hashes)/sig.DigestSize),
	}
	for i := range p.Offsets {
		p.Offsets[i] = ix.offset(i)
	}
	for w := range p.Hashes {
		p.Hashes[w] = ix.pin(w)
	}
	var err error
	if p.Runs, err = loadTable[id.Run](ix, tableRuns); err != nil {
		return nil, err
	}
	if p.Txns, err = loadTable[id.Txn](ix, tableTxns); err != nil {
		return nil, err
	}
	if p.Parties, err = loadTable[id.Party](ix, tableParties); err != nil {
		return nil, err
	}
	if p.Kinds, err = loadTable[evidence.Kind](ix, tableKinds); err != nil {
		return nil, err
	}
	return p, nil
}

// loadTable materialises key table t as a map. An empty table stays a
// nil map: omitempty drops it from the canonical form either way,
// matching what the sealing build digested.
func loadTable[K ~string](ix *indexView, t int) (map[K][]uint64, error) {
	var m map[K][]uint64
	err := ix.eachKey(t, func(key, rest []byte) error {
		seqs, err := ix.postings(rest)
		if err != nil {
			return err
		}
		name := string(key)
		if packedTable(t) {
			r := canon.NewBinReader(key)
			name = r.PackedID()
			if err := r.Done(); err != nil {
				return fmt.Errorf("%w: segment index key: %v", ErrSealBroken, err)
			}
		}
		if m == nil {
			m = make(map[K][]uint64)
		}
		m[K(name)] = seqs
		return nil
	})
	return m, err
}

// verify holds the view to the seal, whose IndexFormat indexLayout
// knows: it must describe e's record range and reproduce the digest e
// pins — over the payload bytes for seals of a binary format, over the
// canonical JSON of the logical payload for legacy seals.
func (ix *indexView) verify(e *ManifestEntry) error {
	if ix.firstSeq != e.FirstSeq || uint64(ix.count) != e.LastSeq-e.FirstSeq+1 {
		return fmt.Errorf("%w: segment %d index covers a different record range", ErrSealBroken, e.Segment)
	}
	var d sig.Digest
	if e.IndexFormat == 0 {
		p, err := ix.toPayload()
		if err != nil {
			return err
		}
		if d, err = p.legacyDigest(); err != nil {
			return err
		}
	} else {
		d = ix.digest()
	}
	if d != e.Index {
		return fmt.Errorf("%w: segment %d index does not match its seal", ErrSealBroken, e.Segment)
	}
	return nil
}

// openIndex parses index file bytes in the format the seal e names, or
// a legacy JSON index, and verifies them against e. The view of a binary
// index aliases data; a legacy JSON index is converted and aliases
// nothing.
func openIndex(data []byte, e *ManifestEntry) (*indexView, error) {
	l, err := indexLayout(e)
	if err != nil {
		return nil, err
	}
	if len(data) > 0 && data[0] == '{' {
		var f legacyIndexFile
		if err := canon.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%w: segment %d index: %v", ErrSealBroken, e.Segment, err)
		}
		d, err := f.indexPayload.legacyDigest()
		if err != nil {
			return nil, err
		}
		if e.IndexFormat != 0 || f.Entry.Digest != e.Digest || d != e.Index {
			return nil, fmt.Errorf("%w: segment %d index does not match its seal", ErrSealBroken, e.Segment)
		}
		return parseIndexPayload(encodeIndexPayload(e.FirstSeq, len(f.Offsets), &f.indexPayload), l)
	}
	payload, err := indexFilePayload(data, l.magic)
	if err != nil {
		return nil, err
	}
	ix, err := parseIndexPayload(payload, l)
	if err != nil {
		return nil, err
	}
	if err := ix.verify(e); err != nil {
		return nil, err
	}
	return ix, nil
}
