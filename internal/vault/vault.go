// Package vault is the evidence store: the one store.Log, whose records
// live in fixed-size append-only segment files instead of RAM.
//
// A log that keeps every record in memory and fsyncs once per append
// outgrows both within hours on a busy trusted interceptor (section 3.5
// requires persistent storage for all evidence). The vault bounds memory
// and amortises durability:
//
//   - Segmented storage: records are appended to the active segment file;
//     when it reaches the configured size it is sealed — a manifest entry
//     records its bounds, last record hash and a content digest, each entry
//     chaining the previous entry's digest — and its records are evicted
//     from RAM. Tamper evidence therefore survives rotation: rewriting,
//     dropping or reordering a sealed segment breaks the record chain, the
//     manifest chain or the content digest.
//
//   - Group commit: concurrent Appends are batched by a single background
//     committer into one write+fsync, turning the durability hot path from
//     one fsync per token into one per batch. Callers block until their
//     batch is on disk, so an acknowledged append is always durable.
//
//   - Persistent indexes: at seal time each segment writes a binary index
//     of byte offsets, record hashes and posting lists by run,
//     transaction, party and kind, read in place from a file mapping, so
//     run, transaction and adjudication queries are O(result), not
//     O(log), and a sealed segment costs the heap only its routing keys.
//
//   - Fast recovery: opening a vault verifies the manifest chain and
//     replays only the unsealed tail segment (truncating a torn final
//     write); DeepVerify re-reads every sealed segment for full audits.
package vault

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/clock"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// ErrClosed is returned by operations on a closed vault.
var ErrClosed = errors.New("vault: closed")

// ErrSealBroken is returned when a sealed segment or the manifest chain
// fails verification.
var ErrSealBroken = errors.New("vault: segment seal broken")

// ErrIndexVersion reports a seal naming an index format this build does
// not read: the vault was sealed by a later build. Nothing is wrong with
// the evidence; upgrade the reader.
var ErrIndexVersion = errors.New("vault: segment index format unknown to this build")

// ErrLocked is returned when another process holds the vault.
var ErrLocked = errors.New("vault: locked by another process")

// ErrReadOnly is returned by Append on a vault opened with WithReadOnly.
var ErrReadOnly = errors.New("vault: opened read-only")

// Option configures a Vault.
type Option func(*Vault)

// WithSegmentRecords sets how many records a segment holds before it is
// sealed (default 4096). Smaller segments seal more often but bound RAM
// and recovery time more tightly.
func WithSegmentRecords(n int) Option {
	return func(v *Vault) {
		if n > 0 {
			v.segRecords = n
		}
	}
}

// WithReadOnly opens the vault for audit only: nothing on disk is
// created, truncated, rebuilt or re-sealed (torn tails and stale indexes
// are recovered in memory), and Append is refused. Works on read-only
// media. Several read-only opens may share a vault; a live writer
// excludes them.
func WithReadOnly() Option {
	return func(v *Vault) { v.readOnly = true }
}

// WithoutSync disables the per-batch fsync, trading machine-crash
// durability of the unsealed tail for throughput (process-crash
// durability is kept — every batch is still flushed to the kernel, and
// seals remain fully durable so sealed evidence can never be half on
// disk).
func WithoutSync() Option {
	return func(v *Vault) { v.sync = false }
}

// WithRestoreFrom rebuilds a lost vault from a replica: when the vault at
// dir has no sealed history (a fresh or wiped directory), the sealed
// segments, indexes and manifest found at replicaDir — typically a peer
// organisation's replica of this vault, see ReplicaSet — are verified
// against their seal chain and copied in before the normal open. A vault
// that already has sealed history is left untouched. Only sealed evidence
// is recoverable; records of the unsealed tail never left the lost
// machine.
func WithRestoreFrom(replicaDir string) Option {
	return func(v *Vault) { v.restoreFrom = replicaDir }
}

// WithObserver homes the vault's instruments — append latency (what a
// blocking caller waits: queueing plus its commit), group commit latency
// and occupancy, the fsync inside each commit (append minus fsync is the
// queue wait), seal latency and counts, and the records and the segment
// and index bytes written (their quotient is what a record costs on
// disk) — in the given telemetry scope. A nil scope (the default) leaves
// the vault uninstrumented at zero cost.
func WithObserver(scope *obs.Scope) Option {
	return func(v *Vault) {
		v.appendNs = scope.Histogram(obs.MVaultAppendNs)
		v.commitNs = scope.Histogram(obs.MVaultCommitNs)
		v.commitBatch = scope.Histogram(obs.MVaultCommitBatch)
		v.fsyncNs = scope.Histogram(obs.MVaultFsyncNs)
		v.sealNs = scope.Histogram(obs.MVaultSealNs)
		v.seals = scope.Counter(obs.MVaultSealsTotal)
		v.records = scope.Counter(obs.MVaultRecordsTotal)
		v.bytes = scope.Counter(obs.MVaultBytesTotal)
	}
}

// Vault is a segmented, indexed, group-committed evidence store. It
// implements store.Log and is safe for concurrent use.
type Vault struct {
	dir         string
	clk         clock.Clock
	segRecords  int
	maxBatch    int // appends one group commit absorbs: 512, less in tests
	sync        bool
	readOnly    bool
	restoreFrom string
	removeDir   bool // OpenTemp: the directory goes with the vault at Close

	lockF *os.File

	// Committer-goroutine-only machinery, reused across batches: one
	// chain digester, one record encoder and one write buffer per vault
	// instead of per record.
	chainer   *store.Chainer
	recEnc    store.RecordEncoder
	commitBuf []byte

	// Telemetry instruments (nil and no-op without WithObserver).
	appendNs    *obs.Histogram
	commitNs    *obs.Histogram
	commitBatch *obs.Histogram
	fsyncNs     *obs.Histogram
	sealNs      *obs.Histogram
	seals       *obs.Counter
	records     *obs.Counter
	bytes       *obs.Counter

	mu     sync.Mutex
	sealed []*segmentIndex
	// runSegs/txnSegs route keyed queries straight to the sealed segments
	// holding matching records, so lookup cost does not grow with the
	// number of segments. Keys are the identifiers as the indexes store
	// them (packed), so loading a segment copies each key once and
	// decodes none.
	runSegs   map[string][]int
	txnSegs   map[string][]int
	active    *segment
	f         *os.File
	manifestF *os.File
	lastSeq   uint64
	lastHash  sig.Digest
	lastSeal  sig.Digest
	failure   error
	// sealHooks are notified after each durable seal and commitHooks
	// after each durable group commit; pendingSeals/pendingCommits hold
	// what happened under mu until the unlocked notify pass. Hooks carry
	// registration ids so OnSeal/OnCommit can hand back a cancel.
	sealHooks      []sealHook
	commitHooks    []commitHook
	nextHookID     uint64
	pendingSeals   []ManifestEntry
	pendingCommits [][]*store.Record

	appendC   chan *appendReq
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

var _ store.Log = (*Vault)(nil)

type appendReq struct {
	// entries are the records the request appends: one for Append and
	// AppendAsync, the whole group for AppendGroup. A request is the unit
	// of commit: its entries are chained, written and fsynced together or
	// not at all.
	entries []store.Entry
	// seal marks a SealNow request: no record is appended, the active
	// segment is sealed. Routing seals through the committer keeps the
	// active file handle single-writer.
	seal bool
	// flush marks a Sync barrier: no record is appended, the response
	// arrives once every append enqueued before it is durable.
	flush bool
	resp  chan appendResp
}

type appendResp struct {
	recs []*store.Record
	err  error
}

// newAppendReq builds the request that appends entries.
func newAppendReq(entries ...store.Entry) *appendReq {
	return &appendReq{entries: entries, resp: make(chan appendResp, 1)}
}

// Open opens (creating if necessary) a vault rooted at dir. Recovery is
// proportional to the unsealed tail, not the log: the manifest chain and
// per-segment indexes are verified and loaded, the tail segment is
// replayed against the chain position recorded by the last seal, and a
// torn final write is truncated away.
func Open(dir string, clk clock.Clock, opts ...Option) (*Vault, error) {
	if clk == nil {
		clk = clock.Real{}
	}
	v := &Vault{
		dir:        dir,
		clk:        clk,
		segRecords: 4096,
		maxBatch:   512,
		sync:       true,
		runSegs:    make(map[string][]int),
		txnSegs:    make(map[string][]int),
		appendC:    make(chan *appendReq, 4096),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for _, opt := range opts {
		opt(v)
	}
	if v.readOnly {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("vault: directory %s not found", dir)
		}
		// A live writer holds the exclusive lock; shared locks let
		// concurrent audits coexist. A snapshot without a LOCK file (or
		// on media where it cannot be opened) is auditable lock-free.
		if lockF, err := os.Open(filepath.Join(dir, "LOCK")); err == nil {
			if err := flockShared(lockF); err != nil {
				lockF.Close()
				return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
			}
			v.lockF = lockF
		}
	} else {
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return nil, fmt.Errorf("vault: create %s: %w", dir, err)
		}
		// One writer at a time: recovery truncates torn tails and appends
		// rewrite the active segment, so a second opener (say, an
		// in-place audit racing a live writer) would corrupt the log. The
		// flock is released automatically if the process dies.
		lockF, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o600)
		if err != nil {
			return nil, fmt.Errorf("vault: open lock file: %w", err)
		}
		if err := flockExclusive(lockF); err != nil {
			lockF.Close()
			return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
		}
		v.lockF = lockF
	}
	if v.restoreFrom != "" && !v.readOnly {
		if err := v.restoreFromReplica(); err != nil {
			v.unlock()
			return nil, err
		}
	}
	if err := v.loadManifest(); err != nil {
		v.unlock()
		return nil, err
	}
	if err := v.replayTail(); err != nil {
		v.unlock()
		return nil, err
	}
	if v.readOnly {
		return v, nil
	}
	if err := v.openHandles(); err != nil {
		v.unlock()
		return nil, err
	}
	v.mu.Lock()
	// Seal an overfull tail — and a legacy tail (JSON lines or frames of a
	// superseded version) written by an older build: sealing it (a legal operation on
	// any non-empty segment) migrates the vault forward without ever
	// rewriting existing evidence bytes, so the new tail starts in the
	// one write format while the sealed legacy history stays readable as
	// is.
	if len(v.active.records) >= v.segRecords || (len(v.active.records) > 0 && v.active.enc != store.EncBinary) {
		if err := v.seal(); err != nil {
			v.mu.Unlock()
			if v.f != nil {
				v.f.Close()
			}
			if v.manifestF != nil {
				v.manifestF.Close()
			}
			v.unlock()
			return nil, err
		}
	}
	v.mu.Unlock()
	v.notifySeals()
	go v.run()
	return v, nil
}

// OpenTemp opens a vault in a fresh private directory under the system's
// temporary directory and removes that directory when the vault closes:
// the evidence log of a party that keeps nothing across restarts. Such a
// log has nothing to keep across a machine crash either, so it runs
// WithoutSync.
func OpenTemp(clk clock.Clock, opts ...Option) (*Vault, error) {
	dir, err := os.MkdirTemp("", "nonrep-vault-")
	if err != nil {
		return nil, fmt.Errorf("vault: create temporary directory: %w", err)
	}
	v, err := Open(dir, clk, append(opts[:len(opts):len(opts)], WithoutSync())...)
	if err != nil {
		_ = os.RemoveAll(dir) // the open failure is the error worth reporting
		return nil, err
	}
	v.removeDir = true
	return v, nil
}

type sealHook struct {
	id uint64
	fn func(ManifestEntry)
}

type commitHook struct {
	id uint64
	fn func([]*store.Record)
}

// OnSeal registers fn to be called after each future segment seal
// becomes durable, with the seal's manifest entry — the replication
// engine attaches itself here. Hooks run outside the vault lock on the
// committer goroutine, so they may call back into the vault but must not
// block for long; replication uses the hook only to nudge its shipping
// loop. The returned cancel unregisters the hook; a detached tenant must
// not keep receiving its former vault's seals.
func (v *Vault) OnSeal(fn func(ManifestEntry)) (cancel func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.nextHookID++
	id := v.nextHookID
	v.sealHooks = append(v.sealHooks, sealHook{id: id, fn: fn})
	return func() {
		v.mu.Lock()
		defer v.mu.Unlock()
		for i, h := range v.sealHooks {
			if h.id == id {
				v.sealHooks = append(v.sealHooks[:i], v.sealHooks[i+1:]...)
				return
			}
		}
	}
}

// OnCommit is the push analogue of OnSeal one level down: fn is called
// with each group-committed batch of records, in commit order, after the
// batch is durable. Hooks run outside the vault lock on the committer
// goroutine, so they must not block — the live subscription plane fans a
// batch out to per-subscriber outboxes and returns. The returned cancel
// unregisters the hook.
func (v *Vault) OnCommit(fn func([]*store.Record)) (cancel func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.nextHookID++
	id := v.nextHookID
	v.commitHooks = append(v.commitHooks, commitHook{id: id, fn: fn})
	return func() {
		v.mu.Lock()
		defer v.mu.Unlock()
		for i, h := range v.commitHooks {
			if h.id == id {
				v.commitHooks = append(v.commitHooks[:i], v.commitHooks[i+1:]...)
				return
			}
		}
	}
}

// notifySeals delivers entries sealed since the last pass to the seal
// hooks, outside the vault lock.
func (v *Vault) notifySeals() {
	v.mu.Lock()
	entries := v.pendingSeals
	v.pendingSeals = nil
	hooks := make([]sealHook, len(v.sealHooks))
	copy(hooks, v.sealHooks)
	v.mu.Unlock()
	for _, e := range entries {
		for _, h := range hooks {
			h.fn(e)
		}
	}
}

// notifyCommits delivers batches committed since the last pass to the
// commit hooks, outside the vault lock.
func (v *Vault) notifyCommits() {
	v.mu.Lock()
	batches := v.pendingCommits
	v.pendingCommits = nil
	hooks := make([]commitHook, len(v.commitHooks))
	copy(hooks, v.commitHooks)
	v.mu.Unlock()
	for _, recs := range batches {
		for _, h := range hooks {
			h.fn(recs)
		}
	}
}

// LastPosition returns the chain position of the newest durable record:
// its sequence number and hash, (0, zero digest) for an empty vault. A
// subscriber resumes its feed from exactly this pair.
func (v *Vault) LastPosition() (uint64, sig.Digest) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.lastSeq, v.lastHash
}

// unlock releases the vault's exclusive lock.
func (v *Vault) unlock() {
	if v.lockF != nil {
		funlock(v.lockF)
		v.lockF.Close()
		v.lockF = nil
	}
}

// loadManifest reads and verifies the seal chain, loading every sealed
// segment's index.
func (v *Vault) loadManifest() error {
	path := v.manifestPath()
	var entries []*ManifestEntry
	prefix, torn, err := store.ReadJSONLines(path, func(e *ManifestEntry, _ int64) error {
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return err
	}
	if torn && !v.readOnly {
		if err := os.Truncate(path, prefix); err != nil {
			return fmt.Errorf("vault: truncate torn manifest tail: %w", err)
		}
	}
	var prevSeal sig.Digest
	for i, e := range entries {
		d, err := e.computeDigest()
		if err != nil {
			return err
		}
		if d != e.Digest {
			return fmt.Errorf("%w: manifest entry %d digest mismatch", ErrSealBroken, i+1)
		}
		if e.Prev != prevSeal {
			return fmt.Errorf("%w: manifest entry %d prev link", ErrSealBroken, i+1)
		}
		idx, err := v.loadIndex(e)
		if err != nil {
			return err
		}
		if err := v.addSealed(idx); err != nil {
			return err
		}
		v.lastSeq, v.lastHash = e.LastSeq, e.LastHash
		prevSeal = e.Digest
	}
	v.lastSeal = prevSeal
	return nil
}

// loadIndex maps a sealed segment's index and verifies it against the
// seal, rebuilding it from the segment file if missing, stale or
// tampered (the manifest entry — including its pinned index digest — is
// the source of truth).
func (v *Vault) loadIndex(e *ManifestEntry) (*segmentIndex, error) {
	if _, err := indexLayout(e); err != nil {
		return nil, err
	}
	if idx, err := mapIndex(v.dir, e); err == nil {
		return idx, nil
	}
	return v.rebuildIndex(e)
}

// mapIndex opens the index file of the segment e seals: the file is
// mapped, verified against the seal in one pass over its bytes, and
// then read in place for as long as the returned index is reachable. A
// legacy JSON index is parsed, verified and converted instead, and its
// mapping released at once.
func mapIndex(dir string, e *ManifestEntry) (*segmentIndex, error) {
	data, release, err := mapFile(idxPath(dir, e.Segment))
	if err != nil {
		return nil, err
	}
	ix, err := openIndex(data, e)
	if err != nil {
		release()
		return nil, err
	}
	idx := &segmentIndex{Entry: *e, indexView: ix}
	if len(data) > 0 && data[0] == '{' {
		release() // converted: the view does not alias the file
	} else {
		runtime.AddCleanup(idx, func(release func()) { release() }, release)
	}
	return idx, nil
}

// buildIndex encodes the index of a fully read sealed segment in the
// format its seal names and holds it to the seal by the same rule a
// loaded index is held to: the records already verified against the
// seal, so a payload that still disagrees with the pinned digest means
// the entry itself is inconsistent.
func buildIndex(seg *segment, e *ManifestEntry) ([]byte, error) {
	l, err := indexLayout(e)
	if err != nil {
		return nil, err
	}
	payload := encodeIndexPayload(seg.firstSeq, len(seg.records), seg.payload(l))
	ix, err := parseIndexPayload(payload, l)
	if err != nil {
		return nil, err
	}
	if err := ix.verify(e); err != nil {
		return nil, err
	}
	return payload, nil
}

// writeIndexFile persists the index of the segment e seals: header (the
// magic of e's index format and the seal's manifest line) and payload,
// fsynced at a temporary name and renamed into place, so a reader that
// has the previous file mapped keeps a consistent view.
func writeIndexFile(dir string, e *ManifestEntry, entryLine, payload []byte) error {
	l, err := indexLayout(e)
	if err != nil {
		return err
	}
	return writeFileAtomic(idxPath(dir, e.Segment), indexFileHeader(l.magic, entryLine), payload)
}

// rebuildIndex reconstructs a sealed segment's index by re-reading its
// records, verifying them against the seal on the way. Records and
// frame lengths are collected before the index segment is built: the
// file's encoding (which fixes the first record's base offset) is only
// known once the read is under way.
func (v *Vault) rebuildIndex(e *ManifestEntry) (*segmentIndex, error) {
	type frame struct {
		rec *store.Record
		n   int64
	}
	var frames []frame
	enc, err := readSealedSegment(v.dir, *e, nil, func(rec *store.Record, n int64) error {
		frames = append(frames, frame{rec, n})
		return nil
	})
	if err != nil {
		return nil, err
	}
	seg := newSegment(e.Segment, e.FirstSeq)
	seg.setEncoding(enc)
	for _, f := range frames {
		seg.add(f.rec, f.n)
	}
	payload, err := buildIndex(seg, e)
	if err != nil {
		return nil, err
	}
	line, err := canon.Marshal(e)
	if err != nil {
		return nil, err
	}
	return v.adoptIndex(e, line, payload)
}

// adoptIndex makes a freshly encoded (and seal-verified) index payload
// the segment's index: written to disk unless the vault is read-only,
// then served from a mapping of that file — the heap copy is dropped —
// or, failing that, from the bytes in hand.
func (v *Vault) adoptIndex(e *ManifestEntry, entryLine, payload []byte) (*segmentIndex, error) {
	if !v.readOnly {
		if err := writeIndexFile(v.dir, e, entryLine, payload); err != nil {
			return nil, err
		}
		if idx, err := mapIndex(v.dir, e); err == nil {
			return idx, nil
		}
	}
	l, err := indexLayout(e)
	if err != nil {
		return nil, err
	}
	ix, err := parseIndexPayload(payload, l)
	if err != nil {
		return nil, err
	}
	return &segmentIndex{Entry: *e, indexView: ix}, nil
}

// replayTail loads the unsealed tail segment into memory, verifying its
// chain against the last seal and truncating a torn final write. The
// tail's encoding is whatever is on disk; a fresh (empty) tail is
// binary, and an empty tail left in a legacy encoding — say a bare
// version-1 header — is restarted as binary.
func (v *Vault) replayTail() error {
	tailNum := uint64(1)
	if n := len(v.sealed); n > 0 {
		tailNum = v.sealed[n-1].Entry.Segment + 1
	}
	path := segPath(v.dir, tailNum)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("vault: read tail segment %d: %w", tailNum, err)
	}
	seg := newSegment(tailNum, v.lastSeq+1)
	if enc := store.DetectEncoding(data); enc != store.EncUnknown {
		seg.setEncoding(enc)
	} else {
		seg.setEncoding(store.EncBinary)
	}
	cv := store.ResumeChain(v.lastSeq, v.lastHash)
	_, prefix, torn, err := store.DecodeSegmentData(data, func(rec *store.Record, n int64) error {
		if err := cv.Advance(rec); err != nil {
			return fmt.Errorf("vault: replay tail segment %d: %w", tailNum, err)
		}
		seg.add(rec, n)
		return nil
	})
	if err != nil {
		return err
	}
	if torn && !v.readOnly {
		if err := os.Truncate(path, prefix); err != nil {
			return fmt.Errorf("vault: truncate torn tail of segment %d: %w", tailNum, err)
		}
	}
	if len(seg.records) == 0 && seg.enc != store.EncBinary && !v.readOnly {
		if err := os.Truncate(path, 0); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("vault: restart empty tail segment %d: %w", tailNum, err)
		}
		seg.setEncoding(store.EncBinary)
	}
	v.active = seg
	v.lastSeq, v.lastHash = cv.Position()
	return nil
}

func (v *Vault) manifestPath() string { return filepath.Join(v.dir, manifestName) }

// openHandles opens the append handles for the active segment and the
// manifest.
func (v *Vault) openHandles() error {
	f, err := os.OpenFile(segPath(v.dir, v.active.number), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("vault: open active segment: %w", err)
	}
	if err := v.writeSegmentHeader(f); err != nil {
		f.Close()
		return err
	}
	m, err := os.OpenFile(v.manifestPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		f.Close()
		return fmt.Errorf("vault: open manifest: %w", err)
	}
	v.f, v.manifestF = f, m
	return v.syncDir()
}

// writeSegmentHeader stamps the active segment's fresh file with its
// format header. JSON segments have no header, and a file that already
// holds bytes keeps them (the header was written when the file was
// created).
func (v *Vault) writeSegmentHeader(f *os.File) error {
	seg := v.active
	if seg.enc != store.EncBinary {
		return nil // JSON has no header; superseded formats are never started
	}
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("vault: stat segment %d: %w", seg.number, err)
	}
	if fi.Size() != 0 {
		return nil
	}
	hdr := store.SegmentHeader()
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("vault: write segment %d header: %w", seg.number, err)
	}
	v.bytes.Add(int64(len(hdr)))
	return nil
}

// syncDir fsyncs the vault directory so newly created files (segments,
// indexes, manifest, lock) survive power loss, not just process death.
// It runs regardless of WithoutSync: seals must be all-or-nothing on
// disk, and directory syncs happen only at open and rotation.
func (v *Vault) syncDir() error { return syncDirPath(v.dir) }

// run is the group committer: it drains pending appends into batches and
// commits each batch with a single write+fsync.
func (v *Vault) run() {
	defer close(v.done)
	for {
		select {
		case req := <-v.appendC:
			v.commit(v.drain(req))
		case <-v.quit:
			for {
				select {
				case req := <-v.appendC:
					v.commit(v.drain(req))
				default:
					return
				}
			}
		}
	}
}

func (v *Vault) drain(first *appendReq) []*appendReq {
	batch := []*appendReq{first}
	for len(batch) < v.maxBatch {
		select {
		case req := <-v.appendC:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// commit chains, writes and fsyncs one batch, then wakes every caller.
// The committer goroutine is the only writer of the chain position and
// the active file handle, so the expensive part — chaining, encoding and
// the write+fsync — runs outside v.mu; the mutex is taken only to read
// the starting position and to publish the batch. Audit queries never
// stall behind a per-batch fsync; segment rotation (once per segRecords
// appends) does briefly hold the lock through the seal's index and
// manifest writes.
func (v *Vault) commit(batch []*appendReq) {
	commitStart := time.Now()
	v.mu.Lock()
	failure := v.failure
	seq, hash := v.lastSeq, v.lastHash
	v.mu.Unlock()
	if failure != nil {
		for _, req := range batch {
			req.resp <- appendResp{err: failure}
		}
		return
	}
	// One chainer, one encoder and one write buffer serve the whole batch
	// (and are reused across batches); per-record cost is the two hashes
	// the chain demands plus a buffer append.
	if v.chainer == nil {
		v.chainer = store.NewChainer(seq, hash)
	} else {
		v.chainer.Reset(seq, hash)
	}
	// recs and lines hold every staged record and its frame length, in
	// commit order; staged maps each request onto its span of them.
	type stagedReq struct {
		req      *appendReq
		from, to int
	}
	n := 0
	for _, req := range batch {
		n += len(req.entries)
	}
	recs := make([]*store.Record, 0, n)
	lines := make([]int64, 0, n)
	staged := make([]stagedReq, 0, len(batch))
	var sealReqs, flushReqs []*appendReq
	buf := v.commitBuf[:0]
	// The encoder carries over from the commit before: a frame may lean
	// on a plain frame of its run from an earlier write to the segment, so
	// a record's bytes do not depend on how appends were grouped.
	for _, req := range batch {
		if req.seal {
			sealReqs = append(sealReqs, req)
			continue
		}
		if req.flush {
			flushReqs = append(flushReqs, req)
			continue
		}
		from, n0 := len(recs), len(buf)
		var err error
		for _, e := range req.entries {
			var rec *store.Record
			if rec, err = v.chainer.Next(v.clk.Now(), e.Dir, e.Token, e.Note); err != nil {
				break
			}
			frame := len(buf)
			var out []byte
			if out, err = v.recEnc.AppendRecord(buf, rec); err != nil {
				break
			}
			buf = out
			recs, lines = append(recs, rec), append(lines, int64(len(buf)-frame))
		}
		if err != nil {
			// All or nothing: drop what the request staged and rewind the
			// chain past records that will not hit disk, so the next
			// record chains from the last one that will — and leans on no
			// frame that was dropped.
			recs, lines, buf = recs[:from], lines[:from], buf[:n0]
			v.chainer.Reset(seq, hash)
			v.recEnc.Cut()
			req.resp <- appendResp{err: err}
			continue
		}
		staged = append(staged, stagedReq{req: req, from: from, to: len(recs)})
		seq, hash = v.chainer.Position()
	}
	// Recycle the batch buffer, unless an unusually large batch grew it
	// past what steady state needs.
	if cap(buf) <= 4<<20 {
		v.commitBuf = buf[:0]
	} else {
		v.commitBuf = nil
	}
	if len(recs) == 0 && len(sealReqs) == 0 {
		// Nothing to write; a flush barrier behind an empty batch is
		// already satisfied.
		for _, req := range flushReqs {
			req.resp <- appendResp{}
		}
		return
	}
	if len(recs) > 0 {
		if err := v.write(buf); err != nil {
			v.mu.Lock()
			v.failure = err
			v.mu.Unlock()
			for _, s := range staged {
				s.req.resp <- appendResp{err: err}
			}
			for _, req := range sealReqs {
				req.resp <- appendResp{err: err}
			}
			for _, req := range flushReqs {
				req.resp <- appendResp{err: err}
			}
			return
		}
	}
	v.mu.Lock()
	for i, rec := range recs {
		v.active.add(rec, lines[i])
	}
	v.lastSeq, v.lastHash = seq, hash
	if len(recs) > 0 && len(v.commitHooks) > 0 {
		v.pendingCommits = append(v.pendingCommits, recs[:len(recs):len(recs)])
	}
	var sealErr error
	if len(v.active.records) >= v.segRecords || (len(sealReqs) > 0 && len(v.active.records) > 0) {
		if sealErr = v.seal(); sealErr != nil {
			v.failure = sealErr
		}
	}
	v.mu.Unlock()
	if len(recs) > 0 {
		v.commitBatch.Observe(int64(len(recs)))
		v.records.Add(int64(len(recs)))
		v.bytes.Add(int64(len(buf)))
		v.commitNs.Since(commitStart)
	}
	// Records first, then the seal that may contain them: a subscriber
	// must never learn of a seal before the records it asserts.
	v.notifyCommits()
	v.notifySeals()
	for _, s := range staged {
		// Capped, so a caller appending to its records cannot reach its
		// neighbours' in the shared batch slice.
		s.req.resp <- appendResp{recs: recs[s.from:s.to:s.to]}
	}
	for _, req := range sealReqs {
		req.resp <- appendResp{err: sealErr}
	}
	for _, req := range flushReqs {
		req.resp <- appendResp{}
	}
}

// write puts one batch on disk: a single write and (unless disabled) a
// single fsync for the whole batch.
func (v *Vault) write(buf []byte) error {
	if _, err := v.f.Write(buf); err != nil {
		return fmt.Errorf("vault: append batch: %w", err)
	}
	if v.sync {
		start := time.Now()
		if err := v.f.Sync(); err != nil {
			return fmt.Errorf("vault: sync batch: %w", err)
		}
		v.fsyncNs.Since(start)
	}
	return nil
}

// seal freezes the active segment (mu held): writes its index, appends the
// chained manifest entry, evicts its records from RAM and opens the next
// segment.
func (v *Vault) seal() error {
	a := v.active
	if len(a.records) == 0 {
		return nil
	}
	sealStart := time.Now()
	// The index is encoded once: the same bytes are digested for the
	// seal and written to the index file.
	l := indexLayouts[indexFormatAligned]
	payload := encodeIndexPayload(a.firstSeq, len(a.records), a.payload(l))
	entry := ManifestEntry{
		Segment:     a.number,
		FirstSeq:    a.firstSeq,
		LastSeq:     v.lastSeq,
		FirstAt:     a.records[0].At,
		LastAt:      a.records[len(a.records)-1].At,
		LastHash:    v.lastHash,
		Content:     a.content,
		Index:       sha256.Sum256(payload),
		IndexFormat: indexFormatAligned,
		Prev:        v.lastSeal,
	}
	d, err := entry.computeDigest()
	if err != nil {
		return err
	}
	entry.Digest = d
	// Seals are durable even under WithoutSync: the manifest is about to
	// assert this segment's exact contents, so the segment data must hit
	// disk first or a power loss would turn honest evidence into a
	// permanent false tamper verdict. WithoutSync therefore risks only
	// unsealed-tail records.
	if err := v.f.Sync(); err != nil {
		return fmt.Errorf("vault: sync sealing segment: %w", err)
	}
	line, err := canon.Marshal(&entry)
	if err != nil {
		return err
	}
	idx, err := v.adoptIndex(&entry, line, payload)
	if err != nil {
		return err
	}
	v.bytes.Add(int64(len(indexFileHeader(l.magic, line)) + len(payload)))
	if _, err := v.manifestF.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("vault: append manifest: %w", err)
	}
	if err := v.manifestF.Sync(); err != nil {
		return fmt.Errorf("vault: sync manifest: %w", err)
	}
	if err := v.f.Close(); err != nil {
		return fmt.Errorf("vault: close sealed segment: %w", err)
	}
	// Evict: only the routing keys survive on the heap.
	if err := v.addSealed(idx); err != nil {
		return err
	}
	v.lastSeal = entry.Digest
	v.pendingSeals = append(v.pendingSeals, entry)
	v.active = newSegment(a.number+1, v.lastSeq+1)
	v.active.setEncoding(store.EncBinary)
	v.recEnc.Reset() // the next frame opens a new file
	f, err := os.OpenFile(segPath(v.dir, v.active.number), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("vault: open next segment: %w", err)
	}
	if err := v.writeSegmentHeader(f); err != nil {
		f.Close()
		return err
	}
	v.f = f
	// Persist the directory entries for the index, the manifest line's
	// backing file and the fresh segment before acknowledging anything
	// recorded against them.
	if err := v.syncDir(); err != nil {
		return err
	}
	v.seals.Inc()
	v.sealNs.Since(sealStart)
	return nil
}

// addSealed registers a sealed segment's index and routes its run and
// transaction keys to it (mu held, or during single-threaded open).
func (v *Vault) addSealed(idx *segmentIndex) error {
	pos := len(v.sealed)
	route := func(table int, segs map[string][]int) error {
		return idx.eachKey(table, func(key, _ []byte) error {
			segs[string(key)] = append(segs[string(key)], pos)
			return nil
		})
	}
	if err := route(tableRuns, v.runSegs); err != nil {
		return err
	}
	if err := route(tableTxns, v.txnSegs); err != nil {
		return err
	}
	v.sealed = append(v.sealed, idx)
	return nil
}

// Append implements store.Log. The call blocks until the record's batch is
// durable (or the vault fails), so an acknowledged append survives a
// crash.
func (v *Vault) Append(dir store.Direction, tok *evidence.Token, note string) (*store.Record, error) {
	recs, err := v.appendWait(newAppendReq(store.Entry{Dir: dir, Token: tok, Note: note}))
	if err != nil {
		return nil, err
	}
	return recs[0], nil
}

// AppendGroup implements store.Log: the entries take contiguous
// sequence numbers in slice order and ride one request through the
// committer — one write, one fsync, never split across two commits — so
// the caller waits for one commit however many records its protocol step
// produced. The group fails as a whole if any entry cannot be chained or
// encoded; a crash mid-write recovers to a prefix of it (Open truncates
// the torn frame), a state one-by-one Appends produce too.
func (v *Vault) AppendGroup(entries []store.Entry) ([]*store.Record, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	return v.appendWait(newAppendReq(entries...))
}

// appendWait runs one blocking append request.
func (v *Vault) appendWait(req *appendReq) ([]*store.Record, error) {
	if v.readOnly {
		return nil, ErrReadOnly
	}
	start := time.Now()
	resp := v.await(req)
	v.appendNs.Since(start)
	return resp.recs, resp.err
}

// await hands req to the committer and waits for its answer; ErrClosed if
// the vault closes first.
func (v *Vault) await(req *appendReq) appendResp {
	select {
	case v.appendC <- req:
	case <-v.done:
		return appendResp{err: ErrClosed}
	}
	select {
	case resp := <-req.resp:
		return resp
	case <-v.done:
		select {
		case resp := <-req.resp:
			return resp
		default:
			return appendResp{err: ErrClosed}
		}
	}
}

// AppendAsync enqueues a record without waiting for durability: the
// record rides the committer's next group commit, sharing that batch's
// single write+fsync instead of adding one of its own to the caller's
// critical path. Enqueue order is commit order. An error is reported only
// if the vault is already closed, read-only, or poisoned; a caller that
// must observe durability (or the commit error) calls Sync. The durable
// job journal folds its job-done brackets into the adjacent evidence
// commit this way.
func (v *Vault) AppendAsync(dir store.Direction, tok *evidence.Token, note string) error {
	if v.readOnly {
		return ErrReadOnly
	}
	v.mu.Lock()
	failure := v.failure
	v.mu.Unlock()
	if failure != nil {
		return failure
	}
	select {
	case v.appendC <- newAppendReq(store.Entry{Dir: dir, Token: tok, Note: note}):
		return nil
	case <-v.done:
		return ErrClosed
	}
}

// Sync blocks until every append enqueued before the call — including
// AppendAsync ones — is durable, and reports the vault's failure state if
// committing any of them poisoned it.
func (v *Vault) Sync() error {
	if v.readOnly {
		return nil
	}
	return v.await(&appendReq{flush: true, resp: make(chan appendResp, 1)}).err
}

// SealNow seals the active segment immediately, without waiting for it to
// fill: its records are indexed, manifest-chained and evicted like any
// rotation. Replication ships only sealed segments, so a source that must
// hand its complete log to peers — before a planned shutdown, or ahead of
// an adjudication — seals first. A vault with an empty active segment is
// left as is. The call blocks until the seal is durable.
func (v *Vault) SealNow() error {
	if v.readOnly {
		return ErrReadOnly
	}
	return v.await(&appendReq{seal: true, resp: make(chan appendResp, 1)}).err
}

// Manifest returns a copy of the seal chain: one entry per sealed
// segment, in order. It is the replication shipping list and the
// catch-up negotiation state.
func (v *Vault) Manifest() []ManifestEntry {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]ManifestEntry, len(v.sealed))
	for i, idx := range v.sealed {
		out[i] = idx.Entry
	}
	return out
}

// Package reads one sealed segment into a shippable package: its manifest
// entry plus the exact segment file bytes (the index is a function of
// those; every receiver derives it). Sealed files are immutable, so the
// read needs no lock beyond locating the entry.
func (v *Vault) Package(segment uint64) (*SegmentPackage, error) {
	// Segments are numbered sequentially from 1, so the entry sits at
	// index segment-1 (the invariant replica acceptance also enforces).
	var entry *ManifestEntry
	v.mu.Lock()
	if segment >= 1 && segment <= uint64(len(v.sealed)) && v.sealed[segment-1].Entry.Segment == segment {
		e := v.sealed[segment-1].Entry
		entry = &e
	}
	v.mu.Unlock()
	if entry == nil {
		return nil, fmt.Errorf("vault: segment %d is not sealed", segment)
	}
	data, err := os.ReadFile(segPath(v.dir, segment))
	if err != nil {
		return nil, fmt.Errorf("vault: package segment %d: %w", segment, err)
	}
	return &SegmentPackage{Entry: *entry, Data: data}, nil
}

// Len implements store.Log.
func (v *Vault) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return int(v.lastSeq)
}

// ByRun returns the records of one run, or those read before a read
// error. It is kept, error-less, for the benchmark harness alone; every
// other reader calls QueryAll, which reports the error.
func (v *Vault) ByRun(run id.Run) []*store.Record {
	recs, _ := v.QueryAll(Query{Run: run}) // the harness counts a short answer as a failed lookup
	return recs
}

// VerifyChain implements store.Log as a deep verify: every sealed segment
// is re-read and checked against both the record chain and its seal.
func (v *Vault) VerifyChain() error { return v.DeepVerify() }

// DeepVerify re-reads the entire vault: the manifest chain, every sealed
// segment's records against record chain, content digest and seal, and
// the in-memory tail. Open performs only the fast tail check; run
// DeepVerify for full audits.
func (v *Vault) DeepVerify() error {
	v.mu.Lock()
	sealed := make([]*segmentIndex, len(v.sealed))
	copy(sealed, v.sealed)
	tail := make([]*store.Record, len(v.active.records))
	copy(tail, v.active.records)
	v.mu.Unlock()

	var prevSeal, prevHash sig.Digest
	lastSeq := uint64(0)
	for _, idx := range sealed {
		e := idx.Entry
		d, err := e.computeDigest()
		if err != nil {
			return err
		}
		if d != e.Digest {
			return fmt.Errorf("%w: manifest entry for segment %d", ErrSealBroken, e.Segment)
		}
		if e.Prev != prevSeal {
			return fmt.Errorf("%w: manifest chain at segment %d", ErrSealBroken, e.Segment)
		}
		prevSeal = e.Digest
		if err := idx.verify(&e); err != nil {
			return err
		}
		// Deep verification pins the cross-segment linkage: the segment's
		// first record must chain from the previous segment's last hash.
		if _, err := readSealedSegment(v.dir, e, &prevHash, func(*store.Record, int64) error { return nil }); err != nil {
			return err
		}
		prevHash, lastSeq = e.LastHash, e.LastSeq
	}
	cv := store.ResumeChain(lastSeq, prevHash)
	for _, rec := range tail {
		if err := cv.Check(rec); err != nil {
			return fmt.Errorf("vault: tail segment: %w", err)
		}
	}
	return nil
}

// Stats reports the vault's shape.
type Stats struct {
	// Segments counts sealed segments.
	Segments int
	// SealedRecords counts records evicted to sealed segments.
	SealedRecords uint64
	// TailRecords counts records in the unsealed (in-memory) tail.
	TailRecords int
	// LastSeq is the sequence number of the newest record.
	LastSeq uint64
}

// Stats returns the vault's current shape.
func (v *Vault) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := Stats{Segments: len(v.sealed), TailRecords: len(v.active.records), LastSeq: v.lastSeq}
	s.SealedRecords = v.lastSeq - uint64(len(v.active.records))
	return s
}

// Health is the vault's /healthz check: its shape and, once a segment
// is sealed, the seal-chain head.
func (v *Vault) Health() any {
	st := v.Stats()
	h := map[string]any{
		"segments":       st.Segments,
		"sealed_records": st.SealedRecords,
		"tail_records":   st.TailRecords,
		"last_seq":       st.LastSeq,
	}
	if m := v.Manifest(); len(m) > 0 {
		h["seal_head"] = m[len(m)-1].Digest
	}
	return h
}

// Close implements store.Log: pending appends are committed, the tail
// stays unsealed (it is replayed on the next Open), and file handles are
// released. A vault from OpenTemp removes its directory.
func (v *Vault) Close() error {
	v.closeOnce.Do(func() {
		if !v.readOnly {
			close(v.quit)
			<-v.done
		}
		// Final notify pass: anything still pending when the committer
		// stopped must reach the hooks, or a shipper or subscriber would
		// miss the last segment until the next catch-up.
		v.notifyCommits()
		v.notifySeals()
		v.mu.Lock()
		defer v.mu.Unlock()
		if v.f != nil {
			if err := v.f.Close(); err != nil && v.closeErr == nil {
				v.closeErr = err
			}
			v.f = nil
		}
		if v.manifestF != nil {
			if err := v.manifestF.Close(); err != nil && v.closeErr == nil {
				v.closeErr = err
			}
			v.manifestF = nil
		}
		v.unlock()
		if v.removeDir {
			if err := os.RemoveAll(v.dir); err != nil && v.closeErr == nil {
				v.closeErr = err
			}
		}
	})
	return v.closeErr
}
