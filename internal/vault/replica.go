// Sealed-segment replication: evidence must survive to dispute time even
// when the party that produced it is uncooperative or its storage has
// failed. A ReplicaSet is the receiving half — one organisation's durable
// store of other organisations' sealed segments, each copy verified
// against the source's seal chain before it is accepted, so a tampered
// replica (or a tampering peer) is rejected at the door rather than
// discovered at adjudication. A replica directory is itself a valid
// read-only vault: an adjudication can be served entirely from a peer's
// replicas, and Open(WithRestoreFrom) rebuilds a lost primary from them.
package vault

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"nonrep/internal/canon"
	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// ErrReplicaGap is returned by Receive when a shipped segment does not
// directly extend the replica — the shipper must catch up with the
// missing earlier segments first.
var ErrReplicaGap = errors.New("vault: shipped segment leaves a replica gap")

// ShipTarget is the receiving side of sealed-segment shipping as a
// shipper (the georep engine) sees it. The protocol layer implements it
// over audit-service messages toward a peer's ReplicaSet, the object-store
// archive implements it over its manifest, tests implement it directly
// over a ReplicaSet.
type ShipTarget interface {
	// LastSealed reports the highest segment of source's vault the target
	// already holds (0 for none) — the catch-up negotiation.
	LastSealed(ctx context.Context, source string) (uint64, error)
	// Ship delivers one sealed segment package for source.
	Ship(ctx context.Context, source string, pkg *SegmentPackage) error
}

// SegmentPackage is one sealed segment in transit between organisations:
// the manifest entry that seals it and the exact segment file bytes.
// Receivers trust none of it — the entry digest, seal-chain link, record
// chain, content digest and index digest are all re-verified on receipt,
// the last by deriving the index from the records (it is a function of
// them, so it does not travel).
//
// A package travels as one protocol envelope of unbounded size: the
// transport's chunked-transfer layer splits envelopes past the wire frame
// budget into individually-retried chunk streams and reassembles them
// before the audit service sees the ship, so segments are no longer
// limited by the 16 MiB TCP frame. The protocol carries Data raw beside
// the JSON body, which then holds the entry alone.
type SegmentPackage struct {
	Entry ManifestEntry `json:"entry"`
	Data  []byte        `json:"data,omitempty"`
}

// Verify checks the package in isolation: the entry seals its own
// digest and the data bytes reproduce the entry's record chain and
// content digest. It does not check linkage into a particular seal
// chain — installation paths do that against their manifest. Archive
// reads use it to tell a corrupted object from a healthy one before
// anything downstream trusts the bytes.
func (pkg *SegmentPackage) Verify() error {
	if err := pkg.Entry.VerifySeal(); err != nil {
		return err
	}
	_, err := verifySealedSegmentData(pkg.Data, pkg.Entry, nil, func(*store.Record, int64) error { return nil })
	return err
}

// ReplicaSet stores verified replicas of peer organisations' sealed
// segments under one root directory, one subdirectory per source. It is
// safe for concurrent use.
type ReplicaSet struct {
	root string

	mu      sync.Mutex
	sources map[string]*replicaState
}

// replicaState is the loaded seal chain of one source's replica, plus
// (lazily) its unsealed tail — see ReceiveTail.
type replicaState struct {
	dir     string
	entries []ManifestEntry
	tail    *replicaTail
}

func (s *replicaState) last() (ManifestEntry, bool) {
	if n := len(s.entries); n > 0 {
		return s.entries[n-1], true
	}
	return ManifestEntry{}, false
}

// OpenReplicaSet opens (creating if necessary) a replica store rooted at
// root.
func OpenReplicaSet(root string) (*ReplicaSet, error) {
	if err := os.MkdirAll(root, 0o700); err != nil {
		return nil, fmt.Errorf("vault: create replica root %s: %w", root, err)
	}
	return &ReplicaSet{root: root, sources: make(map[string]*replicaState)}, nil
}

// Root returns the replica store's root directory.
func (rs *ReplicaSet) Root() string { return rs.root }

// Dir returns the replica directory of a source — a valid read-only
// vault directory holding every segment received so far.
func (rs *ReplicaSet) Dir(source string) string {
	return filepath.Join(rs.root, sourceDirName(source))
}

// sourceDirName maps a source identifier (a party URI) to a filesystem
// name: the safe characters survive for readability, everything else is
// replaced, and a short digest suffix keeps distinct sources from
// colliding after sanitisation.
func sourceDirName(source string) string {
	safe := make([]byte, 0, len(source))
	for i := 0; i < len(source); i++ {
		c := source[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			safe = append(safe, c)
		default:
			safe = append(safe, '_')
		}
	}
	sum := sha256.Sum256([]byte(source))
	return string(safe) + "-" + hex.EncodeToString(sum[:4])
}

// state returns (loading and chain-verifying if necessary) the replica
// state of a source (rs.mu held).
func (rs *ReplicaSet) state(source string) (*replicaState, error) {
	if st, ok := rs.sources[source]; ok {
		return st, nil
	}
	st := &replicaState{dir: rs.Dir(source)}
	path := filepath.Join(st.dir, manifestName)
	prefix, torn, err := store.ReadJSONLines(path, func(e *ManifestEntry, _ int64) error {
		st.entries = append(st.entries, *e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if torn {
		// A crash between manifest write and sync; the unreferenced
		// segment files are re-shipped and overwritten.
		if err := os.Truncate(path, prefix); err != nil {
			return nil, fmt.Errorf("vault: truncate torn replica manifest: %w", err)
		}
	}
	var prev sig.Digest
	for i, e := range st.entries {
		d, derr := e.computeDigest()
		if derr != nil {
			return nil, derr
		}
		if d != e.Digest || e.Prev != prev {
			return nil, fmt.Errorf("%w: replica manifest entry %d for %s", ErrSealBroken, i+1, source)
		}
		// Segments are numbered sequentially from 1 — Receive and the
		// duplicate lookup index on that invariant, and entry digests are
		// unsigned self-hashes, so a doctored on-disk manifest could
		// otherwise smuggle in arbitrary numbering.
		if e.Segment != uint64(i+1) {
			return nil, fmt.Errorf("%w: replica manifest entry %d for %s numbered %d", ErrSealBroken, i+1, source, e.Segment)
		}
		prev = e.Digest
	}
	rs.sources[source] = st
	return st, nil
}

// LastSealed reports the highest segment number held for source (0 when
// none). Shippers use it to negotiate catch-up after downtime.
func (rs *ReplicaSet) LastSealed(source string) (uint64, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	st, err := rs.state(source)
	if err != nil {
		return 0, err
	}
	if last, ok := st.last(); ok {
		return last.Segment, nil
	}
	return 0, nil
}

// Sources lists the source identifiers with replicas in this store.
func (rs *ReplicaSet) Sources() ([]string, error) {
	dirs, err := os.ReadDir(rs.root)
	if err != nil {
		return nil, fmt.Errorf("vault: list replicas: %w", err)
	}
	var out []string
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		name, err := os.ReadFile(filepath.Join(rs.root, d.Name(), sourceFileName))
		if err != nil {
			continue
		}
		out = append(out, string(name))
	}
	return out, nil
}

// sourceFileName records the raw source identifier inside its sanitised
// replica directory.
const sourceFileName = "SOURCE"

// Receive verifies and durably stores one shipped segment for source.
// Acceptance is gated on the full seal-chain verification rule: the
// entry must seal its own digest, link to the previous accepted entry,
// and the shipped bytes must reproduce the entry's record chain, record
// count, content digest and chain endpoints — so a tampered package can
// never become a replica. A duplicate of an already-accepted segment is
// acknowledged idempotently; a segment that skips ahead fails with
// ErrReplicaGap.
func (rs *ReplicaSet) Receive(source string, pkg *SegmentPackage) error {
	if source == "" {
		return errors.New("vault: replica source must be named")
	}
	if pkg == nil {
		return errors.New("vault: nil segment package")
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	st, err := rs.state(source)
	if err != nil {
		return err
	}
	e := pkg.Entry
	d, err := e.computeDigest()
	if err != nil {
		return err
	}
	if d != e.Digest {
		return fmt.Errorf("%w: shipped entry digest for segment %d", ErrSealBroken, e.Segment)
	}
	last, have := st.last()
	if have && e.Segment <= last.Segment {
		// Duplicate delivery (a retransmitted or replayed seg-ship). It is
		// acknowledged only if it matches what was accepted before.
		// Segments are numbered sequentially from 1 (state() enforces the
		// invariant on load), so the accepted entry sits at Segment-1.
		if e.Segment >= 1 && e.Segment <= uint64(len(st.entries)) && st.entries[e.Segment-1].Digest == e.Digest {
			return nil
		}
		return fmt.Errorf("%w: segment %d conflicts with the accepted replica", ErrSealBroken, e.Segment)
	}
	var expectSeg, expectSeq uint64 = 1, 1
	var expectPrev *sig.Digest
	var prevSeal sig.Digest
	if have {
		expectSeg, expectSeq = last.Segment+1, last.LastSeq+1
		expectPrev = &last.LastHash
		prevSeal = last.Digest
	}
	if e.Segment != expectSeg {
		return fmt.Errorf("%w: got segment %d, replica holds %d", ErrReplicaGap, e.Segment, expectSeg-1)
	}
	if e.Prev != prevSeal {
		return fmt.Errorf("%w: segment %d does not chain from the replica's last seal", ErrSealBroken, e.Segment)
	}
	if e.FirstSeq != expectSeq {
		return fmt.Errorf("%w: segment %d first sequence %d, want %d", ErrSealBroken, e.Segment, e.FirstSeq, expectSeq)
	}

	if err := os.MkdirAll(st.dir, 0o700); err != nil {
		return fmt.Errorf("vault: create replica dir: %w", err)
	}
	if !have {
		if err := writeFileSync(filepath.Join(st.dir, sourceFileName), []byte(source)); err != nil {
			return err
		}
	}
	// The install is about to replace the tail file at this segment
	// number; load the tail first so quorum-pushed records the seal does
	// not yet cover can be re-based onto the next tail file instead of
	// being lost.
	if err := rs.loadTail(st); err != nil {
		return err
	}
	if err := verifyAndInstallSegment(st.dir, e, pkg.Data, expectPrev); err != nil {
		return err
	}
	line, err := canon.Marshal(&e)
	if err != nil {
		return err
	}
	if err := appendFileSync(filepath.Join(st.dir, manifestName), append(line, '\n')); err != nil {
		return err
	}
	if err := syncDirPath(st.dir); err != nil {
		return err
	}
	st.entries = append(st.entries, e)
	return rs.rebaseTail(st, e)
}

// verifyAndInstallSegment is the single verify-and-install rule shared by
// replica receipt and primary restore: the segment bytes are verified
// against their seal — record chain (cross-linked via expectPrev when
// given), count, content digest, chain endpoints and the pinned index
// digest — at a temporary name and renamed into place only on success,
// so a concurrent read-only audit never sees unverified bytes and a
// failed verification leaves no trace. The index is derived from the
// just-verified records by the same encoder the source sealed with, so
// the installed index file is byte-identical to the source's.
func verifyAndInstallSegment(dir string, e ManifestEntry, data []byte, expectPrev *sig.Digest) error {
	if err := e.VerifySeal(); err != nil {
		return err
	}
	final := segPath(dir, e.Segment)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	seg := newSegment(e.Segment, e.FirstSeq)
	// The shipped bytes keep their source encoding; offsets in the rebuilt
	// index must account for a binary segment's header.
	seg.setEncoding(store.DetectEncoding(data))
	if _, err := verifySealedSegmentFile(tmp, e, expectPrev, func(rec *store.Record, n int64) error {
		seg.add(rec, n)
		return nil
	}); err != nil {
		os.Remove(tmp)
		return err
	}
	payload, err := buildIndex(seg, &e)
	if err != nil {
		os.Remove(tmp)
		return err
	}
	line, err := canon.Marshal(&e)
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("vault: install replica segment: %w", err)
	}
	return writeIndexFile(dir, &e, line, payload)
}

// Manifest returns a copy of the accepted seal chain for source.
func (rs *ReplicaSet) Manifest(source string) ([]ManifestEntry, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	st, err := rs.state(source)
	if err != nil {
		return nil, err
	}
	out := make([]ManifestEntry, len(st.entries))
	copy(out, st.entries)
	return out, nil
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("vault: write %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("vault: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("vault: sync %s: %w", path, err)
	}
	return f.Close()
}

// writeFileAtomic writes the concatenation of parts to path through a
// fsynced temporary file and a rename, so readers (and mappings) of the
// previous file never see a partial write and a crash leaves either the
// old file or the new one.
func writeFileAtomic(path string, parts ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("vault: write %s: %w", path, err)
	}
	for _, part := range parts {
		if _, err := f.Write(part); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("vault: write %s: %w", path, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("vault: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("vault: close %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("vault: install %s: %w", path, err)
	}
	return nil
}

// appendFileSync appends data to path and fsyncs it.
func appendFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("vault: append %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("vault: append %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("vault: sync %s: %w", path, err)
	}
	return f.Close()
}

// syncDirPath fsyncs a directory so freshly created files survive power
// loss.
func syncDirPath(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("vault: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("vault: sync dir %s: %w", dir, err)
	}
	return nil
}
