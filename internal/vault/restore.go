// Incremental restore: rebuilding a lost or stale primary from any
// holder of its sealed history — a peer's ReplicaSet directory or the
// object-store archival tier — fetching only the segments the local
// directory is missing. The whole path re-verifies everything it
// touches: the source manifest must be a valid seal chain, the local
// manifest must be a verified prefix of it, local unsealed tail records
// must hash-match the incoming sealed bytes that will cover them, and
// every fetched segment passes the single verify-and-install rule
// before the manifest names it.
package vault

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"nonrep/internal/canon"
	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// ErrRestoreDiverged is returned when the directory being restored holds
// history that is not a prefix of the restore source — merging two
// divergent evidence histories is not a recovery operation.
var ErrRestoreDiverged = errors.New("vault: local history diverges from the restore source")

// VerifyManifest checks a standalone seal chain: every entry must seal
// its own digest, link to its predecessor, and be numbered sequentially
// from 1. It is the acceptance rule for manifests that arrive from
// outside the local trust boundary (replica directories, archive
// objects).
func VerifyManifest(entries []ManifestEntry) error {
	var prev sig.Digest
	for i, e := range entries {
		d, err := e.computeDigest()
		if err != nil {
			return err
		}
		if d != e.Digest || e.Prev != prev {
			return fmt.Errorf("%w: manifest entry %d", ErrSealBroken, i+1)
		}
		if e.Segment != uint64(i+1) {
			return fmt.Errorf("%w: manifest entry %d numbered %d", ErrSealBroken, i+1, e.Segment)
		}
		prev = e.Digest
	}
	return nil
}

// readManifestFile reads and chain-verifies the manifest at path; a
// missing file is an empty manifest.
func readManifestFile(path string) ([]ManifestEntry, error) {
	var entries []ManifestEntry
	if _, _, err := store.ReadJSONLines(path, func(e *ManifestEntry, _ int64) error {
		entries = append(entries, *e)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := VerifyManifest(entries); err != nil {
		return nil, err
	}
	return entries, nil
}

// RestoreInto incrementally rebuilds the vault directory dir from a
// verified source manifest and a segment fetcher, installing only the
// segments dir is missing. The local manifest must be a (possibly
// empty) verified prefix of entries, else ErrRestoreDiverged. Local
// unsealed tail records are allowed only when the incoming segments
// reproduce them hash for hash (a stale primary whose tail was already
// sealed and shipped before the loss); a tail the source cannot account
// for refuses the restore. The directory must not be open as a live
// vault. Returns how many segments were installed.
//
// fetch is called once per missing segment and may serve the package
// from a replica directory, a peer, or the blob archival tier; the
// returned package is fully re-verified before installation.
func RestoreInto(dir string, entries []ManifestEntry, fetch func(ManifestEntry) (*SegmentPackage, error)) (int, error) {
	if err := VerifyManifest(entries); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return 0, fmt.Errorf("vault: create restore dir: %w", err)
	}
	local, err := readManifestFile(filepath.Join(dir, manifestName))
	if err != nil {
		return 0, err
	}
	if len(local) > len(entries) {
		return 0, fmt.Errorf("%w: %s holds %d sealed segments, source has %d", ErrRestoreDiverged, dir, len(local), len(entries))
	}
	for i := range local {
		if local[i].Digest != entries[i].Digest {
			return 0, fmt.Errorf("%w: sealed segment %d", ErrRestoreDiverged, i+1)
		}
	}
	if len(local) == len(entries) {
		return 0, nil // already caught up; any tail is this vault's own
	}

	// Local unsealed tail records, if any, sit in the file the first
	// missing segment will be installed over. They must be covered —
	// hash for hash — by the incoming sealed history, or the restore
	// would destroy records the source cannot reproduce.
	tailHashes, err := readTailHashes(dir, local)
	if err != nil {
		return 0, err
	}
	if n := len(tailHashes); n > 0 {
		var sealedHead uint64
		if len(local) > 0 {
			sealedHead = local[len(local)-1].LastSeq
		}
		// Refuse before touching anything: a tail the incoming history
		// cannot fully cover means this vault holds records the source
		// never saw.
		if covered := entries[len(entries)-1].LastSeq - sealedHead; uint64(n) > covered {
			return 0, fmt.Errorf("%w: %d local tail records extend past the restore source", ErrRestoreDiverged, n)
		}
	}

	installed := 0
	var manifest []byte
	for i := len(local); i < len(entries); i++ {
		e := entries[i]
		pkg, err := fetch(e)
		if err != nil {
			return installed, fmt.Errorf("vault: fetch segment %d: %w", e.Segment, err)
		}
		if pkg == nil {
			return installed, fmt.Errorf("vault: fetch segment %d: no package", e.Segment)
		}
		if pkg.Entry.Digest != e.Digest {
			return installed, fmt.Errorf("%w: fetched segment %d does not match the manifest", ErrSealBroken, e.Segment)
		}
		if len(tailHashes) > 0 {
			if err := matchTailPrefix(tailHashes, e, pkg.Data); err != nil {
				return installed, err
			}
			if covered := int(e.LastSeq-e.FirstSeq) + 1; covered >= len(tailHashes) {
				tailHashes = nil
			} else {
				tailHashes = tailHashes[covered:]
			}
		}
		var expectPrev *sig.Digest
		if i > 0 {
			expectPrev = &entries[i-1].LastHash
		}
		if err := verifyAndInstallSegment(dir, e, pkg.Data, expectPrev); err != nil {
			return installed, err
		}
		line, merr := canon.Marshal(&e)
		if merr != nil {
			return installed, merr
		}
		manifest = append(manifest, line...)
		manifest = append(manifest, '\n')
		installed++
	}
	if len(tailHashes) > 0 {
		// Cannot happen after matchTailPrefix refused longer tails, but
		// guard the invariant: never acknowledge a restore that dropped
		// tail records.
		return installed, fmt.Errorf("vault: restore left %d tail records unaccounted for", len(tailHashes))
	}
	// The segment files and indexes are durable; only now may the
	// manifest name them. A crash before this point leaves the local
	// manifest unchanged plus unreferenced files the retry overwrites.
	if err := syncDirPath(dir); err != nil {
		return installed, err
	}
	if err := appendFileSync(filepath.Join(dir, manifestName), manifest); err != nil {
		return installed, err
	}
	return installed, syncDirPath(dir)
}

// readTailHashes collects the chained hashes of the unsealed tail
// records in dir (the segment file just past the sealed head), verified
// against the sealed head's chain position.
func readTailHashes(dir string, local []ManifestEntry) ([]sig.Digest, error) {
	tailNum := uint64(len(local) + 1)
	data, err := os.ReadFile(segPath(dir, tailNum))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("vault: inspect tail before restore: %w", err)
	}
	var expectSeq uint64
	var expectHash sig.Digest
	if n := len(local); n > 0 {
		expectSeq, expectHash = local[n-1].LastSeq, local[n-1].LastHash
	}
	cv := store.ResumeChain(expectSeq, expectHash)
	var hashes []sig.Digest
	_, _, torn, err := store.DecodeSegmentData(data, func(rec *store.Record, _ int64) error {
		if cerr := cv.Advance(rec); cerr != nil {
			return fmt.Errorf("vault: tail before restore: %w", cerr)
		}
		hashes = append(hashes, rec.Hash)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A torn final write is fine — the sealed copy about to be installed
	// supersedes it; the verified prefix still constrains the restore.
	_ = torn
	return hashes, nil
}

// matchTailPrefix checks that an incoming sealed segment's records
// reproduce the local tail hashes that fall inside its range, and that
// the tail does not extend past what the incoming history can cover
// when this is the last incoming segment.
func matchTailPrefix(tailHashes []sig.Digest, e ManifestEntry, data []byte) error {
	i := 0
	_, _, _, err := store.DecodeSegmentData(data, func(rec *store.Record, _ int64) error {
		if i < len(tailHashes) && rec.Hash != tailHashes[i] {
			return fmt.Errorf("refusing to restore over diverged tail record %d", rec.Seq)
		}
		i++
		return nil
	})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrRestoreDiverged, err)
	}
	return nil
}

// restoreFromReplica rebuilds (or incrementally catches up) the vault
// directory from a replica directory before the normal open — the
// WithRestoreFrom path. Only the missing suffix of the seal chain is
// fetched; a directory already holding the full history is untouched.
func (v *Vault) restoreFromReplica() error {
	entries, err := readManifestFile(filepath.Join(v.restoreFrom, manifestName))
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return nil
	}
	_, err = RestoreInto(v.dir, entries, func(e ManifestEntry) (*SegmentPackage, error) {
		data, rerr := os.ReadFile(segPath(v.restoreFrom, e.Segment))
		if rerr != nil {
			return nil, rerr
		}
		return &SegmentPackage{Entry: e, Data: data}, nil
	})
	return err
}
