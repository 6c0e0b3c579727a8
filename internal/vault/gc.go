// Replica retention: once a sealed segment is confirmed in the archival
// tier, a replica no longer needs to hold its data bytes forever. Prune
// removes the data files of old archived segments while keeping the
// manifest (the seal chain stays intact and verifiable) and the
// per-segment indexes (keyed queries still prune and plan correctly);
// a pruned segment's records are re-installed on demand from the
// archive via RestoreSegment. Everything runs under the ReplicaSet
// lock, so a prune can never race a concurrent receive or segment
// restore into a half-state.
package vault

import (
	"errors"
	"fmt"
	"os"
)

// Prune removes the data files of archived sealed segments for source,
// keeping the newest keepLast sealed segments regardless. A segment is
// only removed when archived(seg) reports it durably held elsewhere —
// the archival tier's confirmation callback. The manifest and index
// files are kept: the replica still opens read-only, serves keyed
// queries, and re-verifies its seal chain; only record reads of pruned
// segments need a RestoreSegment first. Returns the pruned segment
// numbers.
func (rs *ReplicaSet) Prune(source string, keepLast int, archived func(segment uint64) bool) ([]uint64, error) {
	if archived == nil {
		return nil, errors.New("vault: prune needs an archive confirmation")
	}
	if keepLast < 0 {
		keepLast = 0
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	st, err := rs.state(source)
	if err != nil {
		return nil, err
	}
	var pruned []uint64
	n := len(st.entries)
	for i := 0; i < n-keepLast; i++ {
		seg := st.entries[i].Segment
		path := segPath(st.dir, seg)
		if _, serr := os.Stat(path); serr != nil {
			continue // already pruned
		}
		if !archived(seg) {
			continue
		}
		if rerr := os.Remove(path); rerr != nil {
			return pruned, fmt.Errorf("vault: prune segment %d: %w", seg, rerr)
		}
		pruned = append(pruned, seg)
	}
	if len(pruned) > 0 {
		if err := syncDirPath(st.dir); err != nil {
			return pruned, err
		}
	}
	return pruned, nil
}

// PrunedSegments lists the sealed segments of source whose data files
// are absent — candidates for RestoreSegment when an adjudication needs
// their records.
func (rs *ReplicaSet) PrunedSegments(source string) ([]uint64, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	st, err := rs.state(source)
	if err != nil {
		return nil, err
	}
	var missing []uint64
	for _, e := range st.entries {
		if _, serr := os.Stat(segPath(st.dir, e.Segment)); serr != nil {
			missing = append(missing, e.Segment)
		}
	}
	return missing, nil
}

// RestoreSegment re-installs the data of a pruned sealed segment from a
// package fetched out of the archival tier. The package must reproduce
// exactly the seal the replica's manifest already pins for that
// position — the archive is trusted no more than any shipper.
func (rs *ReplicaSet) RestoreSegment(source string, pkg *SegmentPackage) error {
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
	if e.Segment < 1 || e.Segment > uint64(len(st.entries)) {
		return fmt.Errorf("%w: segment %d is not in the replica's sealed history", ErrReplicaGap, e.Segment)
	}
	if st.entries[e.Segment-1].Digest != e.Digest {
		return fmt.Errorf("%w: segment %d does not match the replica's seal chain", ErrSealBroken, e.Segment)
	}
	if e.Segment > 1 {
		prev := st.entries[e.Segment-2].LastHash
		return verifyAndInstallSegment(st.dir, e, pkg.Data, &prev)
	}
	return verifyAndInstallSegment(st.dir, e, pkg.Data, nil)
}
