// Package georep is the geo-replication policy plane over the evidence
// vault: it decides *when* an append counts as durable (after N-of-M
// replica acknowledgement under a sync policy, immediately under async),
// drives the per-peer push and segment-ship pumps that make that true,
// and tiers sealed segments into an object-store archive that survives
// the loss of every replica region.
//
// The package deliberately owns no wire protocol and no storage format
// of its own beyond the archive object framing: pushes travel over
// internal/protocol's geo and audit services, bytes land in
// internal/vault replicas and internal/blob stores. What lives here is
// policy — quorum arithmetic, watermarks, retry cadence, retention.
package georep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"nonrep/internal/blob"
	"nonrep/internal/canon"
	"nonrep/internal/sig"
	"nonrep/internal/vault"
)

// Archive object framing. Both objects are length-prefixed frames so a
// truncated or bit-flipped object is detected by structure before any
// content check runs; the content checks (entry seal digests, the
// manifest chain) then bind the structure to the evidence it claims to
// hold.
const (
	// objMagic heads one archived sealed segment: entry + a reserved
	// (formerly index) frame + data.
	objMagic = "NRA1"
	// manMagic heads an archived manifest: the source's full seal chain.
	manMagic = "NRAM"
	// maxFrameLen bounds any single length-prefixed frame inside an
	// archive object (64 MiB) — far above any real segment, low enough
	// that a corrupted length cannot drive allocation to absurdity.
	maxFrameLen = 64 << 20
)

// ErrArchiveCorrupt reports an archive object whose bytes do not decode
// to what its key claims — the "archive corruption" row of the failure
// taxonomy. Reads never return partially-decoded data with it.
var ErrArchiveCorrupt = errors.New("georep: archive object corrupt")

// EncodeObject frames one sealed-segment package as an archive object.
func EncodeObject(pkg *vault.SegmentPackage) ([]byte, error) {
	entry, err := canon.Marshal(&pkg.Entry)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(objMagic)+len(entry)+len(pkg.Data)+3*binary.MaxVarintLen64)
	buf = append(buf, objMagic...)
	// The middle frame once carried the segment's index file; restores
	// derive the index from the verified records, so it is left empty.
	for _, frame := range [][]byte{entry, nil, pkg.Data} {
		buf = binary.AppendUvarint(buf, uint64(len(frame)))
		buf = append(buf, frame...)
	}
	return buf, nil
}

// readFrame consumes one uvarint-length-prefixed frame.
func readFrame(data []byte) (frame, rest []byte, err error) {
	n, used := binary.Uvarint(data)
	if used <= 0 || n > maxFrameLen || n > uint64(len(data)-used) {
		return nil, nil, ErrArchiveCorrupt
	}
	return data[used : used+int(n)], data[used+int(n):], nil
}

// DecodeObject parses and verifies one archived segment object: framing,
// entry seal digest, and the data bytes against the entry's record chain
// and content digest. A package it returns is internally consistent —
// linkage into a source's seal chain is still the installer's check.
func DecodeObject(data []byte) (*vault.SegmentPackage, error) {
	if len(data) < len(objMagic) || string(data[:len(objMagic)]) != objMagic {
		return nil, ErrArchiveCorrupt
	}
	data = data[len(objMagic):]
	var frames [3][]byte
	var err error
	for i := range frames {
		if frames[i], data, err = readFrame(data); err != nil {
			return nil, err
		}
	}
	if len(data) != 0 {
		return nil, ErrArchiveCorrupt
	}
	pkg := &vault.SegmentPackage{}
	if err := canon.Unmarshal(frames[0], &pkg.Entry); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrArchiveCorrupt, err)
	}
	pkg.Data = bytes.Clone(frames[2])
	if err := pkg.Verify(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrArchiveCorrupt, err)
	}
	return pkg, nil
}

// EncodeManifest frames a source's seal chain as an archive object.
func EncodeManifest(entries []vault.ManifestEntry) ([]byte, error) {
	buf := append([]byte{}, manMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for i := range entries {
		raw, err := canon.Marshal(&entries[i])
		if err != nil {
			return nil, err
		}
		buf = binary.AppendUvarint(buf, uint64(len(raw)))
		buf = append(buf, raw...)
	}
	return buf, nil
}

// DecodeManifest parses and chain-verifies an archived manifest.
func DecodeManifest(data []byte) ([]vault.ManifestEntry, error) {
	if len(data) < len(manMagic) || string(data[:len(manMagic)]) != manMagic {
		return nil, ErrArchiveCorrupt
	}
	data = data[len(manMagic):]
	count, used := binary.Uvarint(data)
	if used <= 0 || count > maxFrameLen {
		return nil, ErrArchiveCorrupt
	}
	data = data[used:]
	entries := make([]vault.ManifestEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		frame, rest, err := readFrame(data)
		if err != nil {
			return nil, err
		}
		var e vault.ManifestEntry
		if err := canon.Unmarshal(frame, &e); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrArchiveCorrupt, err)
		}
		entries = append(entries, e)
		data = rest
	}
	if len(data) != 0 {
		return nil, ErrArchiveCorrupt
	}
	if err := vault.VerifyManifest(entries); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrArchiveCorrupt, err)
	}
	return entries, nil
}

// sourceID derives the key-safe directory name for a source — party
// names are free-form, object keys are not.
func sourceID(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:8])
}

func sourcePrefix(source string) string  { return "orgs/" + sourceID(source) }
func sourceNameKey(source string) string { return sourcePrefix(source) + "/SOURCE" }
func manifestKey(source string) string   { return sourcePrefix(source) + "/MANIFEST" }
func segmentKey(source string, seg uint64) string {
	return fmt.Sprintf("%s/seg/seg-%08d", sourcePrefix(source), seg)
}

// Archive is the object-store archival tier of one or many sources'
// evidence: content-addressed sealed-segment objects plus a per-source
// manifest object pinning the seal chain. Everything written is
// re-verifiable without the source — a wiped region restores from the
// archive alone. Safe for concurrent use; per-source writes are
// serialised so concurrent seals cannot interleave manifest updates.
type Archive struct {
	store blob.Store

	mu sync.Mutex // serialises read-modify-write of manifest objects
}

// NewArchive wraps an object store as an evidence archive.
func NewArchive(store blob.Store) *Archive {
	return &Archive{store: store}
}

// Put archives one sealed segment of source, updating the source's
// archived manifest. It is idempotent — re-archiving a segment the
// store already holds verifies the held copy instead of rewriting it —
// and refuses a package that does not extend (or match) the archived
// seal chain, so a confused or malicious writer cannot fork the
// archive.
func (a *Archive) Put(ctx context.Context, source string, pkg *vault.SegmentPackage) error {
	if pkg == nil {
		return errors.New("georep: nil segment package")
	}
	if err := pkg.Verify(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	entries, err := a.manifestLocked(ctx, source)
	if err != nil {
		return err
	}
	seg := pkg.Entry.Segment
	switch {
	case seg <= uint64(len(entries)):
		// Re-archival of history: must match what the chain pins.
		if entries[seg-1].Digest != pkg.Entry.Digest {
			return fmt.Errorf("georep: segment %d of %s conflicts with the archived seal chain", seg, source)
		}
	case seg == uint64(len(entries))+1:
		var prev vault.ManifestEntry
		if len(entries) > 0 {
			prev = entries[len(entries)-1]
			if pkg.Entry.Prev != prev.Digest {
				return fmt.Errorf("georep: segment %d of %s does not chain from the archived manifest", seg, source)
			}
		} else if pkg.Entry.Prev != (sig.Digest{}) {
			return fmt.Errorf("georep: segment %d of %s is not a chain genesis", seg, source)
		}
	default:
		return fmt.Errorf("georep: segment %d of %s leaves an archive gap (have %d)", seg, source, len(entries))
	}
	obj, err := EncodeObject(pkg)
	if err != nil {
		return err
	}
	key := segmentKey(source, seg)
	if held, gerr := a.store.Get(ctx, key); gerr == nil {
		if !bytes.Equal(held, obj) {
			return fmt.Errorf("georep: archive object %s differs from the package being archived", key)
		}
	} else if !errors.Is(gerr, blob.ErrNotExist) {
		return gerr
	} else if err := a.store.Put(ctx, key, obj); err != nil {
		return err
	}
	if seg > uint64(len(entries)) {
		entries = append(entries, pkg.Entry)
		man, err := EncodeManifest(entries)
		if err != nil {
			return err
		}
		if err := a.store.Put(ctx, manifestKey(source), man); err != nil {
			return err
		}
		if len(entries) == 1 {
			if err := a.store.Put(ctx, sourceNameKey(source), []byte(source)); err != nil {
				return err
			}
		}
	}
	return nil
}

// manifestLocked reads the archived manifest under a.mu; absent → empty.
func (a *Archive) manifestLocked(ctx context.Context, source string) ([]vault.ManifestEntry, error) {
	raw, err := a.store.Get(ctx, manifestKey(source))
	if errors.Is(err, blob.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return DecodeManifest(raw)
}

// LastSealed implements vault.ShipTarget: the length of the archived,
// chain-verified manifest — one Get, so a restarted shipper asks the
// archive where it is, like every replica, instead of re-offering
// history.
func (a *Archive) LastSealed(ctx context.Context, source string) (uint64, error) {
	entries, err := a.Manifest(ctx, source)
	return uint64(len(entries)), err
}

// Ship implements vault.ShipTarget as Put: the archive is a ship-only
// target of the engine.
func (a *Archive) Ship(ctx context.Context, source string, pkg *vault.SegmentPackage) error {
	return a.Put(ctx, source, pkg)
}

// ShipReplicas catches the archive up with every source rs hosts — what
// a replica host running the archive tier does on its own clock. A
// hosted replica directory is a valid read-only vault, so its sealed
// segments beyond the archive's watermark ship like any vault's; a
// source the archive already covers costs one manifest Get and its
// directory is not opened. Every source is attempted; the first error
// is returned.
func (a *Archive) ShipReplicas(ctx context.Context, rs *vault.ReplicaSet) error {
	sources, err := rs.Sources()
	if err != nil {
		return err
	}
	catchUp := func(source string) error {
		have, err := a.LastSealed(ctx, source)
		if err != nil {
			return err
		}
		if held, err := rs.LastSealed(source); err != nil || held <= have {
			return err
		}
		rv, err := vault.Open(rs.Dir(source), nil, vault.WithReadOnly())
		if err != nil {
			return err
		}
		defer rv.Close()
		_, err = ShipSealed(ctx, rv, source, a, have)
		return err
	}
	var firstErr error
	for _, source := range sources {
		if err := catchUp(source); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("georep: archive replica of %s: %w", source, err)
		}
	}
	return firstErr
}

// Manifest returns the archived, chain-verified seal chain of source
// (empty when the source has never been archived).
func (a *Archive) Manifest(ctx context.Context, source string) ([]vault.ManifestEntry, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.manifestLocked(ctx, source)
}

// Fetch retrieves and verifies one archived segment of source. The
// returned package has passed the same checks a shipped segment does on
// receipt, plus linkage against the archived manifest.
func (a *Archive) Fetch(ctx context.Context, source string, segment uint64) (*vault.SegmentPackage, error) {
	entries, err := a.Manifest(ctx, source)
	if err != nil {
		return nil, err
	}
	if segment < 1 || segment > uint64(len(entries)) {
		return nil, fmt.Errorf("georep: segment %d of %s is not archived: %w", segment, source, blob.ErrNotExist)
	}
	raw, err := a.store.Get(ctx, segmentKey(source, segment))
	if err != nil {
		return nil, err
	}
	pkg, err := DecodeObject(raw)
	if err != nil {
		return nil, err
	}
	if pkg.Entry.Digest != entries[segment-1].Digest {
		return nil, fmt.Errorf("%w: segment %d of %s does not match the archived manifest", ErrArchiveCorrupt, segment, source)
	}
	return pkg, nil
}

// Has reports whether source's segment is archived — the confirmation
// callback replica retention (ReplicaSet.Prune) requires before it
// drops a local copy.
func (a *Archive) Has(ctx context.Context, source string, segment uint64) bool {
	if segment < 1 {
		return false
	}
	_, err := a.store.Get(ctx, segmentKey(source, segment))
	return err == nil
}

// Sources lists every source the archive holds, by registered name.
func (a *Archive) Sources(ctx context.Context) ([]string, error) {
	keys, err := a.store.List(ctx, "orgs/")
	if err != nil {
		return nil, err
	}
	var out []string
	for _, k := range keys {
		if !strings.HasSuffix(k, "/SOURCE") {
			continue
		}
		raw, err := a.store.Get(ctx, k)
		if err != nil {
			return nil, err
		}
		out = append(out, string(raw))
	}
	sort.Strings(out)
	return out, nil
}
