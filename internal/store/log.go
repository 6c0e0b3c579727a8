// Package store implements the persistence services of section 3.5:
// trusted interceptors "have persistent storage for messages (or, more
// precisely, evidence extracted from messages)", evidence is logged, and
// "persistence services should support the mapping of the state digest to
// the representation of state in the state store".
//
// The evidence log is an append-only hash chain: every record includes the
// digest of its predecessor, so any later tampering with stored evidence is
// detectable. This package holds the Log interface, the chaining and
// verification primitives and the record codecs; the one implementation is
// the segmented vault (internal/vault).
//
// The record codecs are canonical JSON — the signed form, hashed into the
// chain — and binary segment format 10 (binary.go), which carries the
// same records byte-exactly in fewer bytes: compact fields, followers that
// borrow from the newest plain frame of their run, plain frames that take
// their parties from a recent one, a batch signature stored once for two
// sibling tokens side by side, digests derived from the bytes that
// determine them, and the notes the product journals as JSON stored as
// structured trees (jsonnote.go). Formats 1 to 9 and JSON segments stay
// readable.
package store

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// Direction records whether evidence was generated locally or received
// from a remote party.
type Direction string

// Record directions.
const (
	// Generated marks evidence this party issued.
	Generated Direction = "generated"
	// Received marks evidence received from a counterparty.
	Received Direction = "received"
)

// ErrChainBroken is returned when log verification finds a record whose
// hash chain does not verify.
var ErrChainBroken = errors.New("store: evidence log hash chain broken")

// Record is one entry in an evidence log.
type Record struct {
	Seq       uint64          `json:"seq"`
	Prev      sig.Digest      `json:"prev"`
	At        time.Time       `json:"at"`
	Direction Direction       `json:"direction"`
	Note      string          `json:"note,omitempty"`
	Token     *evidence.Token `json:"token"`
	// Hash is the digest of the record's canonical encoding with Hash
	// itself zeroed; it chains into the next record's Prev.
	Hash sig.Digest `json:"hash"`
}

// chainHash returns the chained hash of rec: the digest of its canonical
// JSON with Hash zeroed. The JSON is appended to scratch, which is
// returned (grown if it had to be) for the caller's next record.
func chainHash(rec *Record, scratch []byte) (sig.Digest, []byte, error) {
	b, err := rec.appendJSON(scratch[:0], sig.Digest{})
	if err != nil {
		return sig.Digest{}, scratch, err
	}
	return sig.Sum(b), b, nil
}

// appendJSON appends the canonical JSON of r with hash in place of
// r.Hash — canon.Marshal's bytes for that record — field by field. It
// fails where canon.Marshal fails: on a time canon.AppendJSONTime
// refuses.
func (r *Record) appendJSON(b []byte, hash sig.Digest) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, r.Seq, 10)
	b = append(b, `,"prev":`...)
	b = canon.AppendJSONHex(b, r.Prev[:])
	b = append(b, `,"at":`...)
	b, err := canon.AppendJSONTime(b, r.At)
	if err != nil {
		return b, fmt.Errorf("store: record %d time: %w", r.Seq, err)
	}
	b = append(b, `,"direction":`...)
	b = canon.AppendJSONString(b, string(r.Direction))
	if r.Note != "" {
		b = append(b, `,"note":`...)
		b = canon.AppendJSONString(b, r.Note)
	}
	b = append(b, `,"token":`...)
	if r.Token == nil {
		b = append(b, "null"...)
	} else if b, err = r.Token.AppendCanonical(b); err != nil {
		return b, fmt.Errorf("store: record %d: %w", r.Seq, err)
	}
	b = append(b, `,"hash":`...)
	b = canon.AppendJSONHex(b, hash[:])
	return append(b, '}'), nil
}

// checkEntry refuses what no record may hold: a nil token, and a
// direction or token text field that is not valid UTF-8 — every decoder
// refuses those, so a record holding one would be written and then make
// its vault unreadable.
func checkEntry(dir Direction, tok *evidence.Token) error {
	if tok == nil {
		return errors.New("store: nil token")
	}
	if !utf8.ValidString(string(dir)) {
		return errors.New("store: record direction is not valid UTF-8")
	}
	return tok.CheckText()
}

// Log is an append-only, tamper-evident store of non-repudiation evidence:
// the segmented vault (internal/vault) and thin wrappers around it. Every
// read returns an error, so a record that cannot be read back is never
// mistaken for absent evidence.
type Log interface {
	// Append records a token with a free-form note, returning the stored
	// record once it is durable.
	Append(dir Direction, tok *evidence.Token, note string) (*Record, error)
	// AppendGroup appends several entries as one unit: contiguous
	// sequence numbers in slice order and a single commit, so the group
	// costs its caller one durability wait instead of one per record.
	// The group is all-or-nothing at commit time — an entry that cannot
	// be chained or encoded fails every entry — while a crash mid-write
	// recovers to a prefix of the group, a state one-by-one Appends
	// produce too.
	AppendGroup(entries []Entry) ([]*Record, error)
	// AppendAsync enqueues a record to ride the next commit without
	// waiting for it; Sync is the barrier.
	AppendAsync(dir Direction, tok *evidence.Token, note string) error
	// Sync waits until every record enqueued before the call is durable.
	Sync() error
	// QueryAll returns every record matching q, in log order, or the
	// error that stopped the read.
	QueryAll(q Query) ([]*Record, error)
	// Len reports the number of records.
	Len() int
	// VerifyChain re-derives the hash chain, returning ErrChainBroken on
	// any mismatch.
	VerifyChain() error
	// Close releases resources.
	Close() error
}

// Entry is one record-to-be: the arguments of one Append. A slice of them
// is what AppendGroup commits together.
type Entry struct {
	Dir   Direction
	Token *evidence.Token
	Note  string
}

// Query selects evidence records for adjudication. Zero-valued fields are
// wildcards; a zero Query selects the whole log. The vault answers Run,
// Txn, Party and Kind from its persistent indexes, so a selective query
// reads only matching records, and prunes whole segments by From/To.
type Query struct {
	// Run selects records of one protocol run.
	Run id.Run
	// Txn selects records linked under one transaction identifier.
	Txn id.Txn
	// Party selects records whose token was issued by the given party.
	Party id.Party
	// Kind selects one token kind.
	Kind evidence.Kind
	// From/To bound the record time, inclusive; zero means unbounded.
	From, To time.Time
	// AfterSeq is a resume cursor: only records with Seq > AfterSeq are
	// returned. Whole sealed segments at or below the cursor are pruned
	// by their sealed sequence bounds, so paging a long log (the remote
	// audit protocol re-queries with a moving cursor) costs the remainder,
	// not the full log, per page.
	AfterSeq uint64
	// Limit caps the number of records returned; 0 means unlimited.
	Limit int
}

// Matches applies the full filter (all but Limit) to one record.
func (q Query) Matches(r *Record) bool {
	if r.Seq <= q.AfterSeq {
		return false
	}
	if q.Run != "" && r.Token.Run != q.Run {
		return false
	}
	if q.Txn != "" && r.Token.Txn != q.Txn {
		return false
	}
	if q.Party != "" && r.Token.Issuer != q.Party {
		return false
	}
	if q.Kind != "" && r.Token.Kind != q.Kind {
		return false
	}
	if !q.From.IsZero() && r.At.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && r.At.After(q.To) {
		return false
	}
	return true
}

// NextRecord builds the record that follows the chain position given by
// the last record's sequence number and hash: the chaining primitive of
// every evidence log.
//
// The note is normalised to valid UTF-8 before hashing: JSON has no
// representation for invalid UTF-8, and encoding/json's coercion is not
// round-trip stable (invalid bytes marshal as � escapes but re-marshal
// after decoding as raw replacement characters), so an un-normalised
// binary note would hash one way at append time and another after reload —
// a tamper-evident log reporting tampering that never happened. A
// direction or token text field that is not valid UTF-8 is refused
// instead (checkEntry): it is an identifier, not prose to normalise.
func NextRecord(lastSeq uint64, prev sig.Digest, at time.Time, dir Direction, tok *evidence.Token, note string) (*Record, error) {
	if err := checkEntry(dir, tok); err != nil {
		return nil, err
	}
	note = strings.ToValidUTF8(note, "�")
	rec := &Record{
		Seq:       lastSeq + 1,
		Prev:      prev,
		At:        at,
		Direction: dir,
		Note:      note,
		Token:     tok,
	}
	var buf [1024]byte
	h, _, err := chainHash(rec, buf[:0])
	if err != nil {
		return nil, err
	}
	rec.Hash = h
	return rec, nil
}

// VerifyRecords re-derives the hash chain of records presented outside a
// live log — the check an adjudicator applies to evidence submitted in a
// dispute.
func VerifyRecords(records []*Record) error {
	cv := &ChainVerifier{}
	for _, rec := range records {
		if err := cv.Check(rec); err != nil {
			return err
		}
	}
	return nil
}

// ChainVerifier incrementally re-derives a hash chain, one record at a
// time, so logs too large to load at once can be verified as a stream.
// The zero value starts at the head of a chain; ResumeChain positions a
// verifier after an already-trusted prefix. Like the Chainer it mirrors,
// a verifier keeps one scratch buffer for the records' canonical JSON
// across the stream. Not safe for concurrent use.
type ChainVerifier struct {
	prev    sig.Digest
	seq     uint64
	scratch []byte
}

// ResumeChain returns a verifier expecting the record that follows the
// chain position (lastSeq, lastHash).
func ResumeChain(lastSeq uint64, lastHash sig.Digest) *ChainVerifier {
	return &ChainVerifier{prev: lastHash, seq: lastSeq}
}

// Check verifies that rec is the next record in the chain and advances the
// verifier past it.
func (v *ChainVerifier) Check(rec *Record) error {
	if rec.Prev != v.prev {
		return fmt.Errorf("%w: record %d prev link", ErrChainBroken, v.seq+1)
	}
	h, scratch, err := chainHash(rec, v.scratch)
	v.scratch = scratch
	if err != nil {
		return err
	}
	if h != rec.Hash {
		return fmt.Errorf("%w: record %d hash", ErrChainBroken, v.seq+1)
	}
	if rec.Seq != v.seq+1 {
		return fmt.Errorf("%w: record %d sequence %d", ErrChainBroken, v.seq+1, rec.Seq)
	}
	v.prev, v.seq = rec.Hash, rec.Seq
	return nil
}

// Advance checks rec's linkage (sequence and prev-hash) against the
// verifier's position and moves past it, taking rec.Hash as given. It is
// for records whose Hash is already known to be the digest of their
// content: straight from a decoder of this package, which derives it
// (DecodeSegmentData, DecodeFrameRun, SlotReader.Decode), or out of a
// batch another verifier fully checked. Records from anywhere else go
// through Check.
func (v *ChainVerifier) Advance(rec *Record) error {
	if rec.Seq != v.seq+1 {
		return fmt.Errorf("%w: record %d sequence %d", ErrChainBroken, v.seq+1, rec.Seq)
	}
	if rec.Prev != v.prev {
		return fmt.Errorf("%w: record %d prev link", ErrChainBroken, v.seq+1)
	}
	v.prev, v.seq = rec.Hash, rec.Seq
	return nil
}

// Position reports the sequence number and hash of the last verified
// record.
func (v *ChainVerifier) Position() (uint64, sig.Digest) { return v.seq, v.prev }
