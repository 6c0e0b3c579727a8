// Package feed turns a vault into a live evidence source. The paper's
// evidence store is pull-only — an adjudicator or contract monitor polls
// queries and a violation sits unnoticed until the next poll; a feed
// closes that gap by pushing each record within one group-commit
// interval of its append.
//
// A subscription is a verified cursor, the same shape as a replication
// target of georep.Engine: a chain position (sequence number + record
// hash) in a store.ChainVerifier and a one-slot wake channel.
//
//   - The commit path never blocks on a subscriber. The vault's commit
//     and seal hooks make one non-blocking send to the wake channel; a
//     subscriber that cannot keep up lags behind the head, holding one
//     page of records, and nothing is queued for it.
//
//   - Backfill and live delivery are one loop. Each wake reads the vault
//     from the cursor to the head a page at a time, chain-verifies every
//     record and hands the page to the sink. A subscription names the
//     position it resumes from, the position is checked against the
//     vault, and the subscriber sees exactly the vault's chain — no gap,
//     no duplicate, no reordering — or an error.
package feed

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/vault"
)

// ErrResumeMismatch reports a resume position that does not match the
// vault's chain: the claimed (sequence, hash) pair names a record the
// vault does not have. The subscriber is either talking to the wrong
// vault or holding a diverged copy; backfilling it would paper over a
// fork.
var ErrResumeMismatch = errors.New("feed: resume position does not match the vault chain")

// page bounds how many records one read materialises and one delivery
// carries — all the memory a subscription holds, however far behind it
// is.
const page = 512

// Event is one push unit: either a batch of committed records in chain
// order, or a seal notification (for subscriptions that asked for them).
type Event struct {
	Records []*store.Record
	Seal    *vault.ManifestEntry
}

// Sink consumes events for one subscription, on the goroutine running
// the cursor. It may block — the subscription lags meanwhile — and its
// error ends the subscription.
type Sink func(Event) error

// Config shapes one subscription.
type Config struct {
	// AfterSeq/AfterHash name the chain position already held: streaming
	// starts at AfterSeq+1. Zero values start from genesis.
	AfterSeq  uint64
	AfterHash sig.Digest
	// Seals requests notifications of the seals made after the
	// subscription opened, each after the records it covers and before
	// any later record.
	Seals bool
	// Sink receives the feed. Required.
	Sink Sink
}

// Cursor is one subscription: a verified chain position in a vault,
// woken by the vault's commit and seal hooks. Open makes one; Run
// delivers from it.
type Cursor struct {
	v      *vault.Vault
	sink   Sink
	cv     *store.ChainVerifier
	wake   chan struct{}
	sealed atomic.Bool // a seal was made since the manifest was last read
	seen   int         // manifest entries made before Open, or already read
	unhook func()
}

// Open verifies the resume position against v and opens a subscription
// there: from this call on, commits wake it, and (with Seals) seals made
// are delivered. Run must follow; it releases the vault hooks, at once
// under a cancelled context.
func Open(v *vault.Vault, cfg Config) (*Cursor, error) {
	if cfg.Sink == nil {
		return nil, errors.New("feed: subscription needs a sink")
	}
	if err := verifyResume(v, cfg.AfterSeq, cfg.AfterHash); err != nil {
		return nil, err
	}
	c := &Cursor{v: v, sink: cfg.Sink, cv: store.ResumeChain(cfg.AfterSeq, cfg.AfterHash), wake: make(chan struct{}, 1)}
	// The hooks' one non-blocking send.
	nudge := func() {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
	c.unhook = v.OnCommit(func([]*store.Record) { nudge() })
	if cfg.Seals {
		unhookCommit, unhookSeal := c.unhook, v.OnSeal(func(vault.ManifestEntry) { c.sealed.Store(true); nudge() })
		c.unhook = func() { unhookCommit(); unhookSeal() }
		c.seen = len(v.Manifest())
	}
	return c, nil
}

// Run streams the vault's chain to the sink on the caller's goroutine:
// everything from the resume position up to the head, then every commit
// as it lands — one loop, a page at a time. The hooks were registered
// before the first read, so a commit that read misses has left a wake
// behind. Run returns ctx's error when ctx ends, or the first sink, read
// or chain error.
func (c *Cursor) Run(ctx context.Context) error {
	defer c.unhook()
	var seals []vault.ManifestEntry // read from the manifest, not yet delivered
	for {
		for full := true; full; {
			if err := ctx.Err(); err != nil {
				return err
			}
			at, _ := c.cv.Position()
			recs, err := c.v.QueryAll(vault.Query{AfterSeq: at, Limit: page})
			if err != nil {
				return err
			}
			full = len(recs) == page
			// The manifest is read after the records, and the vault runs
			// a seal's hooks before it shows any later record, so a seal
			// not flagged by now covers no record before the end of recs.
			if c.sealed.Swap(false) {
				m := c.v.Manifest()
				seals = append(seals, m[c.seen:]...)
				c.seen = len(m)
			}
			if seals, err = deliver(c.sink, c.cv, recs, seals); err != nil {
				return err
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.wake:
		}
	}
}

// deliver chain-checks recs and hands them to sink, each pending seal
// after the records through its LastSeq and before the rest. It returns
// the seals still ahead of the cursor.
func deliver(sink Sink, cv *store.ChainVerifier, recs []*store.Record, seals []vault.ManifestEntry) ([]vault.ManifestEntry, error) {
	for {
		at, _ := cv.Position()
		for len(seals) > 0 && seals[0].LastSeq <= at {
			e := seals[0]
			if err := sink(Event{Seal: &e}); err != nil {
				return seals, err
			}
			seals = seals[1:]
		}
		if len(recs) == 0 {
			return seals, nil
		}
		n := len(recs)
		if len(seals) > 0 {
			n = int(min(uint64(n), seals[0].LastSeq-at))
		}
		for _, rec := range recs[:n] {
			if err := cv.Check(rec); err != nil {
				return seals, fmt.Errorf("feed: %w", err)
			}
		}
		if err := sink(Event{Records: recs[:n]}); err != nil {
			return seals, err
		}
		recs = recs[n:]
	}
}

// verifyResume checks that v's chain passes through the claimed position.
// Position zero is the genesis and always valid.
func verifyResume(v *vault.Vault, afterSeq uint64, afterHash sig.Digest) error {
	if afterSeq == 0 {
		if afterHash != (sig.Digest{}) {
			return fmt.Errorf("%w: nonzero hash at sequence 0", ErrResumeMismatch)
		}
		return nil
	}
	recs, err := v.QueryAll(vault.Query{AfterSeq: afterSeq - 1, Limit: 1})
	if err != nil {
		return err
	}
	if len(recs) == 0 || recs[0].Seq != afterSeq {
		return fmt.Errorf("%w: vault has no record %d", ErrResumeMismatch, afterSeq)
	}
	if recs[0].Hash != afterHash {
		return fmt.Errorf("%w: hash diverges at record %d", ErrResumeMismatch, afterSeq)
	}
	return nil
}
