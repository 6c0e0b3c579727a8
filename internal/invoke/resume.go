// Resumable invocation: the fixed-run entry point the durable job runtime
// drives. Invoke is the exchange of a fresh run with nothing journaled,
// which is right for interactive calls but would double-issue evidence if
// a crashed job were simply re-invoked. Resume instead takes the run
// identifier and whatever evidence the caller's vault already holds for
// it (for a durable job, at least the NRO that Originate committed with
// the job before anything was sent); the one exchange re-issues only the
// missing pieces and re-sends
// idempotently — the counterparty's replay cache (keyed by run and step)
// returns the cached tokens for a re-sent request, so a run crossed by any
// number of crashes still ends with exactly one NRO/NRR pair in the vault.
package invoke

import (
	"context"
	"errors"
	"fmt"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// ErrAbortPending is returned when a fair-protocol submission failed, the
// abort send to the TTP also failed, and the abort was journaled as a
// durable job instead of being abandoned: the run's fate is decided once
// the journaled abort reaches the TTP. Match it with errors.Is.
var ErrAbortPending = errors.New("invoke: abort journaled for durable retry")

// ErrAlreadyResolved is returned when an abort reaches the TTP after the
// run was resolved: the abort can never be granted, so retrying it is
// pointless. Match it with errors.Is.
var ErrAlreadyResolved = errors.New("invoke: run already resolved by TTP")

// AbortJournal persists an abort that could not reach the TTP so it is
// retried durably. The durable job runtime implements it; invoke only
// defines the hook (the dependency points durable → invoke).
type AbortJournal interface {
	JournalAbort(ctx context.Context, ttp id.Party, snap evidence.RequestSnapshot, nro *evidence.Token) error
}

// WithAbortJournal installs the journal consulted when a fair-protocol
// abort cannot be delivered to the TTP. Without one the failure is still
// counted (obs.MAbortFailedTotal) but the abort is abandoned — the
// pre-durable behaviour.
func WithAbortJournal(j AbortJournal) ClientOption {
	return func(c *Client) { c.abortJournal = j }
}

// RunState is the evidence a caller's vault already holds for a run being
// resumed. Nil fields are issued or obtained again; present fields are
// reused verbatim so the vault never accumulates a second token of the
// same kind for the run.
type RunState struct {
	NRO     *evidence.Token
	NRR     *evidence.Token
	NROResp *evidence.Token
	NRRResp *evidence.Token
	// Response is the response snapshot recovered from the journaled
	// NROResp record's note, when the crash happened after the reply was
	// verified and logged. Its digest must match NROResp.Digest; Resume
	// rejects a mismatched recovery.
	Response *evidence.ResponseSnapshot
}

// SetCrashHook installs a fault-injection hook called at named points of
// the exchange ("pre-nro-append", "post-nro-append", "post-reply-verify",
// "mid-reply-append", "pre-receipt"; the first fires wherever an NRO is
// issued, Originate included, and the last three all precede the one
// commit of the reply evidence and the receipt). A non-nil
// return aborts the exchange there, simulating a process crash between
// two journal writes. Like WithholdReceipt and TamperResultChunk it
// exists to exercise recovery paths in tests; honest deployments never
// set it.
func (c *Client) SetCrashHook(fn func(point string) error) { c.crashHook = fn }

// crash runs the installed crash hook, if any.
func (c *Client) crash(point string) error {
	if c.crashHook == nil {
		return nil
	}
	return c.crashHook(point)
}

// Resume performs (or completes) a non-repudiable invocation of req on
// server under a caller-fixed run identifier, reusing the evidence in st
// instead of re-issuing it. It supports the direct and fair protocols;
// streamed parameters are not resumable. The request snapshot is rebuilt
// from req, so the caller must present the same request the journaled NRO
// covered — a digest mismatch is rejected before anything is sent.
func (c *Client) Resume(ctx context.Context, server id.Party, req Request, run id.Run, st RunState) (*Result, error) {
	if err := c.resumable(req); err != nil {
		return nil, err
	}
	return c.exchange(ctx, server, req, run, st, true)
}

// Originate opens run, a resumable invocation of req on server, before
// anything is sent: it issues the run's NRO and commits it in one group
// commit with the entry journal makes of the run's request snapshot — its
// canonical JSON and that JSON's digest, which the NRO covers — after the
// NRO. Resume, given the committed NRO, sends the request without issuing
// another. The durable runtime journals a call job this way, so the job
// and its request origin cost one commit.
func (c *Client) Originate(ctx context.Context, server id.Party, req Request, run id.Run,
	journal func(run id.Run, snap []byte, digest sig.Digest) (store.Entry, error)) error {
	if err := c.resumable(req); err != nil {
		return err
	}
	snap := c.snapshot(server, req, run)
	raw, err := canon.Marshal(&snap)
	if err != nil {
		return err
	}
	digest := sig.Sum(raw)
	entry, err := journal(run, raw, digest)
	if err != nil {
		return err
	}
	_, err = c.originate(ctx, &snap, digest, entry)
	return err
}

// resumable refuses a request Resume cannot carry.
func (c *Client) resumable(req Request) error {
	if len(req.Streams) > 0 {
		return fmt.Errorf("invoke: streamed parameters are not resumable")
	}
	if !c.d.resumable {
		return fmt.Errorf("invoke: protocol %q does not support resumable runs", c.d.name)
	}
	return nil
}

// Abort asks the named offline TTP to abort the run evidenced by snap and
// nro, verifying and logging the TTP's decision tokens. It is the
// delivery half of the fair-protocol abort, exposed so the durable
// runtime can retry journaled aborts; a run the TTP already resolved
// returns an error (the abort cannot be granted any more).
func (c *Client) Abort(ctx context.Context, ttp id.Party, snap evidence.RequestSnapshot, nro *evidence.Token) error {
	// The caller may never have seen the response: a substitute is
	// checked without its receipt note.
	resolved, err := askTTP(ctx, c.co, &evidence.Anchors{Run: snap.Run, NRO: nro, TTP: ttp}, stepRequest, kindAbort,
		abortBody{Request: snap, NRO: nro})
	if err == nil && resolved {
		err = fmt.Errorf("%w: run %s", ErrAlreadyResolved, snap.Run)
	}
	return err
}
