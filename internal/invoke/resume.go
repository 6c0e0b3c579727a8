// Resumable invocation: the fixed-run entry point the durable job runtime
// drives. Invoke generates a fresh run per call, which is right for
// interactive calls but would double-issue evidence if a crashed job were
// simply re-invoked. Resume instead takes the run identifier and whatever
// evidence the caller's vault already holds for it, re-issues only the
// missing pieces, and re-sends idempotently — the counterparty's replay
// cache (keyed by run and step) returns the cached tokens for a re-sent
// request, so a run crossed by any number of crashes still ends with
// exactly one NRO/NRR pair in the vault.
package invoke

import (
	"context"
	"errors"
	"fmt"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
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
// the resumable exchange ("pre-nro-append", "post-nro-append",
// "post-reply-verify", "mid-reply-append", "pre-receipt"). A non-nil
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
	if len(req.Streams) > 0 {
		return nil, fmt.Errorf("invoke: streamed parameters are not resumable")
	}
	if c.proto != ProtocolDirect && c.proto != ProtocolFair {
		return nil, fmt.Errorf("invoke: protocol %q does not support resumable runs", c.proto)
	}
	svc := c.co.Services()
	snap := evidence.RequestSnapshot{
		Run:       run,
		Txn:       req.Txn,
		Client:    svc.Party,
		Server:    server,
		Service:   req.Service,
		Operation: req.Operation,
		Params:    req.Params,
		Protocol:  c.proto,
	}
	reqDigest, err := snap.Digest()
	if err != nil {
		return nil, err
	}

	// Step 1: reuse the journaled NRO, or issue the run's only one.
	nro := st.NRO
	if nro != nil {
		if nro.Digest != reqDigest {
			return nil, fmt.Errorf("%w: journaled NRO covers a different request", ErrEvidenceInvalid)
		}
	} else {
		if err := c.crash("pre-nro-append"); err != nil {
			return nil, err
		}
		nro, err = svc.Issuer.Issue(evidence.KindNRO, run, stepRequest, reqDigest,
			evidence.WithService(req.Service), evidence.WithTxn(req.Txn), evidence.WithRecipients(server))
		if err != nil {
			return nil, err
		}
		if err := svc.LogGenerated(nro, "request origin"); err != nil {
			return nil, err
		}
	}
	if err := c.crash("post-nro-append"); err != nil {
		return nil, err
	}

	result := &Result{Run: run, Evidence: []*evidence.Token{nro}}
	nrr, nroResp := st.NRR, st.NROResp
	respSnap := st.Response
	if respSnap != nil && nroResp != nil {
		// The whole exchange survived in the vault; re-check the snapshot
		// against the signed origin before trusting the recovered payload.
		d, derr := respSnap.Digest()
		if derr != nil {
			return nil, derr
		}
		if d != nroResp.Digest {
			return nil, fmt.Errorf("%w: recovered response does not match journaled NROResp", ErrEvidenceInvalid)
		}
	}

	if nrr == nil || nroResp == nil || respSnap == nil {
		// The exchange did not complete before the crash (or parts of its
		// record are missing): re-send the same request. The server side is
		// at-most-once by run — a retransmission earns the cached reply
		// with the original tokens, never a second execution.
		reply, rerr := c.co.DeliverRequest(ctx, server, NewRequestMessage(c.proto, run, snap, nro))
		if rerr != nil {
			if c.proto == ProtocolFair && c.ttp != "" {
				if abortErr := c.abortRun(ctx, snap, nro); abortErr != nil {
					return nil, fmt.Errorf("invoke: resume submission failed (%v) and abort failed: %w", rerr, abortErr)
				}
				return nil, fmt.Errorf("%w: resume submission failed: %v", ErrAborted, rerr)
			}
			return nil, fmt.Errorf("invoke: resume request: %w", rerr)
		}
		got, respDigest, err := replySnapshot(reply, run, reqDigest)
		if err != nil {
			return nil, err
		}
		gotNRR, gotNROResp, err := c.replyEvidence(reply, run, server, reqDigest, respDigest)
		if err != nil {
			return nil, err
		}
		if err := c.crash("post-reply-verify"); err != nil {
			return nil, err
		}
		// Commit, as one group, only what the vault does not already hold,
		// so a run that crashed inside the group's write — a torn group
		// recovers to a prefix: the NRR without the NROResp — ends with one
		// record of each kind rather than a duplicate pair.
		var missing []store.Entry
		if nrr == nil {
			missing = append(missing, store.Entry{Dir: store.Received, Token: gotNRR, Note: "request receipt"})
			nrr = gotNRR
		}
		if nroResp == nil {
			// The note carries the canonical response snapshot: the digest
			// the signed token binds makes it recoverable after a crash,
			// so a resumed job can return the payload without re-asking
			// the server.
			noteJSON, merr := canon.Marshal(&got)
			if merr != nil {
				return nil, merr
			}
			missing = append(missing, store.Entry{Dir: store.Received, Token: gotNROResp, Note: string(noteJSON)})
			nroResp = gotNROResp
		}
		if err := c.crash("mid-reply-append"); err != nil {
			return nil, err
		}
		if err := logGroup(ctx, svc, missing...); err != nil {
			return nil, err
		}
		respSnap = &got
	}
	result.Status = respSnap.Status
	result.Result = respSnap.Result
	result.Err = respSnap.Error
	result.Evidence = append(result.Evidence, nrr, nroResp)
	if err := c.attachStreams(ctx, result, respSnap, server); err != nil {
		return nil, err
	}
	if err := c.crash("pre-receipt"); err != nil {
		return nil, err
	}

	// Step 3: the response receipt, issued at most once per run. If the
	// journal holds an NRRResp the receipt step already ran; whether its
	// send reached the server is unknowable from here, and re-sending is
	// the server's recovery problem (fair protocol: TTP resolve).
	if st.NRRResp != nil || c.withholdReceipt {
		if st.NRRResp != nil {
			result.Evidence = append(result.Evidence, st.NRRResp)
		}
		return result, nil
	}
	respDigest, err := respSnap.Digest()
	if err != nil {
		return nil, err
	}
	receipt, err := c.newReceipt(run, req.Txn, server, respDigest)
	if err != nil {
		return nil, err
	}
	// The receipt stays its own append (R1): whether the journal holds an
	// NRRResp is what decides, above, that step 3 already ran.
	if err := logGroup(ctx, svc, store.Entry{Dir: store.Generated, Token: receipt.Tokens[0], Note: c.receiptNote()}); err != nil {
		return nil, err
	}
	result.Evidence = append(result.Evidence, receipt.Tokens[0])
	// A lost receipt is tolerated, as in Invoke: the response is already
	// verified and journaled.
	_ = c.co.Deliver(ctx, server, receipt)
	return result, nil
}

// Abort asks the named offline TTP to abort the run evidenced by snap and
// nro, verifying and logging the TTP's decision tokens. It is the
// delivery half of the fair-protocol abort, exposed so the durable
// runtime can retry journaled aborts; a run the TTP already resolved
// returns an error (the abort cannot be granted any more).
func (c *Client) Abort(ctx context.Context, ttp id.Party, snap evidence.RequestSnapshot, nro *evidence.Token) error {
	svc := c.co.Services()
	msg := &protocol.Message{
		Protocol: ProtocolResolve,
		Run:      snap.Run,
		Step:     stepRequest,
		Kind:     kindAbort,
	}
	if err := msg.SetBody(abortBody{Request: snap, NRO: nro}); err != nil {
		return err
	}
	reply, err := c.co.DeliverRequest(ctx, ttp, msg)
	if err != nil {
		return err
	}
	var db decisionBody
	if err := reply.Body(&db); err != nil {
		return err
	}
	for _, tok := range reply.Tokens {
		if err := svc.Verifier.Verify(tok); err != nil {
			return fmt.Errorf("%w: %v", ErrEvidenceInvalid, err)
		}
		if err := svc.LogReceived(tok, "ttp decision"); err != nil {
			return err
		}
	}
	if db.Resolved {
		return fmt.Errorf("%w: run %s", ErrAlreadyResolved, snap.Run)
	}
	return nil
}
