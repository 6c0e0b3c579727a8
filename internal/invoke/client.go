package invoke

import (
	"context"
	"fmt"
	"io"
	"log"
	"slices"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// Client is the client-side B2BInvocationHandler (section 4.2): it obtains
// the local coordinator, drives the chosen non-repudiation protocol, and
// returns the outcome of protocol execution to the caller. Verification of
// every server token happens before the response is released.
type Client struct {
	co              *protocol.Coordinator
	d               *descriptor
	via             []id.Party
	ttp             id.Party
	consumption     evidence.Consumption
	withholdReceipt bool
	// abortJournal persists aborts whose send to the TTP failed so they
	// are retried durably (see WithAbortJournal); nil abandons them.
	abortJournal AbortJournal
	// crashHook is the resumable exchange's fault-injection point
	// (SetCrashHook); nil in honest deployments.
	crashHook func(point string) error
	// receiptLog spaces the log lines about receipts not delivered.
	receiptLog spacedLog
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithProtocol selects the invocation protocol (default ProtocolDirect).
func WithProtocol(name string) ClientOption {
	return func(c *Client) { c.d, _ = protocolFor(name) }
}

// Via routes the exchange through inline TTP relays (Figure 3a with one
// relay, Figure 3b with one per organisation). Implies ProtocolInline.
func Via(relays ...id.Party) ClientOption {
	return func(c *Client) {
		c.via = relays
		c.d = inline
	}
}

// WithOfflineTTP names the TTP used for abort/resolve recovery. Implies
// ProtocolFair.
func WithOfflineTTP(ttp id.Party) ClientOption {
	return func(c *Client) {
		c.ttp = ttp
		c.d = fair
	}
}

// WithConsumption overrides the consumption report in the client's
// response receipt; NotConsumed models an interceptor that received a
// response the application never took up (section 3.2).
func WithConsumption(con evidence.Consumption) ClientOption {
	return func(c *Client) { c.consumption = con }
}

// WithholdReceipt makes the client misbehave by never sending its response
// receipt. It exists to exercise and measure the recovery paths (TTP
// resolve) in tests and benchmarks; honest deployments never set it.
func WithholdReceipt() ClientOption {
	return func(c *Client) { c.withholdReceipt = true }
}

// NewClient creates a client bound to its party's coordinator.
func NewClient(co *protocol.Coordinator, opts ...ClientOption) *Client {
	c := &Client{co: co, d: direct, consumption: evidence.Consumed}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Verifier is what the client checks evidence with: its coordinator's
// verifier.
func (c *Client) Verifier() *evidence.Verifier { return c.co.Services().Verifier }

// Invoke performs a non-repudiable invocation of req on server under a
// fresh run. The returned Result carries the response (or
// interceptor-generated failure evidence) and all run evidence; a non-nil
// error means the protocol itself failed (transport gave up, or
// counterparty evidence did not verify).
func (c *Client) Invoke(ctx context.Context, server id.Party, req Request) (*Result, error) {
	svc := c.co.Services()
	run := id.NewRun()
	if svc.Obs != nil {
		// The protocol run id doubles as the trace id, so spans recorded
		// by every party of the exchange assemble into one tree keyed by
		// the run the evidence names.
		var span *obs.Span
		ctx, span = svc.Obs.StartRootSpan(ctx, "client.invoke", string(run))
		span.SetAttr("server", string(server))
		span.SetAttr("operation", req.Operation)
		defer span.End()
	}
	if len(req.Streams) > 0 {
		// Streamed parameters travel to the executing server ahead of the
		// request; inline relays do not forward chunk messages.
		if len(c.via) > 0 {
			return nil, fmt.Errorf("invoke: streamed parameters are not supported through inline relays")
		}
		params, err := c.sendStreams(ctx, server, run, req)
		if err != nil {
			return nil, err
		}
		req.Params = params
	}
	return c.exchange(ctx, server, req, run, RunState{}, false)
}

// exchange drives steps 1–3 of run for Invoke and Resume. Whatever of the
// run st holds from an earlier attempt is reused, so every token is issued,
// and every record committed, at most once per run. journalResponse makes
// the NROResp record's note the canonical response snapshot, from which a
// later Resume recovers the payload (RunState.Response).
func (c *Client) exchange(ctx context.Context, server id.Party, req Request, run id.Run, st RunState, journalResponse bool) (*Result, error) {
	svc := c.co.Services()
	snap := c.snapshot(server, req, run)
	reqDigest, err := snap.Digest()
	if err != nil {
		return nil, err
	}

	// Step 1: reuse the journaled NRO, or issue the run's only one. R1: it
	// is durable before the request leaves.
	nro := st.NRO
	if nro == nil {
		if nro, err = c.originate(ctx, &snap, reqDigest); err != nil {
			return nil, err
		}
	} else if nro.Digest != reqDigest {
		return nil, fmt.Errorf("%w: journaled NRO covers a different request", ErrEvidenceInvalid)
	}
	if err := c.crash("post-nro-append"); err != nil {
		return nil, err
	}

	// Step 2: the reply, recovered when the journal holds all of it, else
	// obtained by (re-)sending the request — the server is at-most-once by
	// run, so a retransmission earns the original reply, never a second
	// execution. group collects what step 3 commits: the part of {NRR,
	// NROResp, NRRResp} the journal lacks.
	dest := server
	if len(c.via) > 0 {
		dest = c.via[0]
	}
	a := &evidence.Anchors{Run: run, NRO: nro, NRR: st.NRR, NROResp: st.NROResp, Server: server}
	resp := st.Response
	var group []store.Entry
	if a.NRR != nil && a.NROResp != nil && resp != nil {
		// Re-check the recovered snapshot against the signed origin before
		// trusting its payload.
		if err := checkReply(svc.Verifier, a, c.d, resp); err != nil {
			return nil, err
		}
	} else {
		reply, err := c.co.DeliverRequest(ctx, dest, NewRequestMessage(c.d.name, run, snap, nro))
		if err != nil {
			// The submission failed: per section 3.2 the client knows the
			// server did not (provably) receive the request. Under TTP
			// recovery the client additionally aborts the run at the TTP so
			// the server cannot later resolve it.
			if c.d.recovery && c.ttp != "" {
				if abortErr := c.abortRun(ctx, snap, nro); abortErr != nil {
					return nil, fmt.Errorf("invoke: submission failed (%v) and abort failed: %w", err, abortErr)
				}
				return nil, fmt.Errorf("%w: submission failed: %v", ErrAborted, err)
			}
			return nil, fmt.Errorf("invoke: submit request: %w", err)
		}
		var rb responseBody
		if err := reply.Body(&rb); err != nil {
			return nil, err
		}
		resp = &rb.Snapshot
		// A volunteered NRR is checked if present. A response origin the
		// protocol does not ask for is never checked, so it is dropped, not
		// kept as evidence received.
		got := *a
		got.NRR, got.NROResp = reply.Token(evidence.KindNRR), nil
		if !c.d.receiptless {
			got.NROResp = reply.Token(evidence.KindNROResp)
		}
		if err := checkReply(svc.Verifier, &got, c.d, resp); err != nil {
			return nil, err
		}
		if err := c.crash("post-reply-verify"); err != nil {
			return nil, err
		}
		if a.NRR == nil && got.NRR != nil {
			a.NRR = got.NRR
			note := "request receipt"
			if c.d.volunteered {
				note = "voluntary receipt"
			}
			group = append(group, store.Entry{Dir: store.Received, Token: a.NRR, Note: note})
		}
		if a.NROResp == nil && got.NROResp != nil {
			a.NROResp = got.NROResp
			note := "response origin"
			if journalResponse {
				b, err := canon.Marshal(resp)
				if err != nil {
					return nil, err
				}
				note = string(b)
			}
			group = append(group, store.Entry{Dir: store.Received, Token: a.NROResp, Note: note})
		}
		if err := c.crash("mid-reply-append"); err != nil {
			return nil, err
		}
	}
	result := &Result{Run: run, Status: resp.Status, Result: resp.Result, Err: resp.Error, Evidence: []*evidence.Token{nro}}
	for _, tok := range []*evidence.Token{a.NRR, a.NROResp} {
		if tok != nil {
			result.Evidence = append(result.Evidence, tok)
		}
	}
	err = c.attachStreams(ctx, result, resp, server)
	if cerr := c.crash("pre-receipt"); cerr != nil {
		return nil, cerr
	}

	// Step 3: the receipt, issued at most once per run. It commits in one
	// group with the reply evidence the journal lacks: NRR and NROResp are
	// due before the receipt leaves or the result is returned (R2), the
	// receipt before it is sent (R1) — the same next action. A verified
	// response that cannot be taken up, or a receipt withheld, commits the
	// reply evidence alone, and so does a protocol without step 3.
	// withholdReceipt is misbehaviour injection: under TTP recovery the
	// server resolves the run; without it the server is left with an
	// incomplete exchange (the trade-off section 3.1 discusses).
	var receipt *protocol.Message
	switch {
	case st.NRRResp != nil:
		result.Evidence = append(result.Evidence, st.NRRResp)
	case err == nil && !c.withholdReceipt && !c.d.receiptless:
		if receipt, err = c.newReceipt(a, req.Txn); err == nil {
			group = append(group, store.Entry{Dir: store.Generated, Token: receipt.Tokens[0], Note: "response receipt (" + c.consumption.String() + ")"})
			result.Evidence = append(result.Evidence, receipt.Tokens[0])
		}
	}
	if lerr := logGroup(ctx, svc, group...); lerr != nil {
		return nil, lerr
	}
	if err != nil {
		return nil, err
	}
	if receipt != nil {
		// The response is verified and its evidence durable; a receipt the
		// server did not take is its recovery problem (fair protocol: TTP
		// resolve), and the result is returned all the same. A journaled
		// receipt is not sent again: whether its first send arrived is
		// unknowable here.
		if err := c.co.Deliver(ctx, dest, receipt); err != nil {
			c.receiptFailed(run, dest, err)
		}
	}
	if c.consumption == evidence.NotConsumed {
		// The interceptor received and evidenced the response but must not
		// release it to the application, whatever became of the receipt.
		result.Result, result.streams = nil, nil
	}
	return result, nil
}

// snapshot is the request snapshot of req on server under run: what the
// run's NRO covers.
func (c *Client) snapshot(server id.Party, req Request, run id.Run) evidence.RequestSnapshot {
	return evidence.RequestSnapshot{
		Run:       run,
		Txn:       req.Txn,
		Client:    c.co.Services().Party,
		Server:    server,
		Service:   req.Service,
		Operation: req.Operation,
		Params:    req.Params,
		Protocol:  c.d.name,
	}
}

// originate issues the NRO of snap's run over digest, the snapshot's, and
// commits it before the request leaves (R1), with also after it in the
// same group commit. Every NRO a client issues is issued here.
func (c *Client) originate(ctx context.Context, snap *evidence.RequestSnapshot, digest sig.Digest, also ...store.Entry) (*evidence.Token, error) {
	if err := c.crash("pre-nro-append"); err != nil {
		return nil, err
	}
	svc := c.co.Services()
	sp := svc.Obs.StartChild(ctx, "evidence.issue")
	nro, err := svc.Issuer.Issue(evidence.KindNRO, snap.Run, stepRequest, digest,
		evidence.WithService(snap.Service), evidence.WithTxn(snap.Txn), evidence.WithRecipients(snap.Server))
	sp.End()
	if err != nil {
		return nil, err
	}
	group := append([]store.Entry{{Dir: store.Generated, Token: nro, Note: "request origin"}}, also...)
	if err := logGroup(ctx, svc, group...); err != nil {
		return nil, err
	}
	return nro, nil
}

// receiptFailed counts a receipt the server did not take and — not more
// often than every logEvery on the coordinator's clock — logs it with
// its run.
func (c *Client) receiptFailed(run id.Run, dest id.Party, err error) {
	svc := c.co.Services()
	svc.Obs.Counter(obs.MInvokeReceiptsUndeliveredTotal).Inc()
	if unreported, ok := c.receiptLog.due(svc.Clock.Now()); ok {
		log.Printf("invoke: %s: receipt of run %s not delivered to %s (%d undelivered since the last report): %v",
			svc.Party, run, dest, unreported, err)
	}
}

// newReceipt issues the NRR(resp) of the run a anchors and builds the
// step 3 message carrying it; the token is the message's only one.
func (c *Client) newReceipt(a *evidence.Anchors, txn id.Txn) (*protocol.Message, error) {
	svc := c.co.Services()
	nrrResp, err := svc.Issuer.Issue(evidence.KindNRRResp, a.Run, stepReceipt, a.ReceiptDigest(c.consumption),
		evidence.WithTxn(txn), evidence.WithRecipients(a.Server))
	if err != nil {
		return nil, err
	}
	msg := &protocol.Message{
		Protocol: c.d.name,
		Run:      a.Run,
		Txn:      txn,
		Step:     stepReceipt,
		Kind:     kindReceipt,
		Tokens:   []*evidence.Token{nrrResp},
	}
	if err := msg.SetBody(receiptBody{Note: a.Receipt(c.consumption)}); err != nil {
		return nil, err
	}
	return msg, nil
}

// sendStreams delivers every streamed parameter to the server as ordered
// chunk messages, digesting the chain as it goes, and returns the request
// parameters with each stream resolved to its chunk-digest chain — the
// agreed representation the run's evidence will bind.
func (c *Client) sendStreams(ctx context.Context, server id.Party, run id.Run, req Request) ([]evidence.Param, error) {
	params := make([]evidence.Param, len(req.Params))
	copy(params, req.Params)
	for _, st := range req.Streams {
		if st.Name == "" || st.Reader == nil {
			return nil, fmt.Errorf("invoke: streamed parameter needs a name and a reader")
		}
		ref, err := c.sendStream(ctx, server, run, req.Txn, st)
		if err != nil {
			return nil, err
		}
		if i := slices.IndexFunc(params, func(p evidence.Param) bool {
			return p.Kind == evidence.ParamStream && p.Name == st.Name && p.Stream == nil
		}); i >= 0 {
			params[i].Stream = ref
		} else {
			params = append(params, evidence.Param{Kind: evidence.ParamStream, Name: st.Name, Stream: ref})
		}
	}
	return params, nil
}

// sendStream ships one parameter's payload chunk by chunk; each chunk is
// acknowledged before the next is read, so client memory stays bounded by
// one chunk regardless of payload size.
func (c *Client) sendStream(ctx context.Context, server id.Party, run id.Run, txn id.Txn, st Stream) (*evidence.StreamRef, error) {
	sid := string(run) + "/" + st.Name
	dig := evidence.NewStreamDigester(DefaultStreamChunk)
	buf := make([]byte, DefaultStreamChunk)
	seq := 0
	for {
		n, err := io.ReadFull(st.Reader, buf)
		if n > 0 {
			msg := &protocol.Message{Protocol: c.d.name, Run: run, Txn: txn, Step: stepRequest, Kind: kindChunk}
			if berr := msg.SetBody(chunkBody{Stream: sid, Seq: seq}); berr != nil {
				return nil, berr
			}
			// buf is reused for the next chunk: the coordinator copies the
			// attachment into the wire message before DeliverRequest returns.
			msg.Attachment = buf[:n]
			if _, derr := c.co.DeliverRequest(ctx, server, msg); derr != nil {
				return nil, fmt.Errorf("invoke: ship stream %q chunk %d: %w", st.Name, seq, derr)
			}
			if aerr := dig.Add(buf[:n]); aerr != nil {
				return nil, aerr
			}
			seq++
		}
		switch err {
		case nil:
			continue
		case io.EOF, io.ErrUnexpectedEOF:
			ref, rerr := dig.Ref(sid)
			if rerr != nil {
				return nil, rerr
			}
			return &ref, nil
		default:
			return nil, fmt.Errorf("invoke: read stream %q: %w", st.Name, err)
		}
	}
}

// attachStreams builds the lazily-fetched readers for every streamed
// result the (verified) response snapshot binds.
func (c *Client) attachStreams(ctx context.Context, result *Result, respSnap *evidence.ResponseSnapshot, server id.Party) error {
	for _, p := range respSnap.Result {
		if p.Kind != evidence.ParamStream {
			continue
		}
		if p.Stream == nil {
			return fmt.Errorf("%w: streamed result %q without chunk chain", ErrEvidenceInvalid, p.Name)
		}
		if err := p.Stream.Verify(); err != nil {
			return fmt.Errorf("%w: streamed result %q: %v", ErrEvidenceInvalid, p.Name, err)
		}
		if result.streams == nil {
			result.streams = make(map[string]*ResultStream)
		}
		result.streams[p.Name] = &ResultStream{
			ctx:    ctx,
			co:     c.co,
			server: server,
			proto:  c.d.name,
			run:    result.Run,
			name:   p.Name,
			ref:    *p.Stream,
		}
	}
	return nil
}

// abortRun aborts the run at the configured TTP. A failed abort send is
// never silently abandoned any more: it is counted, and when an abort
// journal is installed the abort becomes a durable job that keeps
// retrying until the TTP records the run's fate — the caller then sees
// ErrAbortPending instead of a dead end.
func (c *Client) abortRun(ctx context.Context, snap evidence.RequestSnapshot, nro *evidence.Token) error {
	err := c.Abort(ctx, c.ttp, snap, nro)
	if err == nil {
		return nil
	}
	svc := c.co.Services()
	svc.Obs.Counter(obs.MAbortFailedTotal).Inc()
	if c.abortJournal != nil {
		if jerr := c.abortJournal.JournalAbort(ctx, c.ttp, snap, nro); jerr == nil {
			svc.Obs.Counter(obs.MAbortJournaledTotal).Inc()
			return fmt.Errorf("%w: run %s (abort send: %v)", ErrAbortPending, snap.Run, err)
		}
	}
	return err
}
