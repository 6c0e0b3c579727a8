// Package ttp provides trusted-third-party services beyond protocol
// relaying: an Electronic-Postmark service modelled on the UPU Global EPM
// the paper surveys in section 5 — "a TTP service for generation,
// verification, time-stamping and storage of non-repudiation evidence"
// that "support[s] linking of evidence under a unique transaction
// identifier to allow business transaction events to be bound together".
//
// The paper's point stands here too: the EPM is back-end infrastructure —
// it stores and postmarks evidence submitted to it but does not itself
// execute evidence exchange; that remains the job of the interceptor
// middleware (packages invoke and sharing).
package ttp

import (
	"context"
	"fmt"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
)

// ProtocolEPM is the postmark service's protocol name.
const ProtocolEPM = "epm"

// EPM message kinds.
const (
	kindSubmit   = "submit"
	kindVerify   = "verify"
	kindFetch    = "fetch"
	kindPostmark = "postmark"
	kindVerdict  = "verdict"
	kindBundle   = "bundle"
)

// EPM is the postmark service handler, registered on a TTP's coordinator.
type EPM struct {
	protocol.RequestMux
	co *protocol.Coordinator
}

var _ protocol.Handler = (*EPM)(nil)

// NewEPM creates the postmark service and registers it with the TTP's
// coordinator. The coordinator's issuer should carry a TSA so postmarks
// are time-stamped.
func NewEPM(co *protocol.Coordinator) *EPM {
	e := &EPM{co: co}
	e.RequestMux = protocol.NewRequestMux(ProtocolEPM, "epm", map[string]protocol.RequestFunc{
		kindSubmit: e.handleSubmit,
		kindVerify: e.handleVerify,
		kindFetch:  e.handleFetch,
	})
	co.Register(e)
	return e
}

// submitBody carries a token for postmarking.
type submitBody struct {
	Token *evidence.Token `json:"token"`
}

// postmarkBody returns the TTP's postmark over a submitted token.
type postmarkBody struct {
	Postmark *evidence.Token `json:"postmark"`
}

// verdictBody reports a verification result.
type verdictBody struct {
	Valid  bool   `json:"valid"`
	Reason string `json:"reason,omitempty"`
}

// bundleBody returns the evidence linked under a transaction.
type bundleBody struct {
	Txn    id.Txn            `json:"txn"`
	Tokens []*evidence.Token `json:"tokens"`
}

// handleSubmit verifies, stores and postmarks a token (EPM generation,
// time-stamping and storage).
func (e *EPM) handleSubmit(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
	svc := e.co.Services()
	var body submitBody
	if err := msg.Body(&body); err != nil {
		return nil, err
	}
	if body.Token == nil {
		return nil, fmt.Errorf("ttp: epm: submit without token")
	}
	if err := svc.Verifier.Verify(body.Token); err != nil {
		return nil, fmt.Errorf("ttp: epm: submitted evidence invalid: %w", err)
	}
	if err := svc.LogReceived(body.Token, "epm submission from "+string(msg.Sender)); err != nil {
		return nil, err
	}
	tbs, err := body.Token.TBSDigest()
	if err != nil {
		return nil, err
	}
	postmark, err := svc.Issuer.Issue(evidence.KindPostmark, body.Token.Run, body.Token.Step, tbs,
		evidence.WithTxn(body.Token.Txn), evidence.WithRecipients(msg.Sender))
	if err != nil {
		return nil, err
	}
	if err := svc.LogGenerated(postmark, "epm postmark"); err != nil {
		return nil, err
	}
	reply := &protocol.Message{
		Protocol: ProtocolEPM,
		Run:      msg.Run,
		Txn:      body.Token.Txn,
		Kind:     kindPostmark,
		Tokens:   []*evidence.Token{postmark},
	}
	if err := reply.SetBody(postmarkBody{Postmark: postmark}); err != nil {
		return nil, err
	}
	return reply, nil
}

// handleVerify checks a token on behalf of the requester (EPM
// verification).
func (e *EPM) handleVerify(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
	svc := e.co.Services()
	var body submitBody
	if err := msg.Body(&body); err != nil {
		return nil, err
	}
	verdict := verdictBody{Valid: true}
	if body.Token == nil {
		verdict = verdictBody{Valid: false, Reason: "no token"}
	} else if err := svc.Verifier.Verify(body.Token); err != nil {
		verdict = verdictBody{Valid: false, Reason: err.Error()}
	}
	reply := &protocol.Message{Protocol: ProtocolEPM, Run: msg.Run, Kind: kindVerdict}
	if err := reply.SetBody(verdict); err != nil {
		return nil, err
	}
	return reply, nil
}

// handleFetch returns the evidence linked under a transaction identifier
// (EPM linking). A log read failure fails the fetch: a partial bundle
// would read as complete.
func (e *EPM) handleFetch(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
	recs, err := e.co.Services().Log.QueryAll(store.Query{Txn: msg.Txn})
	if err != nil {
		return nil, fmt.Errorf("epm: fetch %s: %w", msg.Txn, err)
	}
	var tokens []*evidence.Token
	for _, rec := range recs {
		tokens = append(tokens, rec.Token)
	}
	reply := &protocol.Message{Protocol: ProtocolEPM, Run: msg.Run, Txn: msg.Txn, Kind: kindBundle}
	if err := reply.SetBody(bundleBody{Txn: msg.Txn, Tokens: tokens}); err != nil {
		return nil, err
	}
	return reply, nil
}

// Client calls an EPM service from another party's coordinator.
type Client struct {
	co  *protocol.Coordinator
	epm id.Party
}

// NewClient creates a client of the postmark service at epm.
func NewClient(co *protocol.Coordinator, epm id.Party) *Client {
	return &Client{co: co, epm: epm}
}

// Submit postmarks a token, returning the verified postmark.
func (c *Client) Submit(ctx context.Context, tok *evidence.Token) (*evidence.Token, error) {
	svc := c.co.Services()
	msg := &protocol.Message{Protocol: ProtocolEPM, Run: tok.Run, Kind: kindSubmit}
	if err := msg.SetBody(submitBody{Token: tok}); err != nil {
		return nil, err
	}
	reply, err := c.co.DeliverRequest(ctx, c.epm, msg)
	if err != nil {
		return nil, err
	}
	var body postmarkBody
	if err := reply.Body(&body); err != nil {
		return nil, err
	}
	tbs, err := tok.TBSDigest()
	if err != nil {
		return nil, err
	}
	if err := svc.Verifier.Expect(body.Postmark, evidence.KindPostmark, tok.Run, c.epm, tbs); err != nil {
		return nil, fmt.Errorf("ttp: postmark: %w", err)
	}
	if err := svc.LogReceived(body.Postmark, "epm postmark"); err != nil {
		return nil, err
	}
	return body.Postmark, nil
}

// Verify asks the EPM to verify a token.
func (c *Client) Verify(ctx context.Context, tok *evidence.Token) (bool, string, error) {
	msg := &protocol.Message{Protocol: ProtocolEPM, Run: tok.Run, Kind: kindVerify}
	if err := msg.SetBody(submitBody{Token: tok}); err != nil {
		return false, "", err
	}
	reply, err := c.co.DeliverRequest(ctx, c.epm, msg)
	if err != nil {
		return false, "", err
	}
	var verdict verdictBody
	if err := reply.Body(&verdict); err != nil {
		return false, "", err
	}
	return verdict.Valid, verdict.Reason, nil
}

// Fetch returns the evidence the EPM holds under a transaction. The
// caller must verify the returned tokens before relying on them.
func (c *Client) Fetch(ctx context.Context, txn id.Txn) ([]*evidence.Token, error) {
	msg := &protocol.Message{Protocol: ProtocolEPM, Run: id.NewRun(), Txn: txn, Kind: kindFetch}
	if err := msg.SetBody(struct{}{}); err != nil {
		return nil, err
	}
	reply, err := c.co.DeliverRequest(ctx, c.epm, msg)
	if err != nil {
		return nil, err
	}
	var body bundleBody
	if err := reply.Body(&body); err != nil {
		return nil, err
	}
	return body.Tokens, nil
}
