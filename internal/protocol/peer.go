// The peer-service skeleton. The evidence plane's services — remote
// audit and segment shipping, geo tail pushes, live subscriptions and
// their feed pushes — are request/response protocols between peer
// organisations, and they share one shape: a table of request kinds on
// the receiving side (RequestMux), one way to send a request on the
// client side (Coordinator.exchange), and one authentication rule for
// the requests that change a peer's state: a token of the request's kind,
// issued by the party the request speaks for, over the canonical claim
// the request makes (verifyClaim). Bulk bytes — record frames, segment
// data — ride Message.Attachment, never the JSON body.
package protocol

import (
	"context"
	"fmt"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// RequestFunc answers one request kind of a protocol.
type RequestFunc func(ctx context.Context, msg *Message) (*Message, error)

// RequestMux is a Handler for a protocol spoken as request/response: it
// dispatches each request to the function its kind names and refuses
// kinds it has no function for. Services embed it and fill the table in
// their constructor.
type RequestMux struct {
	protocol string
	label    string
	kinds    map[string]RequestFunc
}

// NewRequestMux builds the dispatch of protocol. label names the protocol
// in refusals ("audit", "geo", ...).
func NewRequestMux(protocol, label string, kinds map[string]RequestFunc) RequestMux {
	return RequestMux{protocol: protocol, label: label, kinds: kinds}
}

// Protocol implements Handler.
func (m *RequestMux) Protocol() string { return m.protocol }

// ProcessRequest implements Handler.
func (m *RequestMux) ProcessRequest(ctx context.Context, msg *Message) (*Message, error) {
	f, ok := m.kinds[msg.Kind]
	if !ok {
		return nil, fmt.Errorf("protocol: unknown %s message kind %q", m.label, msg.Kind)
	}
	return f(ctx, msg)
}

// peerRequest is one request of a peer service as its client sends it.
type peerRequest struct {
	protocol, kind string
	// run names the exchange; empty starts a fresh run.
	run  id.Run
	body any
	// attachment is the request's bulk bytes.
	attachment []byte
	// claim, when set, is what the request asserts on the sender's
	// behalf; a coordinator with an issuer signs it as a claimKind token
	// over claimDigest(claim), which the receiver's verifyClaim checks.
	claimKind evidence.Kind
	claim     any
}

// exchange sends req to the coordinator at addr as step 1 of its run and
// decodes the reply's body into out (nil: the reply is not read).
func (c *Coordinator) exchange(ctx context.Context, addr string, req peerRequest, out any) error {
	msg, err := c.request(req)
	if err != nil {
		return err
	}
	reply, err := c.DeliverRequestAddr(ctx, addr, msg)
	if err != nil || out == nil {
		return err
	}
	return reply.Body(out)
}

// request builds req as step 1 of its run, signing its claim.
func (c *Coordinator) request(req peerRequest) (*Message, error) {
	msg := &Message{Protocol: req.protocol, Run: req.run, Step: 1, Kind: req.kind, Attachment: req.attachment}
	if msg.Run == "" {
		msg.Run = id.NewRun()
	}
	if err := msg.SetBody(req.body); err != nil {
		return nil, err
	}
	if iss := c.svc.Issuer; iss != nil && req.claim != nil {
		d, err := claimDigest(req.claim)
		if err != nil {
			return nil, err
		}
		tok, err := iss.Issue(req.claimKind, msg.Run, 1, d)
		if err != nil {
			return nil, err
		}
		msg.Tokens = []*evidence.Token{tok}
	}
	return msg, nil
}

// exchangeWith is exchange with a peer resolved through the directory.
func (c *Coordinator) exchangeWith(ctx context.Context, peer id.Party, req peerRequest, out any) error {
	addr, err := c.svc.Directory.Resolve(peer)
	if err != nil {
		return err
	}
	return c.exchange(ctx, addr, req, out)
}

// claimDigest is what a claim token signs: the SHA-256 of the claim's
// canonical JSON.
func claimDigest(claim any) (sig.Digest, error) {
	raw, err := canon.Marshal(claim)
	if err != nil {
		return sig.Digest{}, err
	}
	return sig.Sum(raw), nil
}

// verifyClaim authenticates a request that changes this organisation's
// state on issuer's behalf: msg must carry a kind token issued by issuer
// for msg's run, over claimDigest(claim). Without a verifier nothing can
// be authenticated, so everything is refused. The token is returned for
// the caller to journal.
func (c *Coordinator) verifyClaim(msg *Message, kind evidence.Kind, issuer id.Party, claim any) (*evidence.Token, error) {
	return verifyClaim(c.svc.Verifier, string(c.svc.Party), msg, kind, issuer, claim)
}

// verifyClaim is Coordinator.verifyClaim against ver, for a receiver
// named who in refusals.
func verifyClaim(ver *evidence.Verifier, who string, msg *Message, kind evidence.Kind, issuer id.Party, claim any) (*evidence.Token, error) {
	tok := msg.Token(kind)
	if ver == nil || tok == nil {
		return nil, fmt.Errorf("protocol: %s accepts only authenticated %s", who, msg.Kind)
	}
	d, err := claimDigest(claim)
	if err != nil {
		return nil, err
	}
	if err := ver.Expect(tok, kind, msg.Run, issuer, d); err != nil {
		return nil, fmt.Errorf("protocol: %s token: %w", msg.Kind, err)
	}
	return tok, nil
}
