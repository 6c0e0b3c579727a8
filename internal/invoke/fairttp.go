package invoke

import (
	"context"
	"sync"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
)

// ResolveService is the offline TTP of the fair protocol. In the style of
// optimistic fair-exchange protocols (paper reference [7]), it is "not
// directly involved in all communication between the parties but may be
// called upon to resolve or abort a protocol run to deliver fairness
// and/or liveness guarantees to honest parties" (section 3.1).
//
// Resolve and abort are mutually exclusive per run: the first decision
// sticks, and the other party learns the existing decision.
type ResolveService struct {
	protocol.RequestMux
	co *protocol.Coordinator

	mu   sync.Mutex
	runs map[id.Run]*ttpDecision
}

type ttpDecision struct {
	resolved bool
	tokens   []*evidence.Token
}

var _ protocol.Handler = (*ResolveService)(nil)

// NewResolveService creates the TTP handler and registers it with the
// TTP's coordinator.
func NewResolveService(co *protocol.Coordinator) *ResolveService {
	s := &ResolveService{co: co, runs: make(map[id.Run]*ttpDecision)}
	s.RequestMux = protocol.NewRequestMux(ProtocolResolve, "resolve", map[string]protocol.RequestFunc{
		kindResolve: s.handleResolve,
		kindAbort:   s.handleAbort,
	})
	co.Register(s)
	return s
}

// handleResolve verifies the server's evidence of steps 1 and 2 and issues
// a TTP-signed substitute receipt ("a combination of client/server signing
// in the normal case and TTP signing in case of recovery", section 3.2).
func (s *ResolveService) handleResolve(ctx context.Context, msg *protocol.Message) (*protocol.Message, error) {
	svc := s.co.Services()
	var body resolveBody
	if err := msg.Body(&body); err != nil {
		return nil, err
	}
	// The requester must prove both origins and its own receipt: an
	// incomplete or forged history earns no substitute.
	reqDigest, err := checkRequest(svc.Verifier, msg.Run, &body.Request, body.NRO)
	if err != nil {
		return nil, err
	}
	respDigest, err := checkReply(svc.Verifier, msg.Run, body.Request.Server, reqDigest, &body.Response, body.NRR, body.NROResp)
	if err != nil {
		return nil, err
	}
	if err := logGroup(ctx, svc,
		store.Entry{Dir: store.Received, Token: body.NRO, Note: "resolve evidence"},
		store.Entry{Dir: store.Received, Token: body.NRR, Note: "resolve evidence"},
		store.Entry{Dir: store.Received, Token: body.NROResp, Note: "resolve evidence"},
	); err != nil {
		return nil, err
	}

	s.mu.Lock()
	decision, ok := s.runs[msg.Run]
	s.mu.Unlock()
	if ok {
		return s.decisionReply(msg.Run, decision)
	}

	note := evidence.ReceiptNote{
		Run:            msg.Run,
		Client:         body.Request.Client,
		ResponseDigest: respDigest,
		Consumption:    evidence.Consumed,
	}
	noteDigest, err := note.Digest()
	if err != nil {
		return nil, err
	}
	sub, err := svc.Issuer.Issue(evidence.KindSubstitute, msg.Run, stepReceipt, noteDigest,
		evidence.WithRecipients(body.Request.Server, body.Request.Client))
	if err != nil {
		return nil, err
	}
	if err := svc.LogGenerated(sub, "substitute receipt"); err != nil {
		return nil, err
	}
	decision = &ttpDecision{resolved: true, tokens: []*evidence.Token{sub}}
	s.mu.Lock()
	s.runs[msg.Run] = decision
	s.mu.Unlock()
	return s.decisionReply(msg.Run, decision)
}

// handleAbort verifies the client's evidence of step 1 and issues an abort
// affidavit, unless the run was already resolved.
func (s *ResolveService) handleAbort(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
	svc := s.co.Services()
	var body abortBody
	if err := msg.Body(&body); err != nil {
		return nil, err
	}
	reqDigest, err := checkRequest(svc.Verifier, msg.Run, &body.Request, body.NRO)
	if err != nil {
		return nil, err
	}
	if err := svc.LogReceived(body.NRO, "abort evidence"); err != nil {
		return nil, err
	}

	s.mu.Lock()
	decision, ok := s.runs[msg.Run]
	s.mu.Unlock()
	if ok {
		return s.decisionReply(msg.Run, decision)
	}

	abort, err := svc.Issuer.Issue(evidence.KindAbort, msg.Run, stepRequest, reqDigest,
		evidence.WithRecipients(body.Request.Client, body.Request.Server))
	if err != nil {
		return nil, err
	}
	if err := svc.LogGenerated(abort, "abort affidavit"); err != nil {
		return nil, err
	}
	decision = &ttpDecision{resolved: false, tokens: []*evidence.Token{abort}}
	s.mu.Lock()
	s.runs[msg.Run] = decision
	s.mu.Unlock()
	return s.decisionReply(msg.Run, decision)
}

func (s *ResolveService) decisionReply(run id.Run, d *ttpDecision) (*protocol.Message, error) {
	reply := &protocol.Message{
		Protocol: ProtocolResolve,
		Run:      run,
		Step:     stepReceipt,
		Kind:     kindDecision,
		Tokens:   d.tokens,
	}
	if err := reply.SetBody(decisionBody{Resolved: d.resolved}); err != nil {
		return nil, err
	}
	return reply, nil
}

// Decision reports the TTP's recorded decision for a run.
func (s *ResolveService) Decision(run id.Run) (decided, resolved bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.runs[run]
	if !ok {
		return false, false
	}
	return true, d.resolved
}
