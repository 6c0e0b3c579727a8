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
// sticks, and the other party learns the existing decision. The TTP's own
// log is the record of decisions, so one made before a restart holds
// after it.
type ResolveService struct {
	protocol.RequestMux
	co *protocol.Coordinator
	mu sync.Mutex // serialises decisions (decide)
}

var _ protocol.Handler = (*ResolveService)(nil)

// NewResolveService creates the TTP handler and registers it with the
// TTP's coordinator.
func NewResolveService(co *protocol.Coordinator) *ResolveService {
	s := &ResolveService{co: co}
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
	a, err := checkRequest(svc.Verifier, fair, msg.Run, &body.Request, body.NRO)
	if err != nil {
		return nil, err
	}
	a.NRR, a.NROResp = body.NRR, body.NROResp
	if err := checkReply(svc.Verifier, a, fair, &body.Response); err != nil {
		return nil, err
	}
	return s.decide(ctx, []store.Entry{
		{Dir: store.Received, Token: body.NRO, Note: "resolve evidence"},
		{Dir: store.Received, Token: body.NRR, Note: "resolve evidence"},
		{Dir: store.Received, Token: body.NROResp, Note: "resolve evidence"},
	}, evidence.TokenRequest{Kind: evidence.KindSubstitute, Run: msg.Run, Step: stepReceipt, Digest: a.ReceiptDigest(evidence.Consumed),
		Opts: []evidence.IssueOption{evidence.WithRecipients(body.Request.Server, body.Request.Client)}}, "substitute receipt")
}

// handleAbort verifies the client's evidence of step 1 and issues an abort
// affidavit, unless the run was already resolved.
func (s *ResolveService) handleAbort(ctx context.Context, msg *protocol.Message) (*protocol.Message, error) {
	svc := s.co.Services()
	var body abortBody
	if err := msg.Body(&body); err != nil {
		return nil, err
	}
	if _, err := checkRequest(svc.Verifier, fair, msg.Run, &body.Request, body.NRO); err != nil {
		return nil, err
	}
	return s.decide(ctx, []store.Entry{{Dir: store.Received, Token: body.NRO, Note: "abort evidence"}},
		evidence.TokenRequest{Kind: evidence.KindAbort, Run: msg.Run, Step: stepRequest, Digest: body.NRO.Digest,
			Opts: []evidence.IssueOption{evidence.WithRecipients(body.Request.Client, body.Request.Server)}}, "abort affidavit")
}

// decide answers with the run's logged decision or, when it has none,
// logs the requester's evidence, then issues and logs the decision req
// under note. Both happen under mu, so a resolve and an abort of one run
// cannot both find it undecided, and nothing is logged for a run already
// decided.
func (s *ResolveService) decide(ctx context.Context, received []store.Entry, req evidence.TokenRequest, note string) (*protocol.Message, error) {
	svc := s.co.Services()
	s.mu.Lock()
	defer s.mu.Unlock()
	tok, err := s.decision(req.Run)
	if tok == nil && err == nil {
		if err = logGroup(ctx, svc, received...); err == nil {
			tok, err = svc.Issuer.Issue(req.Kind, req.Run, req.Step, req.Digest, req.Opts...)
		}
		if err == nil {
			err = svc.LogGenerated(tok, note)
		}
	}
	if err != nil {
		return nil, err
	}
	return decisionReply(req.Run, tok)
}

// decision returns the substitute receipt or abort affidavit this TTP
// logged for run, nil when it logged neither.
func (s *ResolveService) decision(run id.Run) (*evidence.Token, error) {
	svc := s.co.Services()
	recs, err := svc.Log.QueryAll(store.Query{Run: run, Party: svc.Party})
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if k := rec.Token.Kind; k == evidence.KindSubstitute || k == evidence.KindAbort {
			return rec.Token, nil
		}
	}
	return nil, nil
}

func decisionReply(run id.Run, tok *evidence.Token) (*protocol.Message, error) {
	reply := &protocol.Message{
		Protocol: ProtocolResolve,
		Run:      run,
		Step:     stepReceipt,
		Kind:     kindDecision,
		Tokens:   []*evidence.Token{tok},
	}
	if err := reply.SetBody(decisionBody{Resolved: tok.Kind == evidence.KindSubstitute}); err != nil {
		return nil, err
	}
	return reply, nil
}

// Decision reports the TTP's logged decision for a run, or the error
// that kept the log from being read.
func (s *ResolveService) Decision(run id.Run) (decided, resolved bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tok, err := s.decision(run)
	if tok == nil || err != nil {
		return false, false, err
	}
	return true, tok.Kind == evidence.KindSubstitute, nil
}
