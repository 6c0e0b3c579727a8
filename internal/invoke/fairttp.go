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
	reqDigest, err := checkRequest(svc.Verifier, msg.Run, &body.Request, body.NRO)
	if err != nil {
		return nil, err
	}
	respDigest, err := checkReply(svc.Verifier, msg.Run, body.Request.Server, reqDigest, &body.Response, body.NRR, body.NROResp)
	if err != nil {
		return nil, err
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
	return s.decide(msg.Run, func() (*evidence.Token, error) {
		if err := logGroup(ctx, svc,
			store.Entry{Dir: store.Received, Token: body.NRO, Note: "resolve evidence"},
			store.Entry{Dir: store.Received, Token: body.NRR, Note: "resolve evidence"},
			store.Entry{Dir: store.Received, Token: body.NROResp, Note: "resolve evidence"},
		); err != nil {
			return nil, err
		}
		sub, err := svc.Issuer.Issue(evidence.KindSubstitute, msg.Run, stepReceipt, noteDigest,
			evidence.WithRecipients(body.Request.Server, body.Request.Client))
		if err != nil {
			return nil, err
		}
		return sub, svc.LogGenerated(sub, "substitute receipt")
	})
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
	return s.decide(msg.Run, func() (*evidence.Token, error) {
		if err := svc.LogReceived(body.NRO, "abort evidence"); err != nil {
			return nil, err
		}
		abort, err := svc.Issuer.Issue(evidence.KindAbort, msg.Run, stepRequest, reqDigest,
			evidence.WithRecipients(body.Request.Client, body.Request.Server))
		if err != nil {
			return nil, err
		}
		return abort, svc.LogGenerated(abort, "abort affidavit")
	})
}

// decide answers with run's logged decision or, when it has none, with
// the token issue logs as the decision. Both happen under mu, so a
// resolve and an abort of one run cannot both find it undecided, and
// nothing is logged for a run already decided.
func (s *ResolveService) decide(run id.Run, issue func() (*evidence.Token, error)) (*protocol.Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tok, err := s.decision(run)
	if tok == nil && err == nil {
		tok, err = issue()
	}
	if err != nil {
		return nil, err
	}
	return decisionReply(run, tok)
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
