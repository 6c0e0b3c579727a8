package sharing

import (
	"context"
	"fmt"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
)

// handlePropose validates a remote proposal (Figure 8: the controller
// "validat[es] A's proposed update by appealing to one or more state
// validators") and returns this member's signed decision.
func (c *Controller) handlePropose(ctx context.Context, msg *protocol.Message) (*protocol.Message, error) {
	// Retransmissions get the original decision.
	if cached, ok := c.replies.Get(msg.Run, stepPropose); ok {
		return cached, nil
	}
	svc := c.co.Services()
	var pb proposeBody
	if err := msg.Body(&pb); err != nil {
		return nil, err
	}
	prop := pb.Proposal
	if prop.Run != msg.Run {
		return nil, fmt.Errorf("%w: proposal run mismatch", ErrEvidenceInvalid)
	}
	propDigest, err := prop.Digest()
	if err != nil {
		return nil, err
	}
	// Evidence first: an unattributable proposal is not relayed to the
	// application (assumption 4).
	propTok := msg.Token(evidence.KindProposal)
	if err := svc.Verifier.Expect(propTok, evidence.KindProposal, msg.Run, prop.Proposer, propDigest); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEvidenceInvalid, err)
	}
	if err := svc.LogReceived(propTok, fmt.Sprintf("proposal from %s (%s %s)", prop.Proposer, prop.Kind, prop.Object)); err != nil {
		return nil, err
	}

	verdict := c.judge(ctx, &prop, propDigest)

	note := DecisionNote{
		Run:            msg.Run,
		Object:         prop.Object,
		Decider:        svc.Party,
		ProposalDigest: propDigest,
		Accept:         verdict.Accept,
		Reason:         verdict.Reason,
	}
	noteDigest, err := note.Digest()
	if err != nil {
		return nil, err
	}
	decTok, err := svc.Issuer.Issue(evidence.KindDecision, msg.Run, stepPropose, noteDigest,
		evidence.WithTxn(msg.Txn), evidence.WithRecipients(prop.Proposer))
	if err != nil {
		return nil, err
	}
	if err := svc.LogGenerated(decTok, fmt.Sprintf("decision (accept=%t)", verdict.Accept)); err != nil {
		return nil, err
	}

	reply := &protocol.Message{
		Protocol: ProtocolShare,
		Run:      msg.Run,
		Txn:      msg.Txn,
		Step:     stepPropose,
		Kind:     kindDecision,
		Tokens:   []*evidence.Token{decTok},
	}
	if err := reply.SetBody(decisionBody{Note: note}); err != nil {
		return nil, err
	}
	c.replies.Put(msg.Run, stepPropose, reply)
	return reply, nil
}

// judge applies the local structural checks and application validators to
// every update of a proposal, then stores every proposed state; on
// acceptance it pins the updated replicas to the proposal's run. An
// accepted proposal's states are all stored, so its outcome applies
// without a step that can fail.
func (c *Controller) judge(ctx context.Context, prop *Proposal, propDigest sig.Digest) Verdict {
	ups := prop.updates()
	if len(ups) == 0 {
		return Reject("proposal updates no object")
	}
	reps := make([]*replica, len(ups))
	for i, u := range ups {
		// Object-name order is the lock order.
		if i > 0 && ups[i-1].Object >= u.Object {
			return Reject("updates not sorted by object")
		}
		r, err := c.replica(u.Object)
		if err != nil {
			return Reject("no local replica of " + u.Object)
		}
		reps[i] = r
	}

	lockAll(reps)
	defer unlockAll(reps)
	states := make([][]byte, len(ups))
	for i, u := range ups {
		r := reps[i]
		if reason := checkLocked(r, u, reps[0].group); reason != "" {
			return Reject(reason)
		}
		states[i] = r.snapshotLocked()
	}
	if verdict := c.validate(ctx, ups, states); !verdict.Accept {
		return verdict
	}
	if err := c.store(ups); err != nil {
		return Reject(err.Error())
	}
	rd := newRound(prop, propDigest, reps)
	c.mu.Lock()
	c.accepted[prop.Run] = rd
	c.mu.Unlock()
	return Accept()
}

// checkLocked returns why a member refuses update u on replica r, whose
// lock the caller holds, or "" when the structure allows it; group is the
// group of the proposal's first object, which every object must share.
func checkLocked(r *replica, u *Proposal, group []id.Party) string {
	cur := r.current()
	switch {
	case r.detached:
		return "replica detached"
	case !memberIn(r.group, u.Proposer):
		return fmt.Sprintf("proposer %s is not a member", u.Proposer)
	case !sameGroup(group, r.group):
		return "atomic update spans different groups"
	case sig.Sum(u.NewState) != u.NewStateDigest:
		return "proposed state does not match its digest"
	case u.BaseVersion != cur.Number || u.BaseChain != cur.Chain:
		return fmt.Sprintf("stale proposal: base %d, current %d", u.BaseVersion, cur.Number)
	case r.pendingRun != "":
		return "concurrent proposal in progress"
	}
	switch u.Kind {
	case ChangeConnect:
		if memberIn(r.group, u.Member) {
			return fmt.Sprintf("%s is already a member", u.Member)
		}
	case ChangeDisconnect:
		if !memberIn(r.group, u.Member) {
			return fmt.Sprintf("%s is not a member", u.Member)
		}
	case ChangeUpdate:
		// No structural constraints beyond the base checks.
	default:
		return fmt.Sprintf("unknown change kind %q", u.Kind)
	}
	return ""
}

// handleOutcome verifies the collective decision and applies or drops the
// round this party voted for.
func (c *Controller) handleOutcome(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
	if cached, ok := c.replies.Get(msg.Run, stepOutcome); ok {
		return cached, nil
	}
	svc := c.co.Services()
	var ob outcomeBody
	if err := msg.Body(&ob); err != nil {
		return nil, err
	}
	outcome := ob.Outcome
	if outcome.Run != msg.Run {
		return nil, fmt.Errorf("%w: outcome run mismatch", ErrEvidenceInvalid)
	}
	outDigest, err := outcome.Digest()
	if err != nil {
		return nil, err
	}
	outTok := msg.Token(evidence.KindOutcome)
	if err := svc.Verifier.Expect(outTok, evidence.KindOutcome, msg.Run, outcome.Proposer, outDigest); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEvidenceInvalid, err)
	}
	if err := svc.LogReceived(outTok, fmt.Sprintf("outcome from %s (agreed=%t)", outcome.Proposer, outcome.Agreed)); err != nil {
		return nil, err
	}

	// An outcome that is not the proposer's outcome of a round this party
	// voted for changes nothing: it is acknowledged unapplied, and not
	// cached, so it cannot stand in for the round's real outcome.
	c.mu.Lock()
	rd := c.accepted[msg.Run]
	c.mu.Unlock()
	matched := rd != nil && rd.digest == outcome.ProposalDigest && rd.prop.Proposer == outcome.Proposer
	applied := false
	if matched {
		if outcome.Agreed {
			// The outcome may only claim agreement if every other
			// member's signed decision says so.
			allAccept, err := validateDecisionSet(svc.Verifier, &outcome, rd.group)
			if err != nil {
				return nil, err
			}
			if !allAccept {
				return nil, fmt.Errorf("%w: outcome claims agreement against rejecting decisions", ErrEvidenceInvalid)
			}
		}
		applied = c.settle(rd, outcome.Agreed) != nil
	}

	reply, err := c.ackReply(msg, outcome.Object, outDigest, applied)
	if err != nil {
		return nil, err
	}
	if matched {
		c.replies.Put(msg.Run, stepOutcome, reply)
	}
	return reply, nil
}

// handleWelcome installs a replica transferred to this newly admitted
// member after verifying the admission evidence and history chain.
func (c *Controller) handleWelcome(_ context.Context, msg *protocol.Message) (*protocol.Message, error) {
	if cached, ok := c.replies.Get(msg.Run, stepWelcome); ok {
		return cached, nil
	}
	svc := c.co.Services()
	var wb welcomeBody
	if err := msg.Body(&wb); err != nil {
		return nil, err
	}
	outcome := wb.Outcome
	outDigest, err := outcome.Digest()
	if err != nil {
		return nil, err
	}
	if err := svc.Verifier.Expect(wb.OutcomeToken, evidence.KindOutcome, outcome.Run, outcome.Proposer, outDigest); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEvidenceInvalid, err)
	}
	if !outcome.Agreed {
		return nil, fmt.Errorf("%w: welcome outcome not an agreed outcome", ErrEvidenceInvalid)
	}
	propDigest, err := wb.Proposal.Digest()
	if err != nil {
		return nil, err
	}
	if propDigest != outcome.ProposalDigest || wb.Proposal.Kind != ChangeConnect || wb.Proposal.Member != svc.Party {
		return nil, fmt.Errorf("%w: welcome proposal does not admit this party", ErrEvidenceInvalid)
	}
	// Decisions came from the pre-connect group (all members but us).
	preGroup := without(wb.Group, svc.Party)
	allAccept, err := validateDecisionSet(svc.Verifier, &outcome, preGroup)
	if err != nil {
		return nil, err
	}
	if !allAccept {
		return nil, fmt.Errorf("%w: admission was not unanimous", ErrEvidenceInvalid)
	}
	if err := VerifyHistory(wb.Versions); err != nil {
		return nil, err
	}
	last := wb.Versions[len(wb.Versions)-1]
	if last.ProposalDigest != propDigest || last.StateDigest != sig.Sum(wb.State) {
		return nil, fmt.Errorf("%w: transferred state does not match admitted history", ErrEvidenceInvalid)
	}
	if err := svc.LogReceived(wb.OutcomeToken, "admission outcome for "+wb.Object); err != nil {
		return nil, err
	}

	if _, err := svc.States.Put(wb.State); err != nil {
		return nil, err
	}
	c.mu.Lock()
	installed := false
	if _, exists := c.replicas[wb.Object]; !exists {
		r := &replica{
			object:   wb.Object,
			group:    append([]id.Party(nil), wb.Group...),
			state:    append([]byte(nil), wb.State...),
			versions: append([]Version(nil), wb.Versions...),
		}
		c.replicas[wb.Object] = r
		installed = true
	}
	c.mu.Unlock()
	if installed {
		c.notifyApplied(wb.Object, wb.State, last)
	}

	reply, err := c.ackReply(msg, wb.Object, outDigest, true)
	if err != nil {
		return nil, err
	}
	c.replies.Put(msg.Run, stepWelcome, reply)
	return reply, nil
}

// ackReply builds a signed acknowledgement reply.
func (c *Controller) ackReply(msg *protocol.Message, object string, outDigest sig.Digest, applied bool) (*protocol.Message, error) {
	svc := c.co.Services()
	note := AckNote{
		Run:           msg.Run,
		Object:        object,
		Member:        svc.Party,
		OutcomeDigest: outDigest,
		Applied:       applied,
	}
	noteDigest, err := note.Digest()
	if err != nil {
		return nil, err
	}
	ackTok, err := svc.Issuer.Issue(evidence.KindAck, msg.Run, msg.Step, noteDigest)
	if err != nil {
		return nil, err
	}
	if err := svc.LogGenerated(ackTok, fmt.Sprintf("ack (applied=%t)", applied)); err != nil {
		return nil, err
	}
	reply := &protocol.Message{
		Protocol: ProtocolShare,
		Run:      msg.Run,
		Txn:      msg.Txn,
		Step:     msg.Step,
		Kind:     kindAck,
		Tokens:   []*evidence.Token{ackTok},
	}
	if err := reply.SetBody(ackBody{Note: note}); err != nil {
		return nil, err
	}
	return reply, nil
}
