package sharing

import (
	"context"
	"fmt"
	"sync"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
)

// Controller is the B2BObjectController of section 4.3: "the local
// interface to configuration, initiation and control of information
// sharing. It uses protocol handlers and a coordinator service to execute
// non-repudiable state and membership coordination protocols with remote
// parties." One controller per party manages all of that party's shared
// objects.
type Controller struct {
	protocol.RequestMux
	co *protocol.Coordinator

	mu         sync.Mutex
	replicas   map[string]*replica
	validators map[string][]Validator
	rounds     map[id.Run]*roundEvidence
	appliers   map[string][]ApplyFunc

	replies *protocol.ReplyCache
}

// ApplyFunc observes an agreed change after it is applied to the local
// replica; the component container uses it to refresh entity state
// (Figure 8).
type ApplyFunc func(state []byte, version Version)

// roundEvidence keeps a completed round's artefacts for replica transfer
// and adjudication.
type roundEvidence struct {
	proposal *Proposal
	outcome  *Outcome
	outTok   *evidence.Token
}

var _ protocol.Handler = (*Controller)(nil)

// NewController creates a controller and registers it with the party's
// coordinator.
func NewController(co *protocol.Coordinator) *Controller {
	c := &Controller{
		co:         co,
		replicas:   make(map[string]*replica),
		validators: make(map[string][]Validator),
		rounds:     make(map[id.Run]*roundEvidence),
		appliers:   make(map[string][]ApplyFunc),
		replies:    protocol.NewReplyCache(),
	}
	c.RequestMux = protocol.NewRequestMux(ProtocolShare, "sharing", map[string]protocol.RequestFunc{
		kindPropose: c.handlePropose,
		kindOutcome: c.handleOutcome,
		kindWelcome: c.handleWelcome,
	})
	co.Register(c)
	return c
}

// Create installs a local replica of a shared object at an agreed initial
// state. Every founding member calls Create with identical arguments (the
// out-of-band business contract of section 1 fixes these), yielding
// identical genesis versions.
func (c *Controller) Create(object string, initial []byte, group []id.Party) error {
	svc := c.co.Services()
	if !memberIn(group, svc.Party) {
		return fmt.Errorf("%w: %s creating %s", ErrNotMember, svc.Party, object)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.replicas[object]; ok {
		return fmt.Errorf("sharing: object %q already exists", object)
	}
	if _, err := svc.States.Put(initial); err != nil {
		return err
	}
	c.replicas[object] = newReplica(object, initial, group)
	return nil
}

// AddValidator registers an application-specific validator for an object;
// the empty object name registers it for all objects.
func (c *Controller) AddValidator(object string, v Validator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.validators[object] = append(c.validators[object], v)
}

// OnApply registers a callback invoked after every agreed change to an
// object is applied locally.
func (c *Controller) OnApply(object string, fn ApplyFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.appliers[object] = append(c.appliers[object], fn)
}

// notifyApplied runs the object's apply callbacks.
func (c *Controller) notifyApplied(object string, state []byte, v Version) {
	c.mu.Lock()
	fns := append([]ApplyFunc(nil), c.appliers[object]...)
	c.mu.Unlock()
	for _, fn := range fns {
		fn(append([]byte(nil), state...), v)
	}
}

// replica returns the replica for an object.
func (c *Controller) replica(object string) (*replica, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.replicas[object]
	if !ok {
		return nil, fmt.Errorf("%w: %q at %s", ErrUnknownObject, object, c.co.Party())
	}
	return r, nil
}

// validatorsFor returns the validators consulted for an object.
func (c *Controller) validatorsFor(object string) []Validator {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]Validator(nil), c.validators[""]...)
	return append(out, c.validators[object]...)
}

// Get returns a copy of the object's current state and version.
func (c *Controller) Get(object string) ([]byte, Version, error) {
	r, err := c.replica(object)
	if err != nil {
		return nil, Version{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked(), r.current(), nil
}

// Group returns the object's current sharing group.
func (c *Controller) Group(object string) ([]id.Party, error) {
	r, err := c.replica(object)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]id.Party(nil), r.group...), nil
}

// History returns the object's agreed version history.
func (c *Controller) History(object string) ([]Version, error) {
	r, err := c.replica(object)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Version(nil), r.versions...), nil
}

// Stage buffers a local update without coordinating, supporting the
// roll-up of section 4.3: "a series of operations on an underlying
// B2BObject bean being rolled-up into a single coordination event".
func (c *Controller) Stage(object string, newState []byte) error {
	r, err := c.replica(object)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.staged = append([]byte(nil), newState...)
	return nil
}

// Staged returns the currently staged state, or nil.
func (c *Controller) Staged(object string) ([]byte, error) {
	r, err := c.replica(object)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.staged == nil {
		return nil, nil
	}
	return append([]byte(nil), r.staged...), nil
}

// Commit coordinates the staged state as a single update.
func (c *Controller) Commit(ctx context.Context, object string) (*Result, error) {
	r, err := c.replica(object)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	staged := r.staged
	r.staged = nil
	r.mu.Unlock()
	if staged == nil {
		return nil, fmt.Errorf("sharing: nothing staged for %q", object)
	}
	return c.Propose(ctx, object, staged)
}

// Propose coordinates a state update: the Figure 5(b) flow.
func (c *Controller) Propose(ctx context.Context, object string, newState []byte) (*Result, error) {
	return c.coordinate(ctx, object, func(r *replica) *Proposal {
		return &Proposal{
			Object:         object,
			Kind:           ChangeUpdate,
			NewStateDigest: sig.Sum(newState),
			NewState:       append([]byte(nil), newState...),
		}
	})
}

// Connect coordinates the admission of a new member; on agreement the new
// member receives a verified replica transfer.
func (c *Controller) Connect(ctx context.Context, object string, member id.Party) (*Result, error) {
	r, err := c.replica(object)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	already := memberIn(r.group, member)
	state := r.snapshotLocked()
	r.mu.Unlock()
	if already {
		return nil, fmt.Errorf("%w: %s in %q", ErrAlreadyMember, member, object)
	}
	addr, err := c.co.Services().Directory.Resolve(member)
	if err != nil {
		return nil, err
	}
	res, err := c.coordinate(ctx, object, func(r *replica) *Proposal {
		return &Proposal{
			Object:         object,
			Kind:           ChangeConnect,
			NewStateDigest: sig.Sum(state),
			NewState:       state,
			Member:         member,
			MemberAddr:     addr,
		}
	})
	if err != nil || !res.Agreed {
		return res, err
	}
	if err := c.sendWelcome(ctx, object, member); err != nil {
		return res, fmt.Errorf("sharing: member admitted but replica transfer failed: %w", err)
	}
	return res, nil
}

// Disconnect coordinates the departure of a member (possibly the caller).
func (c *Controller) Disconnect(ctx context.Context, object string, member id.Party) (*Result, error) {
	r, err := c.replica(object)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	present := memberIn(r.group, member)
	state := r.snapshotLocked()
	r.mu.Unlock()
	if !present {
		return nil, fmt.Errorf("%w: %s not in %q", ErrNotMember, member, object)
	}
	return c.coordinate(ctx, object, func(r *replica) *Proposal {
		return &Proposal{
			Object:         object,
			Kind:           ChangeDisconnect,
			NewStateDigest: sig.Sum(state),
			NewState:       state,
			Member:         member,
		}
	})
}

// coordinate executes one round of the state-coordination protocol as
// proposer.
func (c *Controller) coordinate(ctx context.Context, object string, build func(*replica) *Proposal) (*Result, error) {
	svc := c.co.Services()
	r, err := c.replica(object)
	if err != nil {
		return nil, err
	}

	// Pin the base version and serialise against concurrent proposals.
	r.mu.Lock()
	if r.detached {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDetached, object)
	}
	if !memberIn(r.group, svc.Party) {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s in %q", ErrNotMember, svc.Party, object)
	}
	if r.pendingRun != "" {
		run := r.pendingRun
		r.mu.Unlock()
		return nil, fmt.Errorf("sharing: %q busy with run %s", object, run)
	}
	prop := build(r)
	prop.Proposer = svc.Party
	prop.Run = id.NewRun()
	cur := r.current()
	prop.BaseVersion = cur.Number
	prop.BaseChain = cur.Chain
	members := without(r.group, svc.Party)
	currentState := r.snapshotLocked()
	propDigest, err := prop.Digest()
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	r.pendingRun = prop.Run
	r.pendingProposal = prop
	r.pendingDigest = propDigest
	r.mu.Unlock()

	// Self-validation: the proposer applies its own validators before
	// troubling the group — it should not propose what it would veto,
	// and local validators (contract monitors, entity bindings) see
	// every change regardless of who proposed it.
	change := &Change{
		Object:       prop.Object,
		Kind:         prop.Kind,
		Proposer:     prop.Proposer,
		BaseVersion:  prop.BaseVersion,
		CurrentState: currentState,
		NewState:     append([]byte(nil), prop.NewState...),
		Member:       prop.Member,
	}
	for _, v := range c.validatorsFor(prop.Object) {
		if verdict := v.Validate(ctx, change); !verdict.Accept {
			r.mu.Lock()
			if r.pendingRun == prop.Run {
				r.clearPendingLocked()
			}
			r.mu.Unlock()
			return &Result{
				Run:        prop.Run,
				Agreed:     false,
				Rejections: []Rejection{{Party: svc.Party, Reason: verdict.Reason}},
			}, nil
		}
	}

	result, err := c.runRound(ctx, r, prop, propDigest, members)
	if err != nil {
		// Round failed before an outcome was distributed; release the
		// replica for future proposals.
		r.mu.Lock()
		if r.pendingRun == prop.Run {
			r.clearPendingLocked()
		}
		r.mu.Unlock()
		return nil, err
	}
	return result, nil
}

// runRound drives steps 1–3 of Figure 5(b) for a single-object proposal.
func (c *Controller) runRound(ctx context.Context, r *replica, prop *Proposal, propDigest sig.Digest, members []id.Party) (*Result, error) {
	svc := c.co.Services()
	agreed, rejections, err := c.executeRound(ctx, prop, propDigest, members)
	if err != nil {
		return nil, err
	}

	// Apply (or drop) locally.
	result := &Result{Run: prop.Run, Agreed: agreed, Rejections: rejections}
	r.mu.Lock()
	if agreed {
		if _, err := svc.States.Put(prop.NewState); err != nil {
			r.mu.Unlock()
			return nil, err
		}
		v := r.applyLocked(prop, propDigest)
		result.Version = &v
		if prop.Kind == ChangeDisconnect && prop.Member == svc.Party {
			r.detached = true
		}
	}
	r.clearPendingLocked()
	r.mu.Unlock()
	if result.Version != nil {
		c.notifyApplied(prop.Object, prop.NewState, *result.Version)
	}
	return result, nil
}

// executeRound performs the evidence exchange of a coordination round —
// proposal to every member, collection of signed decisions, distribution
// of the signed outcome, collection of signed acknowledgements — without
// touching replica state. It returns whether agreement was unanimous.
func (c *Controller) executeRound(ctx context.Context, prop *Proposal, propDigest sig.Digest, members []id.Party) (bool, []Rejection, error) {
	svc := c.co.Services()

	propTok, err := svc.Issuer.Issue(evidence.KindProposal, prop.Run, stepPropose, propDigest,
		evidence.WithTxn(prop.Txn), evidence.WithRecipients(members...))
	if err != nil {
		return false, nil, err
	}
	if err := svc.LogGenerated(propTok, fmt.Sprintf("proposal (%s %s)", prop.Kind, prop.Object)); err != nil {
		return false, nil, err
	}

	// Step 2: gather every member's independent, signed decision.
	var (
		decisions  []SignedDecision
		rejections []Rejection
	)
	for _, m := range members {
		msg := &protocol.Message{
			Protocol: ProtocolShare,
			Run:      prop.Run,
			Txn:      prop.Txn,
			Step:     stepPropose,
			Kind:     kindPropose,
			Tokens:   []*evidence.Token{propTok},
		}
		if err := msg.SetBody(proposeBody{Proposal: *prop}); err != nil {
			return false, nil, err
		}
		reply, err := c.co.DeliverRequest(ctx, m, msg)
		if err != nil {
			rejections = append(rejections, Rejection{Party: m, Reason: fmt.Sprintf("unreachable: %v", err)})
			continue
		}
		var db decisionBody
		if err := reply.Body(&db); err != nil {
			rejections = append(rejections, Rejection{Party: m, Reason: fmt.Sprintf("malformed decision: %v", err)})
			continue
		}
		note := db.Note
		tok := reply.Token(evidence.KindDecision)
		noteDigest, err := note.Digest()
		if err != nil {
			return false, nil, err
		}
		if note.Decider != m || note.Run != prop.Run || note.ProposalDigest != propDigest ||
			svc.Verifier.Expect(tok, evidence.KindDecision, prop.Run, m, noteDigest) != nil {
			rejections = append(rejections, Rejection{Party: m, Reason: "invalid decision evidence"})
			continue
		}
		if err := svc.LogReceived(tok, fmt.Sprintf("decision from %s (accept=%t)", m, note.Accept)); err != nil {
			return false, nil, err
		}
		decisions = append(decisions, SignedDecision{Note: note, Token: tok})
		if !note.Accept {
			rejections = append(rejections, Rejection{Party: m, Reason: note.Reason})
		}
	}
	agreed := len(rejections) == 0 && len(decisions) == len(members)

	// Step 3: distribute the collective decision to all parties.
	outcome := Outcome{
		Run:            prop.Run,
		Object:         prop.Object,
		Proposer:       svc.Party,
		ProposalDigest: propDigest,
		Agreed:         agreed,
		Decisions:      decisions,
	}
	outDigest, err := outcome.Digest()
	if err != nil {
		return false, nil, err
	}
	outTok, err := svc.Issuer.Issue(evidence.KindOutcome, prop.Run, stepOutcome, outDigest,
		evidence.WithTxn(prop.Txn), evidence.WithRecipients(members...))
	if err != nil {
		return false, nil, err
	}
	if err := svc.LogGenerated(outTok, fmt.Sprintf("outcome (agreed=%t)", agreed)); err != nil {
		return false, nil, err
	}
	for _, m := range members {
		msg := &protocol.Message{
			Protocol: ProtocolShare,
			Run:      prop.Run,
			Txn:      prop.Txn,
			Step:     stepOutcome,
			Kind:     kindOutcome,
			Tokens:   []*evidence.Token{outTok},
		}
		if err := msg.SetBody(outcomeBody{Outcome: outcome}); err != nil {
			return false, nil, err
		}
		reply, err := c.co.DeliverRequest(ctx, m, msg)
		if err != nil {
			rejections = append(rejections, Rejection{Party: m, Reason: fmt.Sprintf("outcome not acknowledged: %v", err)})
			continue
		}
		var ab ackBody
		if err := reply.Body(&ab); err != nil {
			rejections = append(rejections, Rejection{Party: m, Reason: fmt.Sprintf("malformed ack: %v", err)})
			continue
		}
		ackTok := reply.Token(evidence.KindAck)
		ackDigest, err := ab.Note.Digest()
		if err != nil {
			return false, nil, err
		}
		if ab.Note.OutcomeDigest != outDigest ||
			svc.Verifier.Expect(ackTok, evidence.KindAck, prop.Run, m, ackDigest) != nil {
			rejections = append(rejections, Rejection{Party: m, Reason: "invalid ack evidence"})
			continue
		}
		if err := svc.LogReceived(ackTok, fmt.Sprintf("ack from %s (applied=%t)", m, ab.Note.Applied)); err != nil {
			return false, nil, err
		}
	}

	// Keep the round artefacts for replica transfer and adjudication.
	c.mu.Lock()
	c.rounds[prop.Run] = &roundEvidence{proposal: prop, outcome: &outcome, outTok: outTok}
	c.mu.Unlock()
	return agreed, rejections, nil
}

// sendWelcome transfers the full replica to a newly admitted member.
func (c *Controller) sendWelcome(ctx context.Context, object string, member id.Party) error {
	svc := c.co.Services()
	r, err := c.replica(object)
	if err != nil {
		return err
	}
	r.mu.Lock()
	last := r.current()
	welcome := welcomeBody{
		Object:   object,
		Group:    append([]id.Party(nil), r.group...),
		State:    r.snapshotLocked(),
		Versions: append([]Version(nil), r.versions...),
	}
	r.mu.Unlock()

	// Attach the connect proposal, outcome and outcome token from the
	// just-completed round so the new member can verify its admission.
	c.mu.Lock()
	round := c.rounds[last.Run]
	c.mu.Unlock()
	if round == nil {
		return fmt.Errorf("sharing: connect evidence for %s missing", last.Run)
	}
	welcome.Outcome = *round.outcome
	welcome.OutcomeToken = round.outTok
	welcome.Proposal = *round.proposal

	msg := &protocol.Message{
		Protocol: ProtocolShare,
		Run:      last.Run,
		Step:     stepWelcome,
		Kind:     kindWelcome,
	}
	if err := msg.SetBody(welcome); err != nil {
		return err
	}
	reply, err := c.co.DeliverRequest(ctx, member, msg)
	if err != nil {
		return err
	}
	// The ack must be the member's signed report that it applied this
	// admission's outcome: its token must cover that note, whatever note
	// the reply carries.
	outDigest, err := welcome.Outcome.Digest()
	if err != nil {
		return err
	}
	want := AckNote{Run: last.Run, Object: object, Member: member, OutcomeDigest: outDigest, Applied: true}
	ackDigest, err := want.Digest()
	if err != nil {
		return err
	}
	ackTok := reply.Token(evidence.KindAck)
	if svc.Verifier.Expect(ackTok, evidence.KindAck, last.Run, member, ackDigest) != nil {
		return fmt.Errorf("%w: welcome ack", ErrEvidenceInvalid)
	}
	return svc.LogReceived(ackTok, "welcome ack from "+string(member))
}
