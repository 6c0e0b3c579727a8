package sharing

import (
	"context"
	"fmt"
	"sort"
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
	appliers   map[string][]ApplyFunc
	// accepted holds, by run, each round this party voted to accept whose
	// outcome has not arrived. Its replicas stay pinned to the run, so
	// there is at most one per object.
	accepted map[id.Run]*round

	replies *protocol.ReplyCache
}

// ApplyFunc observes an agreed change after it is applied to the local
// replica; the component container uses it to refresh entity state
// (Figure 8).
type ApplyFunc func(state []byte, version Version)

// round is one coordination round as a party sees it: the proposal, its
// digest, its per-object updates and the replicas they apply to (in
// object-name order), and the group voting on it. The proposer adds the
// outcome it signed.
type round struct {
	prop    *Proposal
	digest  sig.Digest
	updates []*Proposal
	reps    []*replica
	group   []id.Party
	outcome Outcome
	outTok  *evidence.Token
}

var _ protocol.Handler = (*Controller)(nil)

// NewController creates a controller and registers it with the party's
// coordinator.
func NewController(co *protocol.Coordinator) *Controller {
	c := &Controller{
		co:         co,
		replicas:   make(map[string]*replica),
		validators: make(map[string][]Validator),
		appliers:   make(map[string][]ApplyFunc),
		accepted:   make(map[id.Run]*round),
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
	res, _, err := c.coordinate(ctx, []string{object}, func(reps []*replica) (*Proposal, error) {
		return reps[0].proposal(ChangeUpdate, newState, ""), nil
	})
	return res, err
}

// ProposeAtomic coordinates updates to several shared objects as one
// atomic unit: either every member applies every update, or nothing
// changes anywhere. It realises the transactional information sharing the
// paper's conclusions point to (reference [6]): one round carries every
// object's update in the proposal's Subs, every member validates all of
// them, and the unanimous outcome commits them together. All objects must
// be shared by the same group; a single object is an ordinary Propose.
func (c *Controller) ProposeAtomic(ctx context.Context, updates map[string][]byte) (*Result, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("sharing: empty atomic update")
	}
	names := make([]string, 0, len(updates))
	for name := range updates {
		names = append(names, name)
	}
	if len(names) == 1 {
		return c.Propose(ctx, names[0], updates[names[0]])
	}
	sort.Strings(names)
	res, _, err := c.coordinate(ctx, names, func(reps []*replica) (*Proposal, error) {
		return atomicProposal(reps, updates), nil
	})
	return res, err
}

// atomicProposal builds the proposal updating each of reps (locked, in
// object-name order) to its state in updates.
func atomicProposal(reps []*replica, updates map[string][]byte) *Proposal {
	prop := &Proposal{Object: AtomicObject, Kind: ChangeAtomic}
	for _, r := range reps {
		u := r.proposal(ChangeUpdate, updates[r.object], "")
		prop.Subs = append(prop.Subs, SubUpdate{
			Object:         u.Object,
			BaseVersion:    u.BaseVersion,
			BaseChain:      u.BaseChain,
			NewStateDigest: u.NewStateDigest,
			NewState:       u.NewState,
		})
	}
	return prop
}

// Connect coordinates the admission of a new member; on agreement the new
// member receives a verified replica transfer.
func (c *Controller) Connect(ctx context.Context, object string, member id.Party) (*Result, error) {
	res, rd, err := c.coordinate(ctx, []string{object}, func(reps []*replica) (*Proposal, error) {
		r := reps[0]
		if memberIn(r.group, member) {
			return nil, fmt.Errorf("%w: %s in %q", ErrAlreadyMember, member, object)
		}
		addr, err := c.co.Services().Directory.Resolve(member)
		if err != nil {
			return nil, err
		}
		prop := r.proposal(ChangeConnect, r.state, member)
		prop.MemberAddr = addr
		return prop, nil
	})
	if err != nil || !res.Agreed {
		return res, err
	}
	if err := c.sendWelcome(ctx, rd); err != nil {
		return res, fmt.Errorf("sharing: member admitted but replica transfer failed: %w", err)
	}
	return res, nil
}

// Disconnect coordinates the departure of a member (possibly the caller).
func (c *Controller) Disconnect(ctx context.Context, object string, member id.Party) (*Result, error) {
	res, _, err := c.coordinate(ctx, []string{object}, func(reps []*replica) (*Proposal, error) {
		r := reps[0]
		if !memberIn(r.group, member) {
			return nil, fmt.Errorf("%w: %s not in %q", ErrNotMember, member, object)
		}
		return r.proposal(ChangeDisconnect, r.state, member), nil
	})
	return res, err
}

// coordinate executes one round of the state-coordination protocol as
// proposer over the named objects, given in object-name order. With their
// replicas locked it checks that this party may propose, has build make
// the proposal and pins the replicas to the round. It then validates and
// stores every proposed state before the group sees any, runs the
// exchange and settles the round. It returns the round only once an
// outcome was signed.
func (c *Controller) coordinate(ctx context.Context, names []string, build func([]*replica) (*Proposal, error)) (*Result, *round, error) {
	self := c.co.Party()
	reps := make([]*replica, len(names))
	for i, name := range names {
		r, err := c.replica(name)
		if err != nil {
			return nil, nil, err
		}
		reps[i] = r
	}
	lockAll(reps)
	rd, states, err := c.pinLocked(reps, build)
	unlockAll(reps)
	if err != nil {
		return nil, nil, err
	}

	// Self-validation: the proposer applies its own validators before
	// troubling the group — it should not propose what it would veto,
	// and local validators (contract monitors, entity bindings) see
	// every change regardless of who proposed it.
	if verdict := c.validate(ctx, rd.updates, states); !verdict.Accept {
		c.settle(rd, false)
		return &Result{
			Run:        rd.prop.Run,
			Rejections: []Rejection{{Party: self, Reason: verdict.Reason}},
		}, nil, nil
	}
	if err := c.store(rd.updates); err != nil {
		c.settle(rd, false)
		return nil, nil, err
	}
	rejections, err := c.executeRound(ctx, rd)
	if err != nil {
		// No outcome was distributed; release the replicas for future
		// proposals.
		c.settle(rd, false)
		return nil, nil, err
	}
	result := &Result{Run: rd.prop.Run, Agreed: rd.outcome.Agreed, Rejections: rejections}
	if versions := c.settle(rd, rd.outcome.Agreed); versions != nil {
		result.Versions = make(map[string]Version, len(versions))
		for i, v := range versions {
			result.Versions[rd.updates[i].Object] = v
		}
		if len(versions) == 1 {
			result.Version = &versions[0]
		}
	}
	return result, rd, nil
}

// pinLocked opens the proposer's round over reps, whose locks the caller
// holds: every replica must be attached, include this party, be free and
// share one group. It returns the round and the replicas' current states.
func (c *Controller) pinLocked(reps []*replica, build func([]*replica) (*Proposal, error)) (*round, [][]byte, error) {
	self := c.co.Party()
	for _, r := range reps {
		switch {
		case r.detached:
			return nil, nil, fmt.Errorf("%w: %q", ErrDetached, r.object)
		case !memberIn(r.group, self):
			return nil, nil, fmt.Errorf("%w: %s in %q", ErrNotMember, self, r.object)
		case r.pendingRun != "":
			return nil, nil, fmt.Errorf("sharing: %q busy with run %s", r.object, r.pendingRun)
		case !sameGroup(reps[0].group, r.group):
			return nil, nil, fmt.Errorf("sharing: atomic update spans different groups (%q vs %q)", reps[0].object, r.object)
		}
	}
	prop, err := build(reps)
	if err != nil {
		return nil, nil, err
	}
	prop.Proposer = self
	prop.Run = id.NewRun()
	digest, err := prop.Digest()
	if err != nil {
		return nil, nil, err
	}
	states := make([][]byte, len(reps))
	for i, r := range reps {
		states[i] = r.snapshotLocked()
	}
	return newRound(prop, digest, reps), states, nil
}

// newRound opens the round of prop, whose digest is digest, over reps
// (locked by the caller, in update order) and pins them to its run.
func newRound(prop *Proposal, digest sig.Digest, reps []*replica) *round {
	for _, r := range reps {
		r.pendingRun = prop.Run
	}
	return &round{
		prop:    prop,
		digest:  digest,
		updates: prop.updates(),
		reps:    reps,
		group:   append([]id.Party(nil), reps[0].group...),
	}
}

// validate consults every update's validators, given the replicas'
// current states in update order, and returns the first veto.
func (c *Controller) validate(ctx context.Context, updates []*Proposal, states [][]byte) Verdict {
	for i, u := range updates {
		change := &Change{
			Object:       u.Object,
			Kind:         u.Kind,
			Proposer:     u.Proposer,
			BaseVersion:  u.BaseVersion,
			CurrentState: states[i],
			NewState:     append([]byte(nil), u.NewState...),
			Member:       u.Member,
		}
		for _, v := range c.validatorsFor(u.Object) {
			if verdict := v.Validate(ctx, change); !verdict.Accept {
				return verdict
			}
		}
	}
	return Accept()
}

// store puts every proposed state in this party's state store. Each party
// does so before it votes, which is what lets settle apply an agreed
// outcome without a step that can fail.
func (c *Controller) store(updates []*Proposal) error {
	for _, u := range updates {
		if _, err := c.co.Services().States.Put(u.NewState); err != nil {
			return fmt.Errorf("sharing: store proposed state of %q: %w", u.Object, err)
		}
	}
	return nil
}

// settle ends round rd on its replicas: it applies every update when
// agreed, unpins the replicas and returns the new versions in update order
// (nil when nothing was applied). Replicas no longer pinned to the round
// mean another delivery of its outcome settled it first, and nothing
// changes.
func (c *Controller) settle(rd *round, agreed bool) []Version {
	self := c.co.Party()
	lockAll(rd.reps)
	// A round pins and unpins all its replicas together.
	if rd.reps[0].pendingRun != rd.prop.Run {
		unlockAll(rd.reps)
		return nil
	}
	var versions []Version
	for i, r := range rd.reps {
		if agreed {
			versions = append(versions, r.applyLocked(rd.updates[i], rd.digest, self))
		}
		r.pendingRun = ""
	}
	c.mu.Lock()
	delete(c.accepted, rd.prop.Run)
	c.mu.Unlock()
	unlockAll(rd.reps)
	for i, v := range versions {
		c.notifyApplied(rd.updates[i].Object, rd.updates[i].NewState, v)
	}
	return versions
}

// executeRound performs the evidence exchange of round rd — proposal to
// every other member, collection of signed decisions, distribution of the
// signed outcome (kept on rd), collection of signed acknowledgements —
// without touching replica state.
func (c *Controller) executeRound(ctx context.Context, rd *round) ([]Rejection, error) {
	svc := c.co.Services()
	prop, propDigest := rd.prop, rd.digest
	members := without(rd.group, svc.Party)

	propTok, err := svc.Issuer.Issue(evidence.KindProposal, prop.Run, stepPropose, propDigest,
		evidence.WithTxn(prop.Txn), evidence.WithRecipients(members...))
	if err != nil {
		return nil, err
	}
	if err := svc.LogGenerated(propTok, fmt.Sprintf("proposal (%s %s)", prop.Kind, prop.Object)); err != nil {
		return nil, err
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
			return nil, err
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
			return nil, err
		}
		if note.Decider != m || note.Run != prop.Run || note.ProposalDigest != propDigest ||
			svc.Verifier.Expect(tok, evidence.KindDecision, prop.Run, m, noteDigest) != nil {
			rejections = append(rejections, Rejection{Party: m, Reason: "invalid decision evidence"})
			continue
		}
		if err := svc.LogReceived(tok, fmt.Sprintf("decision from %s (accept=%t)", m, note.Accept)); err != nil {
			return nil, err
		}
		decisions = append(decisions, SignedDecision{Note: note, Token: tok})
		if !note.Accept {
			rejections = append(rejections, Rejection{Party: m, Reason: note.Reason})
		}
	}
	agreed := len(rejections) == 0 && len(decisions) == len(members)

	// Step 3: distribute the collective decision to all parties.
	rd.outcome = Outcome{
		Run:            prop.Run,
		Object:         prop.Object,
		Proposer:       svc.Party,
		ProposalDigest: propDigest,
		Agreed:         agreed,
		Decisions:      decisions,
	}
	outDigest, err := rd.outcome.Digest()
	if err != nil {
		return nil, err
	}
	rd.outTok, err = svc.Issuer.Issue(evidence.KindOutcome, prop.Run, stepOutcome, outDigest,
		evidence.WithTxn(prop.Txn), evidence.WithRecipients(members...))
	if err != nil {
		return nil, err
	}
	if err := svc.LogGenerated(rd.outTok, fmt.Sprintf("outcome (agreed=%t)", agreed)); err != nil {
		return nil, err
	}
	for _, m := range members {
		msg := &protocol.Message{
			Protocol: ProtocolShare,
			Run:      prop.Run,
			Txn:      prop.Txn,
			Step:     stepOutcome,
			Kind:     kindOutcome,
			Tokens:   []*evidence.Token{rd.outTok},
		}
		if err := msg.SetBody(outcomeBody{Outcome: rd.outcome}); err != nil {
			return nil, err
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
			return nil, err
		}
		if ab.Note.OutcomeDigest != outDigest ||
			svc.Verifier.Expect(ackTok, evidence.KindAck, prop.Run, m, ackDigest) != nil {
			rejections = append(rejections, Rejection{Party: m, Reason: "invalid ack evidence"})
			continue
		}
		if err := svc.LogReceived(ackTok, fmt.Sprintf("ack from %s (applied=%t)", m, ab.Note.Applied)); err != nil {
			return nil, err
		}
	}
	return rejections, nil
}

// sendWelcome transfers the full replica to the member a connect round
// admitted, with that round's proposal, outcome and outcome token so the
// new member can verify its admission.
func (c *Controller) sendWelcome(ctx context.Context, rd *round) error {
	svc := c.co.Services()
	object, member, run := rd.prop.Object, rd.prop.Member, rd.prop.Run
	r := rd.reps[0]
	r.mu.Lock()
	welcome := welcomeBody{
		Object:       object,
		Group:        append([]id.Party(nil), r.group...),
		State:        r.snapshotLocked(),
		Versions:     append([]Version(nil), r.versions...),
		Proposal:     *rd.prop,
		Outcome:      rd.outcome,
		OutcomeToken: rd.outTok,
	}
	r.mu.Unlock()

	msg := &protocol.Message{
		Protocol: ProtocolShare,
		Run:      run,
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
	want := AckNote{Run: run, Object: object, Member: member, OutcomeDigest: outDigest, Applied: true}
	ackDigest, err := want.Digest()
	if err != nil {
		return err
	}
	ackTok := reply.Token(evidence.KindAck)
	if svc.Verifier.Expect(ackTok, evidence.KindAck, run, member, ackDigest) != nil {
		return fmt.Errorf("%w: welcome ack", ErrEvidenceInvalid)
	}
	return svc.LogReceived(ackTok, "welcome ack from "+string(member))
}
