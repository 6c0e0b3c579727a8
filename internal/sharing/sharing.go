// Package sharing implements non-repudiable information sharing
// (sections 3.3 and 4.3) — the component-middleware realisation of
// B2BObjects (paper reference [5]). Each organisation holds a local
// replica of the shared information; a B2BObjectController mediates all
// access and executes a non-repudiable state-coordination protocol for
// every proposed change:
//
//  1. the proposer's update is irrefutably attributable to the proposer
//     and proposed to all members;
//  2. every member independently validates the update with locally
//     determined, application-specific validators, and its signed decision
//     is attributable to it;
//  3. the collective decision (outcome) is made available to all parties,
//     and the update is applied if and only if agreement was unanimous.
//
// Version history forms a hash chain over proposal digests, so any member
// can later irrefutably assert the validity of an agreed state — the
// safety property of section 3.1 — and non-repudiable connect and
// disconnect proposals govern group membership.
//
// Every proposal — an update, a connect, a disconnect, or an atomic
// update of several objects — runs the same round. A proposal lists its
// per-object updates (Proposal.updates: one for a single-object proposal,
// one per entry of an atomic proposal's Subs), and each step works through
// that list on the objects' replicas, locked in object-name order: the
// proposer pins and self-validates them, members judge them, and one
// settle step applies them all or none. Each party stores every proposed
// state before it votes — the proposer before sending, a member before
// signing accept, rejecting when it cannot — so applying an agreed
// outcome cannot fail half-way. A retransmitted proposal or welcome, and
// the outcome a member settled its round by, get the reply first issued
// for them (protocol.ReplyCache keeps the most recent 4 096); any other
// outcome is acknowledged unapplied and changes nothing.
package sharing

import (
	"context"
	"errors"
	"fmt"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// ProtocolShare is the coordination protocol name registered with
// coordinators.
const ProtocolShare = "b2b-share"

// Message kinds within a coordination run.
const (
	kindPropose  = "propose"
	kindDecision = "decision"
	kindOutcome  = "outcome"
	kindAck      = "ack"
	kindWelcome  = "welcome"
)

// Protocol steps.
const (
	stepPropose = 1
	stepOutcome = 2
	stepWelcome = 3
)

// Errors reported by the sharing controller.
var (
	// ErrUnknownObject is returned for operations on objects with no
	// local replica.
	ErrUnknownObject = errors.New("sharing: unknown object")
	// ErrNotMember is returned when a non-member proposes or is asked to
	// validate.
	ErrNotMember = errors.New("sharing: party is not a member of the sharing group")
	// ErrAlreadyMember is returned when connecting a current member.
	ErrAlreadyMember = errors.New("sharing: party is already a member")
	// ErrEvidenceInvalid is returned when coordination evidence fails
	// verification.
	ErrEvidenceInvalid = errors.New("sharing: coordination evidence failed verification")
	// ErrDetached is returned when operating on a replica after leaving
	// the group.
	ErrDetached = errors.New("sharing: replica detached from sharing group")
)

// ChangeKind classifies a proposal.
type ChangeKind string

// Proposal kinds: state update, member connect, member disconnect
// (section 3.3: "non-repudiable connect and disconnect protocols govern
// changes to the membership of the group"), and atomic multi-object
// update (the transactional extension of section 6 / paper reference
// [6]).
const (
	ChangeUpdate     ChangeKind = "update"
	ChangeConnect    ChangeKind = "connect"
	ChangeDisconnect ChangeKind = "disconnect"
	ChangeAtomic     ChangeKind = "atomic"
)

// AtomicObject is the pseudo-object name carried by atomic multi-object
// proposals and their outcomes.
const AtomicObject = "b2b:atomic"

// SubUpdate is one object's update within an atomic proposal.
type SubUpdate struct {
	Object         string     `json:"object"`
	BaseVersion    uint64     `json:"base_version"`
	BaseChain      sig.Digest `json:"base_chain"`
	NewStateDigest sig.Digest `json:"new_state_digest"`
	NewState       []byte     `json:"new_state"`
}

// Proposal is the signed unit of coordination: a proposed state update or
// membership change, bound to the proposer's view of the object.
type Proposal struct {
	Object   string     `json:"object"`
	Kind     ChangeKind `json:"kind"`
	Proposer id.Party   `json:"proposer"`
	Run      id.Run     `json:"run"`
	Txn      id.Txn     `json:"txn,omitempty"`
	// BaseVersion and BaseChain pin the replica state the proposal is
	// made against; members reject stale proposals.
	BaseVersion uint64     `json:"base_version"`
	BaseChain   sig.Digest `json:"base_chain"`
	// NewStateDigest commits to the proposed state; NewState carries it.
	NewStateDigest sig.Digest `json:"new_state_digest"`
	NewState       []byte     `json:"new_state,omitempty"`
	// Member is the party joining or leaving for membership changes.
	Member id.Party `json:"member,omitempty"`
	// MemberAddr is the joining member's coordinator address.
	MemberAddr string `json:"member_addr,omitempty"`
	// Subs carries the per-object updates of a ChangeAtomic proposal,
	// sorted by object name.
	Subs []SubUpdate `json:"subs,omitempty"`
}

// Digest returns the canonical digest of the proposal.
func (p *Proposal) Digest() (sig.Digest, error) { return sig.SumCanonical(p) }

// updates lists the per-object updates the proposal makes, each in the
// single-object proposal shape: the proposal itself, or one update of
// each entry of an atomic proposal's Subs, in their order.
func (p *Proposal) updates() []*Proposal {
	if p.Kind != ChangeAtomic {
		return []*Proposal{p}
	}
	ups := make([]*Proposal, len(p.Subs))
	for i, s := range p.Subs {
		ups[i] = &Proposal{
			Object:         s.Object,
			Kind:           ChangeUpdate,
			Proposer:       p.Proposer,
			Run:            p.Run,
			Txn:            p.Txn,
			BaseVersion:    s.BaseVersion,
			BaseChain:      s.BaseChain,
			NewStateDigest: s.NewStateDigest,
			NewState:       s.NewState,
		}
	}
	return ups
}

// DecisionNote is the content evidenced by a member's decision token.
type DecisionNote struct {
	Run            id.Run     `json:"run"`
	Object         string     `json:"object"`
	Decider        id.Party   `json:"decider"`
	ProposalDigest sig.Digest `json:"proposal_digest"`
	Accept         bool       `json:"accept"`
	Reason         string     `json:"reason,omitempty"`
}

// Digest returns the canonical digest of the decision note.
func (n *DecisionNote) Digest() (sig.Digest, error) { return sig.SumCanonical(n) }

// SignedDecision pairs a decision note with its non-repudiation token.
type SignedDecision struct {
	Note  DecisionNote    `json:"note"`
	Token *evidence.Token `json:"token"`
}

// Outcome is the collective decision distributed to all members: the
// proposal digest, whether agreement was unanimous, and every member's
// signed decision (so each party can verify the others' votes).
type Outcome struct {
	Run            id.Run           `json:"run"`
	Object         string           `json:"object"`
	Proposer       id.Party         `json:"proposer"`
	ProposalDigest sig.Digest       `json:"proposal_digest"`
	Agreed         bool             `json:"agreed"`
	Decisions      []SignedDecision `json:"decisions"`
}

// Digest returns the canonical digest of the outcome.
func (o *Outcome) Digest() (sig.Digest, error) { return sig.SumCanonical(o) }

// AckNote is the content evidenced by a member's outcome acknowledgement.
type AckNote struct {
	Run           id.Run     `json:"run"`
	Object        string     `json:"object"`
	Member        id.Party   `json:"member"`
	OutcomeDigest sig.Digest `json:"outcome_digest"`
	Applied       bool       `json:"applied"`
}

// Digest returns the canonical digest of the acknowledgement note.
func (n *AckNote) Digest() (sig.Digest, error) { return sig.SumCanonical(n) }

// Rejection reports one member's refusal (or unreachability).
type Rejection struct {
	Party  id.Party `json:"party"`
	Reason string   `json:"reason"`
}

// Result is what a coordination round returns to the proposer.
type Result struct {
	Run    id.Run
	Agreed bool
	// Version is the new version when an agreed round updated one object.
	Version *Version
	// Versions maps every object an agreed round updated to its new
	// version.
	Versions   map[string]Version
	Rejections []Rejection
}

// Change is the application-facing view of a proposal handed to
// validators.
type Change struct {
	Object       string
	Kind         ChangeKind
	Proposer     id.Party
	BaseVersion  uint64
	CurrentState []byte
	NewState     []byte
	Member       id.Party
}

// Verdict is a validator's decision.
type Verdict struct {
	Accept bool
	Reason string
}

// Accept is the affirmative verdict.
func Accept() Verdict { return Verdict{Accept: true} }

// Reject is a negative verdict with a reason.
func Reject(reason string) Verdict { return Verdict{Accept: false, Reason: reason} }

// Validator is the application-specific validation hook of section 3.3:
// members "independently validate A's proposed update, using a locally
// determined and application-specific process".
type Validator interface {
	Validate(ctx context.Context, change *Change) Verdict
}

// ValidatorFunc adapts a function to the Validator interface.
type ValidatorFunc func(ctx context.Context, change *Change) Verdict

// Validate implements Validator.
func (f ValidatorFunc) Validate(ctx context.Context, change *Change) Verdict {
	return f(ctx, change)
}

// wire bodies

type proposeBody struct {
	Proposal Proposal `json:"proposal"`
}

type decisionBody struct {
	Note DecisionNote `json:"note"`
}

type outcomeBody struct {
	Outcome Outcome `json:"outcome"`
}

type ackBody struct {
	Note AckNote `json:"note"`
}

// welcomeBody transfers a full replica to a newly connected member,
// together with the connect proposal and outcome evidence that admitted
// it.
type welcomeBody struct {
	Object   string     `json:"object"`
	Group    []id.Party `json:"group"`
	State    []byte     `json:"state"`
	Versions []Version  `json:"versions"`
	Proposal Proposal   `json:"proposal"`
	Outcome  Outcome    `json:"outcome"`
	// OutcomeToken is the proposer's signature over the connect outcome.
	OutcomeToken *evidence.Token `json:"outcome_token"`
}

func memberIn(group []id.Party, p id.Party) bool {
	for _, m := range group {
		if m == p {
			return true
		}
	}
	return false
}

func without(group []id.Party, p id.Party) []id.Party {
	out := make([]id.Party, 0, len(group))
	for _, m := range group {
		if m != p {
			out = append(out, m)
		}
	}
	return out
}

// sameGroup reports whether two member sets are equal.
func sameGroup(a, b []id.Party) bool {
	if len(a) != len(b) {
		return false
	}
	for _, p := range b {
		if !memberIn(a, p) {
			return false
		}
	}
	return true
}

// validateDecisionSet checks that an outcome's decisions are exactly one
// valid, matching decision per non-proposer member, and reports whether
// all accepted.
func validateDecisionSet(v *evidence.Verifier, o *Outcome, group []id.Party) (bool, error) {
	expected := make(map[id.Party]bool)
	for _, m := range without(group, o.Proposer) {
		expected[m] = false
	}
	allAccept := true
	for _, d := range o.Decisions {
		seen, want := expected[d.Note.Decider]
		if !want {
			return false, fmt.Errorf("%w: decision from non-member %s", ErrEvidenceInvalid, d.Note.Decider)
		}
		if seen {
			return false, fmt.Errorf("%w: duplicate decision from %s", ErrEvidenceInvalid, d.Note.Decider)
		}
		expected[d.Note.Decider] = true
		if d.Note.Run != o.Run || d.Note.ProposalDigest != o.ProposalDigest {
			return false, fmt.Errorf("%w: decision from %s bound to different proposal", ErrEvidenceInvalid, d.Note.Decider)
		}
		noteDigest, err := d.Note.Digest()
		if err != nil {
			return false, err
		}
		if err := v.Expect(d.Token, evidence.KindDecision, o.Run, d.Note.Decider, noteDigest); err != nil {
			return false, fmt.Errorf("%w: decision from %s: %v", ErrEvidenceInvalid, d.Note.Decider, err)
		}
		if !d.Note.Accept {
			allAccept = false
		}
	}
	for m, seen := range expected {
		if !seen {
			return false, fmt.Errorf("%w: missing decision from %s", ErrEvidenceInvalid, m)
		}
	}
	return allAccept, nil
}
