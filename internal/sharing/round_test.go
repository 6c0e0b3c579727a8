package sharing_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/sharing"
	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// refusingStore is a state store that refuses to store one state.
type refusingStore struct {
	store.StateStore
	refused sig.Digest
}

func (s refusingStore) Put(state []byte) (sig.Digest, error) {
	if sig.Sum(state) == s.refused {
		return sig.Digest{}, errors.New("disk full")
	}
	return s.StateStore.Put(state)
}

// refuse makes party p's state store refuse state.
func (f *fixture) refuse(p id.Party, state string) {
	svc := f.domain.Node(p).Coordinator().Services()
	svc.States = refusingStore{StateStore: svc.States, refused: sig.Sum([]byte(state))}
}

// versionsAt fails the test unless every party's replica of each object
// is at version n.
func (f *fixture) versionsAt(t *testing.T, n uint64, objects ...string) {
	t.Helper()
	for p, ctl := range f.controllers {
		for _, obj := range objects {
			if _, v, err := ctl.Get(obj); err != nil || v.Number != n {
				t.Errorf("%s %s at version %d (%v), want %d", p, obj, v.Number, err, n)
			}
		}
	}
}

// storeCase is one proposal of a store-refusal test: the objects it
// updates, the states it proposes, and the state a store refuses.
type storeCase struct {
	objects []string
	updates map[string][]byte
	refused string
}

var storeCases = map[string]storeCase{
	"single object": {[]string{"order"}, map[string][]byte{"order": []byte("order:v1")}, "order:v1"},
	"atomic": {[]string{"order", "schedule"}, map[string][]byte{
		"order":    []byte("order:v1"),
		"schedule": []byte("schedule:v1"),
	}, "schedule:v1"},
}

// followUp fails the test unless a fresh Propose on each object agrees.
func (f *fixture) followUp(t *testing.T, objects ...string) {
	t.Helper()
	for _, obj := range objects {
		res, err := f.ctl(orgA).Propose(context.Background(), obj, []byte(obj+":v2"))
		if err != nil || !res.Agreed {
			t.Fatalf("follow-up Propose(%s): %v %+v", obj, err, res)
		}
	}
	f.versionsAt(t, 1, objects...)
}

// TestProposerStoreRefusalAppliesNowhere: the proposer stores every
// proposed state before the group sees the proposal. When its store
// refuses one, the call fails, no party's replica moves, and the objects
// are free for the next round.
func TestProposerStoreRefusalAppliesNowhere(t *testing.T) {
	t.Parallel()
	for name, tc := range storeCases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f := atomicFixture(t)
			f.refuse(orgA, tc.refused)
			if _, err := f.ctl(orgA).ProposeAtomic(context.Background(), tc.updates); err == nil || !strings.Contains(err.Error(), "disk full") {
				t.Fatalf("ProposeAtomic with a refusing store: err = %v", err)
			}
			f.versionsAt(t, 0, tc.objects...)
			f.followUp(t, tc.objects...)
		})
	}
}

// TestMemberStoreRefusalAppliesNowhere: a member stores every proposed
// state before it signs accept; one whose store refuses signs a reject
// instead, and no party applies.
func TestMemberStoreRefusalAppliesNowhere(t *testing.T) {
	t.Parallel()
	for name, tc := range storeCases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f := atomicFixture(t)
			f.refuse(orgC, tc.refused)
			res, err := f.ctl(orgA).ProposeAtomic(context.Background(), tc.updates)
			if err != nil {
				t.Fatal(err)
			}
			if res.Agreed || len(res.Rejections) != 1 || res.Rejections[0].Party != orgC ||
				!strings.Contains(res.Rejections[0].Reason, "disk full") {
				t.Fatalf("result = %+v, want orgC's reject naming its store", res)
			}
			f.versionsAt(t, 0, tc.objects...)
			f.followUp(t, tc.objects...)
		})
	}
}

// TestConcurrentRoundsOnDistinctObjects: rounds on different objects run
// at once, each member judging and settling several at a time, and every
// one agrees everywhere.
func TestConcurrentRoundsOnDistinctObjects(t *testing.T) {
	t.Parallel()
	f := atomicFixture(t)
	for _, p := range []id.Party{orgA, orgB, orgC} {
		if err := f.ctl(p).Create("invoice", []byte("invoice:v0"), []id.Party{orgA, orgB, orgC}); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 5
	var wg sync.WaitGroup
	for p, obj := range map[id.Party]string{orgA: "order", orgB: "schedule", orgC: "invoice"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				res, err := f.ctl(p).Propose(context.Background(), obj, []byte(fmt.Sprintf("%s:v%d", obj, i)))
				if err != nil || !res.Agreed {
					t.Errorf("%s round %d on %s: %v %+v", p, i, obj, err, res)
					return
				}
			}
		}()
	}
	wg.Wait()
	f.versionsAt(t, rounds, "order", "schedule", "invoice")
}

// current returns party p's current version of object.
func (f *fixture) current(t *testing.T, p id.Party, object string) sharing.Version {
	t.Helper()
	_, v, err := f.ctl(p).Get(object)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// updateProposal is orgA's single-object proposal of state for object
// against base.
func updateProposal(object string, base sharing.Version, state string) *sharing.Proposal {
	return &sharing.Proposal{
		Object:         object,
		Kind:           sharing.ChangeUpdate,
		Proposer:       orgA,
		Run:            id.NewRun(),
		BaseVersion:    base.Number,
		BaseChain:      base.Chain,
		NewStateDigest: sig.Sum([]byte(state)),
		NewState:       []byte(state),
	}
}

// atomicProposal is orgA's atomic proposal of the single-object
// proposals' updates, given in object-name order.
func atomicProposal(parts ...*sharing.Proposal) *sharing.Proposal {
	prop := &sharing.Proposal{Object: sharing.AtomicObject, Kind: sharing.ChangeAtomic, Proposer: orgA, Run: id.NewRun()}
	for _, p := range parts {
		prop.Subs = append(prop.Subs, sharing.SubUpdate{
			Object:         p.Object,
			BaseVersion:    p.BaseVersion,
			BaseChain:      p.BaseChain,
			NewStateDigest: p.NewStateDigest,
			NewState:       p.NewState,
		})
	}
	return prop
}

// sendAs delivers a sharing message of kind for run from party from
// straight to member, carrying body and from's token of tokKind over
// digest. It decodes the reply's note into note and returns the reply's
// token of replyKind, verified as member's over the note.
func (f *fixture) sendAs(t *testing.T, from id.Party, run id.Run, step int, kind string, tokKind evidence.Kind, digest sig.Digest, body any,
	member id.Party, replyKind evidence.Kind, note interface{ Digest() (sig.Digest, error) }) *evidence.Token {
	t.Helper()
	co := f.domain.Node(from).Coordinator()
	svc := co.Services()
	tok, err := svc.Issuer.Issue(tokKind, run, step, digest)
	if err != nil {
		t.Fatal(err)
	}
	msg := &protocol.Message{Protocol: sharing.ProtocolShare, Run: run, Step: step, Kind: kind, Tokens: []*evidence.Token{tok}}
	if err := msg.SetBody(body); err != nil {
		t.Fatal(err)
	}
	reply, err := co.DeliverRequest(context.Background(), member, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reply.Body(&struct {
		Note any `json:"note"`
	}{note}); err != nil {
		t.Fatal(err)
	}
	noteDigest, err := note.Digest()
	if err != nil {
		t.Fatal(err)
	}
	signed := reply.Token(replyKind)
	if err := svc.Verifier.Expect(signed, replyKind, run, member, noteDigest); err != nil {
		t.Fatalf("%s reply from %s: %v", kind, member, err)
	}
	return signed
}

// propose sends prop straight to member and returns its signed decision.
func (f *fixture) propose(t *testing.T, prop *sharing.Proposal, member id.Party) sharing.SignedDecision {
	t.Helper()
	digest, err := prop.Digest()
	if err != nil {
		t.Fatal(err)
	}
	var d sharing.SignedDecision
	d.Token = f.sendAs(t, prop.Proposer, prop.Run, 1, "propose", evidence.KindProposal, digest,
		map[string]*sharing.Proposal{"proposal": prop}, member, evidence.KindDecision, &d.Note)
	return d
}

// outcome sends out, signed by the proposer it names, straight to member
// and returns its ack note.
func (f *fixture) outcome(t *testing.T, out *sharing.Outcome, member id.Party) sharing.AckNote {
	t.Helper()
	digest, err := out.Digest()
	if err != nil {
		t.Fatal(err)
	}
	var ack sharing.AckNote
	f.sendAs(t, out.Proposer, out.Run, 2, "outcome", evidence.KindOutcome, digest,
		map[string]*sharing.Outcome{"outcome": out}, member, evidence.KindAck, &ack)
	if ack.OutcomeDigest != digest {
		t.Fatalf("ack covers outcome %s, want %s", ack.OutcomeDigest, digest)
	}
	return ack
}

// TestOutcomeForAnotherProposalChangesNothing: an outcome naming another
// proposal than the one a member accepted under the run, or signed by
// another party than its proposer, is acknowledged unapplied and changes
// nothing — not the replicas, and not the round, whose real outcome
// still applies.
func TestOutcomeForAnotherProposalChangesNothing(t *testing.T) {
	t.Parallel()
	for name, objects := range map[string][]string{
		"single object": {"order"},
		"atomic":        {"order", "schedule"},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f := atomicFixture(t)
			var parts []*sharing.Proposal
			for _, obj := range objects {
				parts = append(parts, updateProposal(obj, f.current(t, orgA, obj), obj+":v1"))
			}
			prop := parts[0]
			if len(parts) > 1 {
				prop = atomicProposal(parts...)
			}
			digest, err := prop.Digest()
			if err != nil {
				t.Fatal(err)
			}
			out := sharing.Outcome{Run: prop.Run, Object: prop.Object, Proposer: orgA, Agreed: true}
			for _, m := range []id.Party{orgB, orgC} {
				d := f.propose(t, prop, m)
				if !d.Note.Accept {
					t.Fatalf("%s rejected: %s", m, d.Note.Reason)
				}
				out.Decisions = append(out.Decisions, d)
			}

			out.ProposalDigest = digest
			otherProposal := out
			otherProposal.ProposalDigest = sig.Sum([]byte("another proposal"))
			otherProposer := out
			otherProposer.Proposer, otherProposer.Agreed = orgB, false
			for what, forged := range map[string]*sharing.Outcome{"another proposal": &otherProposal, "another proposer": &otherProposer} {
				if ack := f.outcome(t, forged, orgC); ack.Applied {
					t.Fatalf("outcome of %s applied", what)
				}
				for _, obj := range objects {
					if v := f.current(t, orgC, obj); v.Number != 0 {
						t.Fatalf("%s at version %d after an outcome of %s", obj, v.Number, what)
					}
				}
			}

			if ack := f.outcome(t, &out, orgC); !ack.Applied {
				t.Fatal("the round's own outcome was not applied")
			}
			for _, obj := range objects {
				if v := f.current(t, orgC, obj); v.Number != 1 || v.Run != prop.Run {
					t.Fatalf("%s at version %d of run %s, want 1 of %s", obj, v.Number, v.Run, prop.Run)
				}
			}
		})
	}
}
