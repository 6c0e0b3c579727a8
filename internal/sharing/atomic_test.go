package sharing_test

import (
	"context"
	"strings"
	"testing"

	"nonrep/internal/id"
	"nonrep/internal/sharing"
	"nonrep/internal/testpki"
)

// atomicFixture shares two objects among three organisations.
func atomicFixture(t *testing.T) *fixture {
	t.Helper()
	d := testpki.MustDomain(orgA, orgB, orgC)
	t.Cleanup(d.Close)
	f := &fixture{domain: d, controllers: make(map[id.Party]*sharing.Controller)}
	parties := []id.Party{orgA, orgB, orgC}
	for _, p := range parties {
		f.controllers[p] = sharing.NewController(d.Node(p).Coordinator())
	}
	for _, p := range parties {
		for _, obj := range []string{"order", "schedule"} {
			if err := f.controllers[p].Create(obj, []byte(obj+":v0"), parties); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f
}

func TestAtomicUpdateAppliesAllOrNothing(t *testing.T) {
	t.Parallel()
	f := atomicFixture(t)
	res, err := f.ctl(orgA).ProposeAtomic(context.Background(), map[string][]byte{
		"order":    []byte("order:v1"),
		"schedule": []byte("schedule:v1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreed {
		t.Fatalf("atomic update rejected: %+v", res.Rejections)
	}
	if len(res.Versions) != 2 {
		t.Fatalf("Versions = %+v", res.Versions)
	}
	// Every member applied both objects, bound to the same run.
	for p, ctl := range f.controllers {
		for _, obj := range []string{"order", "schedule"} {
			state, v, err := ctl.Get(obj)
			if err != nil {
				t.Fatal(err)
			}
			if string(state) != obj+":v1" || v.Number != 1 {
				t.Fatalf("%s %s = %s v%d", p, obj, state, v.Number)
			}
			if v.Run != res.Run {
				t.Fatalf("%s %s bound to run %s, want %s", p, obj, v.Run, res.Run)
			}
			history, err := ctl.History(obj)
			if err != nil {
				t.Fatal(err)
			}
			if err := sharing.VerifyHistory(history); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAtomicVetoRollsBackEverything(t *testing.T) {
	t.Parallel()
	f := atomicFixture(t)
	// B accepts schedule changes but vetoes this order change.
	f.ctl(orgB).AddValidator("order", sharing.ValidatorFunc(
		func(_ context.Context, ch *sharing.Change) sharing.Verdict {
			if strings.Contains(string(ch.NewState), "v1") {
				return sharing.Reject("order frozen")
			}
			return sharing.Accept()
		}))
	res, err := f.ctl(orgA).ProposeAtomic(context.Background(), map[string][]byte{
		"order":    []byte("order:v1"),
		"schedule": []byte("schedule:v1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agreed {
		t.Fatal("vetoed atomic update agreed")
	}
	// Neither object moved anywhere — including the valid schedule part.
	for p, ctl := range f.controllers {
		for _, obj := range []string{"order", "schedule"} {
			state, v, err := ctl.Get(obj)
			if err != nil {
				t.Fatal(err)
			}
			if string(state) != obj+":v0" || v.Number != 0 {
				t.Fatalf("%s %s = %s v%d after veto", p, obj, state, v.Number)
			}
		}
	}
	// Objects are released for subsequent rounds.
	res, err = f.ctl(orgA).Propose(context.Background(), "schedule", []byte("schedule:v1"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreed {
		t.Fatalf("follow-up rejected: %+v", res.Rejections)
	}
}

func TestAtomicSelfValidation(t *testing.T) {
	t.Parallel()
	f := atomicFixture(t)
	f.ctl(orgA).AddValidator("order", sharing.ValidatorFunc(
		func(context.Context, *sharing.Change) sharing.Verdict {
			return sharing.Reject("own policy forbids")
		}))
	res, err := f.ctl(orgA).ProposeAtomic(context.Background(), map[string][]byte{
		"order":    []byte("order:v1"),
		"schedule": []byte("schedule:v1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agreed {
		t.Fatal("self-vetoed atomic update agreed")
	}
	if len(res.Rejections) != 1 || res.Rejections[0].Party != orgA {
		t.Fatalf("rejections = %+v", res.Rejections)
	}
	// No coordination happened: members saw nothing.
	if f.domain.Node(orgB).Log().Len() != 0 {
		t.Fatal("members received a self-vetoed proposal")
	}
}

func TestAtomicSingleObjectFallsBack(t *testing.T) {
	t.Parallel()
	f := atomicFixture(t)
	res, err := f.ctl(orgA).ProposeAtomic(context.Background(), map[string][]byte{
		"order": []byte("order:v1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreed || res.Version == nil || res.Version.Number != 1 {
		t.Fatalf("fallback result = %+v", res)
	}
}

func TestAtomicValidationErrors(t *testing.T) {
	t.Parallel()
	f := atomicFixture(t)
	if _, err := f.ctl(orgA).ProposeAtomic(context.Background(), nil); err == nil {
		t.Fatal("empty atomic update succeeded")
	}
	if _, err := f.ctl(orgA).ProposeAtomic(context.Background(), map[string][]byte{
		"order":   []byte("x"),
		"missing": []byte("y"),
	}); err == nil {
		t.Fatal("atomic update with unknown object succeeded")
	}
}

func TestAtomicDifferentGroupsRejected(t *testing.T) {
	t.Parallel()
	f := atomicFixture(t)
	// A third object shared by a smaller group.
	small := []id.Party{orgA, orgB}
	if err := f.ctl(orgA).Create("private", []byte("p0"), small); err != nil {
		t.Fatal(err)
	}
	if err := f.ctl(orgB).Create("private", []byte("p0"), small); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ctl(orgA).ProposeAtomic(context.Background(), map[string][]byte{
		"order":   []byte("order:v1"),
		"private": []byte("p1"),
	}); err == nil {
		t.Fatal("atomic update across different groups succeeded")
	}
}

// TestAtomicStaleBaseRejected: a member signs a reject naming the stale
// base for a proposal pinned to a version it has moved past, whether the
// proposal updates one object or several, and pins nothing.
func TestAtomicStaleBaseRejected(t *testing.T) {
	t.Parallel()
	f := atomicFixture(t)
	genesis := map[string]sharing.Version{
		"order":    f.current(t, orgA, "order"),
		"schedule": f.current(t, orgA, "schedule"),
	}
	// "order" moves on; proposals pinned to its genesis are stale.
	res, err := f.ctl(orgB).Propose(context.Background(), "order", []byte("order:v1"))
	if err != nil || !res.Agreed {
		t.Fatalf("setup: %v %+v", err, res)
	}
	for name, prop := range map[string]*sharing.Proposal{
		"single object": updateProposal("order", genesis["order"], "order:v2"),
		"atomic": atomicProposal(
			updateProposal("order", genesis["order"], "order:v2"),
			updateProposal("schedule", genesis["schedule"], "schedule:v1"),
		),
	} {
		t.Run(name, func(t *testing.T) {
			d := f.propose(t, prop, orgC)
			if d.Note.Accept || !strings.Contains(d.Note.Reason, "stale") {
				t.Fatalf("decision on a stale proposal = %+v, want a reject naming the stale base", d.Note)
			}
		})
	}
	// The rejects pinned nothing: a fresh round over both objects agrees.
	res, err = f.ctl(orgA).ProposeAtomic(context.Background(), map[string][]byte{
		"order":    []byte("order:v2"),
		"schedule": []byte("schedule:v1"),
	})
	if err != nil || !res.Agreed {
		t.Fatalf("atomic round after the stale proposals: %v %+v", err, res)
	}
}
