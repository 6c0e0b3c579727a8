package sharing

import (
	"testing"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// TestSignedBytesUnchanged pins, for fixed single-object, connect,
// disconnect and atomic rounds, the digests of the proposal the controller
// builds, of the decision notes, outcome and ack note over it, and of the
// versions it chains. The digests were taken from the build whose atomic
// rounds ran their own copy of the round; a change to what any party signs
// or chains shows here.
func TestSignedBytesUnchanged(t *testing.T) {
	t.Parallel()
	const (
		a = id.Party("urn:org:manufacturer")
		b = id.Party("urn:org:supplier-a")
		c = id.Party("urn:org:supplier-b")
		d = id.Party("urn:org:supplier-c")
	)
	group := []id.Party{a, b, c}
	doc := func() *replica { return newReplica("design-doc", []byte(`{"rev":0}`), group) }
	fixed := func(p *Proposal, run id.Run) *Proposal {
		p.Proposer, p.Run = a, run
		return p
	}
	connect := func() *Proposal {
		r := doc()
		p := r.proposal(ChangeConnect, r.state, d)
		p.MemberAddr = string(d)
		return fixed(p, "run-connect")
	}
	disconnect := func() *Proposal {
		r := doc()
		return fixed(r.proposal(ChangeDisconnect, r.state, c), "run-disconnect")
	}
	objects := []*replica{newReplica("order", []byte("order:v0"), group), newReplica("schedule", []byte("schedule:v0"), group)}
	atomic := fixed(atomicProposal(objects, map[string][]byte{"order": []byte("order:v1"), "schedule": []byte("schedule:v1")}), "run-atomic")

	for _, tc := range []struct {
		name      string
		prop      *Proposal
		reps      []*replica
		proposal  string
		decisions [2]string
		outcome   string
		ack       string
		versions  []string
	}{{
		name:      "update",
		prop:      fixed(doc().proposal(ChangeUpdate, []byte(`{"rev":1}`), ""), "run-update"),
		reps:      []*replica{doc()},
		proposal:  "6ab3d12b7f67a1c211ea51c49ac5e7f37bdf42a00fdf811bf8fa62acb43bc932",
		decisions: [2]string{"ceab1c0ce2bf1533d7e77d85b1fea4e38d414ff17dbf20aa10e9e426d2dadaea", "ab552438dfc9ff91269790f950765b535e57f9e60bf25d382790471e5a6caebf"},
		outcome:   "12c26c5ed48b1cb72a5effc7953920693afbcb4f368ba4e2af408acf686bd1f7",
		ack:       "3cbe248b52918a39bc9385b00921c90b718e6edc842e9abbcbc15c04b3fead1e",
		versions:  []string{"0c191021aada461ae08208f284e362356c9a7fbf2f6fdd8c153e832ea77d43e1"},
	}, {
		name:      "connect",
		prop:      connect(),
		reps:      []*replica{doc()},
		proposal:  "5c4809bc47dc56860c16090e7a09ac277ca34058f4928de31b5d1dd4d204e23b",
		decisions: [2]string{"ddae876d68ccd69c2d433b86e6f3ad61b03c982f1fa1e81366173fce9e5eb6d8", "d015b3e027e275bcca0f73438bdedf2790e2f403fb3064bba98e6ad2b62a1a1f"},
		outcome:   "c22267e29b20b8fb9220ca1ee63e03bfe1163cfe8beeb19a08763b3c364d00db",
		ack:       "8a22c6e391ea03ec6ad9a8920d14b874b5d31cff2fe5f20536b3d6d746fcb460",
		versions:  []string{"d06958d8a8a40dcc22afcad5957bd38eb3813a8f43e54a239078374ccaf0dca4"},
	}, {
		name:      "disconnect",
		prop:      disconnect(),
		reps:      []*replica{doc()},
		proposal:  "b2bc5dd2cd65f3bd7bd47c7eceef5ca7f52323b51ec59362d076b641250fdb20",
		decisions: [2]string{"1b2ae5b56bfd013de7394e35c8b97efd26a35dfceefbd15a32683ebcbfa39500", "e1628437236fc6731a0c4ef65465b717aba669d6707679f5338eba713100fe9c"},
		outcome:   "8fa2ae8350191b6002a72b33023e5b24b819b4f278f01a2cb6e5bd71474560aa",
		ack:       "1bfd1ddd614d6041165537f860b5796c8937b1d592a5b9109a3b1db83775cef5",
		versions:  []string{"1d392cd01e4bdeae70ba1f71f8b0421b685a85ea68423a8d1889b21ca02a91e9"},
	}, {
		name:      "atomic",
		prop:      atomic,
		reps:      objects,
		proposal:  "f8166227ea6494c5df0ffd157693de619fbaf412526079c000c73656ce439d57",
		decisions: [2]string{"8328daa9b3dcae6afc7c7e174097c54801b11787fa8e8583122102a9908783af", "8cba37fa61a49df0e2a5b3d4417b0cbb18c45bd0637e2fec8609f3ee312d5ed8"},
		outcome:   "76383ffb0ccec97d40adfe589440da6656d6ffa0e5125836eeb54a9c1a97fdae",
		ack:       "8b6c17bfea0e9abb793538ce791f89b6ff61b70abab01d9e8c6feaa3f669b793",
		versions: []string{
			"3637ce4f220dd2bed0eee2881045a45665474cb99888d16b6c2a8b5620db364f",
			"c433dc0c01b3064c9b95548feb8627cb117f2dc077580abc6e485b2362bb5abd",
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(what string, v any, want string) sig.Digest {
				t.Helper()
				got, err := sig.SumCanonical(v)
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != want {
					t.Errorf("%s digest %s, want %s", what, got, want)
				}
				return got
			}
			p := tc.prop
			pd := check("proposal", p, tc.proposal)
			out := Outcome{Run: p.Run, Object: p.Object, Proposer: a, ProposalDigest: pd, Agreed: true}
			for i, m := range []id.Party{b, c} {
				note := DecisionNote{Run: p.Run, Object: p.Object, Decider: m, ProposalDigest: pd, Accept: true}
				nd := check("decision note", &note, tc.decisions[i])
				out.Decisions = append(out.Decisions, SignedDecision{Note: note, Token: &evidence.Token{
					Kind: evidence.KindDecision, Run: p.Run, Step: stepPropose, Issuer: m, Recipients: []id.Party{a}, Digest: nd,
				}})
			}
			od := check("outcome", &out, tc.outcome)
			check("ack note", &AckNote{Run: p.Run, Object: p.Object, Member: b, OutcomeDigest: od, Applied: true}, tc.ack)
			ups := p.updates()
			if len(ups) != len(tc.versions) {
				t.Fatalf("%d updates, want %d", len(ups), len(tc.versions))
			}
			for i, u := range ups {
				check("version of "+u.Object, tc.reps[i].applyLocked(u, pd, a), tc.versions[i])
			}
		})
	}
}
