package sharing

import (
	"fmt"
	"sync"

	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// Version is one entry in a replica's agreed history. The chain digest
// binds each version to its predecessor and to the full proposal that
// produced it, so "there can be no dispute that a subsequent
// reconstruction of information state is a state previously agreed by the
// organisations who share the information" (section 3.4).
type Version struct {
	Number         uint64     `json:"number"`
	Run            id.Run     `json:"run"`
	Kind           ChangeKind `json:"kind"`
	ProposalDigest sig.Digest `json:"proposal_digest"`
	StateDigest    sig.Digest `json:"state_digest"`
	Member         id.Party   `json:"member,omitempty"`
	Chain          sig.Digest `json:"chain"`
}

// GenesisRun is the pseudo-run identifier of version 0.
const GenesisRun = id.Run("genesis")

// chainNext links a version's proposal digest into the history chain.
func chainNext(prev sig.Digest, proposalDigest sig.Digest) sig.Digest {
	return sig.SumPair(prev, proposalDigest)
}

// genesisVersion builds version 0 for an object's initial state.
func genesisVersion(stateDigest sig.Digest) Version {
	return Version{
		Number:      0,
		Run:         GenesisRun,
		Kind:        ChangeUpdate,
		StateDigest: stateDigest,
		Chain:       chainNext(sig.Digest{}, stateDigest),
	}
}

// VerifyHistory recomputes a version history's hash chain. The first
// version must be a genesis version; each successor must link correctly.
func VerifyHistory(versions []Version) error {
	if len(versions) == 0 {
		return fmt.Errorf("sharing: empty version history")
	}
	g := versions[0]
	if g.Number != 0 || g.Run != GenesisRun || g.Chain != chainNext(sig.Digest{}, g.StateDigest) {
		return fmt.Errorf("%w: bad genesis version", ErrEvidenceInvalid)
	}
	prev := g.Chain
	for i, v := range versions[1:] {
		if v.Number != uint64(i+1) {
			return fmt.Errorf("%w: version %d out of sequence", ErrEvidenceInvalid, v.Number)
		}
		if v.Chain != chainNext(prev, v.ProposalDigest) {
			return fmt.Errorf("%w: chain broken at version %d", ErrEvidenceInvalid, v.Number)
		}
		prev = v.Chain
	}
	return nil
}

// replica is one party's local copy of a shared object.
type replica struct {
	mu       sync.Mutex
	object   string
	group    []id.Party
	state    []byte
	staged   []byte // roll-up buffer (section 4.3)
	versions []Version
	detached bool

	// pendingRun serialises coordination: while a round that updates the
	// object is in flight, other proposals for it are refused.
	pendingRun id.Run
}

// newReplica creates a replica at genesis.
func newReplica(object string, state []byte, group []id.Party) *replica {
	stateCopy := append([]byte(nil), state...)
	return &replica{
		object:   object,
		group:    append([]id.Party(nil), group...),
		state:    stateCopy,
		versions: []Version{genesisVersion(sig.Sum(stateCopy))},
	}
}

// current returns the latest version.
func (r *replica) current() Version { return r.versions[len(r.versions)-1] }

// snapshotLocked copies state under the caller-held lock.
func (r *replica) snapshotLocked() []byte { return append([]byte(nil), r.state...) }

// proposal builds a single-object proposal of kind to state (and, for a
// membership change, member) against the replica's current version. The
// caller holds r.mu.
func (r *replica) proposal(kind ChangeKind, state []byte, member id.Party) *Proposal {
	cur := r.current()
	return &Proposal{
		Object:         r.object,
		Kind:           kind,
		BaseVersion:    cur.Number,
		BaseChain:      cur.Chain,
		NewStateDigest: sig.Sum(state),
		NewState:       append([]byte(nil), state...),
		Member:         member,
	}
}

// applyLocked appends the agreed version of update u, one update of the
// proposal with digest propDigest, and installs its state; a disconnect
// of self detaches the replica.
func (r *replica) applyLocked(u *Proposal, propDigest sig.Digest, self id.Party) Version {
	cur := r.current()
	v := Version{
		Number:         cur.Number + 1,
		Run:            u.Run,
		Kind:           u.Kind,
		ProposalDigest: propDigest,
		StateDigest:    u.NewStateDigest,
		Member:         u.Member,
		Chain:          chainNext(cur.Chain, propDigest),
	}
	r.versions = append(r.versions, v)
	r.state = append([]byte(nil), u.NewState...)
	switch u.Kind {
	case ChangeConnect:
		if !memberIn(r.group, u.Member) {
			r.group = append(r.group, u.Member)
		}
	case ChangeDisconnect:
		r.group = without(r.group, u.Member)
		if u.Member == self {
			r.detached = true
		}
	}
	return v
}

// lockAll acquires the replicas' locks in slice order; callers pass them
// sorted by object name, the one lock order.
func lockAll(reps []*replica) {
	for _, r := range reps {
		r.mu.Lock()
	}
}

// unlockAll releases in reverse order.
func unlockAll(reps []*replica) {
	for i := len(reps) - 1; i >= 0; i-- {
		reps[i].mu.Unlock()
	}
}
