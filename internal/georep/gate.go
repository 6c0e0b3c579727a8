package georep

import (
	"context"
	"sync/atomic"

	"nonrep/internal/evidence"
	"nonrep/internal/store"
	"nonrep/internal/vault"
)

// GatedLog makes a vault's Append observe the replication durability
// policy: under a sync policy, Append returns only once the quorum of
// replicas acknowledges the record. It embeds the vault, so everything
// else — queries, verification, the Log interface — passes straight
// through, and code that needs the raw vault unwraps it with Vault().
//
// The engine attaches after construction (Attach): the log must exist
// before the protocol node that will carry the engine's pushes does,
// and until an engine is attached appends gate on nothing.
type GatedLog struct {
	*vault.Vault
	eng atomic.Pointer[Engine]
}

// NewGatedLog wraps v. Attach an engine to start gating.
func NewGatedLog(v *vault.Vault) *GatedLog {
	return &GatedLog{Vault: v}
}

// Attach sets the engine whose policy gates appends.
func (g *GatedLog) Attach(e *Engine) { g.eng.Store(e) }

// Unwrap returns the underlying vault — for code that type-switches a
// store.Log looking for vault capabilities.
func (g *GatedLog) Unwrap() *vault.Vault { return g.Vault }

// Append appends to the vault and then, under a sync policy, waits for
// quorum acknowledgement. On ErrQuorumUnmet the record is returned
// alongside the error: it is locally durable and keeps replicating,
// but quorum durability was not confirmed within the policy's
// AckTimeout.
func (g *GatedLog) Append(dir store.Direction, tok *evidence.Token, note string) (*store.Record, error) {
	rec, err := g.Vault.Append(dir, tok, note)
	if err != nil {
		return nil, err
	}
	return rec, g.waitQuorum(rec.Seq)
}

// AppendGroup is the vault's group append under the same contract: one
// local commit, then one quorum wait on the group's last sequence
// number (replicas acknowledge prefixes, so it covers every member).
// Without it the embedded vault's method would be promoted and a group
// would return before the policy's quorum held it. On ErrQuorumUnmet
// the records are returned alongside the error, as for Append.
func (g *GatedLog) AppendGroup(entries []store.Entry) ([]*store.Record, error) {
	recs, err := g.Vault.AppendGroup(entries)
	if err != nil || len(recs) == 0 {
		return nil, err
	}
	return recs, g.waitQuorum(recs[len(recs)-1].Seq)
}

// waitQuorum blocks until the attached engine's policy holds seq.
func (g *GatedLog) waitQuorum(seq uint64) error {
	if e := g.eng.Load(); e != nil {
		return e.WaitQuorum(context.Background(), seq)
	}
	return nil
}
