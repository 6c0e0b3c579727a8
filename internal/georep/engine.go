package georep

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/obs"
	"nonrep/internal/store"
	"nonrep/internal/vault"
)

// Mode selects when an append counts as durable.
type Mode string

const (
	// ModeAsync replicates in the background: appends return as soon as
	// they are locally durable, replicas trail.
	ModeAsync Mode = "async"
	// ModeSync gates appends on quorum acknowledgement: an append
	// returns only once Quorum replicas durably hold the record.
	ModeSync Mode = "sync"
)

// Policy is one organisation's replication durability policy.
type Policy struct {
	// Mode selects sync (quorum-gated) or async (trailing) replication.
	Mode Mode
	// Quorum is the number of replicas (the source not counted) that
	// must durably hold a record before a sync-mode append returns.
	Quorum int
	// AckTimeout bounds how long a sync-mode append waits for quorum
	// before failing (default 30s). The record is locally durable either
	// way and replicates eventually; the error tells the caller quorum
	// durability was not confirmed in time.
	AckTimeout time.Duration
}

// ErrQuorumUnmet reports a sync-mode wait that timed out before enough
// replicas acknowledged. The record remains locally durable and keeps
// replicating in the background.
var ErrQuorumUnmet = errors.New("georep: quorum not reached")

// Target is a replica that takes tail pushes on top of sealed-segment
// shipping — the capability that earns an engine target a vote in the
// quorum arithmetic. protocol.GeoTarget implements it over the wire;
// tests implement it directly over a ReplicaSet. A target that is only
// a vault.ShipTarget (the Archive, a bare seg-ship peer) is ship-only:
// it receives sealed segments, is never sent Append and never counts
// toward Quorum.
type Target interface {
	// AckedSeq reports the highest record sequence of source's vault the
	// target durably holds (sealed or tail).
	AckedSeq(ctx context.Context, source string) (uint64, error)
	// Append pushes a chain-contiguous batch of records, returning the
	// target's new acknowledged sequence.
	Append(ctx context.Context, source string, recs []*store.Record) (uint64, error)
	vault.ShipTarget
}

// waiter is one blocked WaitQuorum call.
type waiter struct {
	seq uint64
	ch  chan struct{}
}

// targetState is the engine's view of one target.
type targetState struct {
	name string
	t    vault.ShipTarget
	// tail is t's tail-push capability, nil for a ship-only target.
	tail   Target
	notify chan struct{}

	// Guarded by Engine.mu.
	acked   uint64
	lastErr string
	// trusted reports that acked and sealedTo mirror the target's
	// durable state: the previous pass completed cleanly, so the next
	// one can skip the status round trips and push straight from the
	// cached watermarks. Any pass error clears it, and the next pass
	// re-discovers both watermarks from the target — the lost-ack
	// idempotence story is unchanged, it just stops taxing the steady
	// state.
	trusted  bool
	sealedTo uint64
}

// EngineOption tunes an Engine.
type EngineOption func(*Engine)

// WithObserver homes the engine's instruments — shipped segments, failed
// passes, lag and catch-up backlog — in the given telemetry scope. A nil
// scope leaves it uninstrumented.
func WithObserver(scope *obs.Scope) EngineOption {
	return func(e *Engine) {
		e.shippedC = scope.Counter(obs.MReplShippedTotal)
		e.errorsC = scope.Counter(obs.MReplErrorsTotal)
		e.lagG = scope.Gauge(obs.MReplLagSegments)
		e.backlogG = scope.Gauge(obs.MReplBacklogSegments)
	}
}

// asyncLinger is how long an async pump lingers after a commit wakes it
// before pushing, so a burst of appends coalesces into one replica round
// trip (and one replica fsync) instead of one per group commit. It
// bounds how far an async replica trails the source; sync pumps never
// linger — a gated append is waiting on them.
const asyncLinger = 50 * time.Millisecond

// retryInterval is how often a pump retries a target whose last pass
// failed, with no commit or seal to wake it.
const retryInterval = 5 * time.Second

// passTimeout bounds one background pass toward one target: a peer that
// accepts the connection and then says nothing costs its pump this long,
// not for ever. (Close cancels a pass at once; Flush runs under its
// caller's context.)
const passTimeout = 30 * time.Second

// Engine is the one shipping loop of an organisation's evidence plane:
// a pump per target ships every sealed segment the target lacks, in
// order, and — toward targets that take tail pushes — keeps the
// unsealed tail current, feeding the acknowledgement watermarks that
// WaitQuorum blocks on. Peer replicas and the object-store archive are
// both targets. Pumps react to vault commits and seals immediately and
// retry failures on a clock-driven interval, so a target that was down
// catches up without operator action.
type Engine struct {
	v      *vault.Vault
	source string
	policy Policy
	clk    clock.Clock
	every  time.Duration // retryInterval; engine tests retry faster

	// Telemetry instruments (nil and no-op without WithObserver).
	shippedC *obs.Counter
	errorsC  *obs.Counter
	lagG     *obs.Gauge
	backlogG *obs.Gauge

	mu      sync.Mutex
	targets []*targetState
	waiters []*waiter

	quit         chan struct{}
	wg           sync.WaitGroup
	cancelSeal   func()
	cancelCommit func()
	closeOnce    sync.Once
}

// NewEngine starts a policy engine replicating v (owned by source)
// according to policy. Add targets with AddTarget.
func NewEngine(v *vault.Vault, source string, policy Policy, clk clock.Clock, opts ...EngineOption) *Engine {
	if clk == nil {
		clk = clock.Real{}
	}
	if policy.Mode == "" {
		policy.Mode = ModeAsync
	}
	if policy.AckTimeout <= 0 {
		policy.AckTimeout = 30 * time.Second
	}
	e := &Engine{
		v:      v,
		source: source,
		policy: policy,
		clk:    clk,
		every:  retryInterval,
		quit:   make(chan struct{}),
	}
	for _, opt := range opts {
		opt(e)
	}
	// A commit moves only the tail, which ship-only targets never see.
	e.cancelCommit = v.OnCommit(func([]*store.Record) { e.nudge(true) })
	e.cancelSeal = v.OnSeal(func(vault.ManifestEntry) { e.nudge(false) })
	return e
}

// Policy returns the engine's replication policy.
func (e *Engine) Policy() Policy { return e.policy }

// AddTarget registers a target under a name unique within the engine
// and starts its pump. A t that also implements Target additionally
// gets tail pushes and a vote in the quorum; any other is ship-only.
func (e *Engine) AddTarget(name string, t vault.ShipTarget) {
	st := &targetState{name: name, t: t, notify: make(chan struct{}, 1)}
	st.tail, _ = t.(Target)
	e.mu.Lock()
	e.targets = append(e.targets, st)
	// Kept sorted by name: the order Flush visits and Status reports.
	sort.Slice(e.targets, func(i, j int) bool { return e.targets[i].name < e.targets[j].name })
	e.mu.Unlock()
	e.wg.Add(1)
	go e.pump(st)
	st.notify <- struct{}{}
}

// snapshot copies the target list.
func (e *Engine) snapshot() []*targetState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*targetState(nil), e.targets...)
}

// nudge wakes the pumps without blocking — only those of tail-taking
// targets when tailOnly.
func (e *Engine) nudge(tailOnly bool) {
	for _, st := range e.snapshot() {
		if tailOnly && st.tail == nil {
			continue
		}
		select {
		case st.notify <- struct{}{}:
		default:
		}
	}
}

// passContext bounds one background pass by the pass timeout AND by
// Close, so an in-flight push to an unreachable peer cannot hold
// shutdown hostage.
func (e *Engine) passContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	go func() {
		select {
		case <-e.quit:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// pump is one target's loop: every vault seal (and, for a tail-taking
// target, every commit) — and, as a retry net, every interval —
// triggers one catch-up pass toward the target. An async tail pump
// lingers briefly after the wake so a burst of commits coalesces into
// one push; a sync pump passes immediately — gated appends are blocked
// on its acknowledgements — and so does a ship-only one, woken once per
// seal.
func (e *Engine) pump(st *targetState) {
	defer e.wg.Done()
	linger := st.tail != nil && e.policy.Quorum <= 0
	for {
		t := clock.NewTimer(e.clk, e.every)
		select {
		case <-st.notify:
			t.Stop()
			if linger {
				lt := clock.NewTimer(e.clk, asyncLinger)
				select {
				case <-lt.C():
				case <-e.quit:
					lt.Stop()
					return
				}
				// Absorb wakes that arrived while lingering: the pass
				// below covers them.
				select {
				case <-st.notify:
				default:
				}
			}
		case <-t.C():
		case <-e.quit:
			t.Stop()
			return
		}
		ctx, cancel := e.passContext()
		_ = e.pass(ctx, st) // kept in the target's status; retried on the interval
		cancel()
	}
}

// ShipSealed ships v's sealed segments beyond from to t, in order, and
// returns t's new watermark (progress made before an error included) —
// the one shipping step behind the pumps, Flush and catch-up of vaults
// that have no engine (ttpd's hosted replica directories). At most one
// package is in memory at a time.
func ShipSealed(ctx context.Context, v *vault.Vault, source string, t vault.ShipTarget, from uint64) (uint64, error) {
	for _, entry := range v.Manifest() {
		if entry.Segment <= from {
			continue
		}
		pkg, err := v.Package(entry.Segment)
		if err != nil {
			return from, fmt.Errorf("georep: package segment %d of %s: %w", entry.Segment, source, err)
		}
		if err := t.Ship(ctx, source, pkg); err != nil {
			return from, fmt.Errorf("georep: ship segment %d of %s: %w", entry.Segment, source, err)
		}
		from = entry.Segment
	}
	return from, nil
}

// syncTarget performs one catch-up pass toward a target — up to the seal
// chain head and record sequence the vault stood at when the pass began
// — and returns the watermarks it reached: ship sealed segments it lacks (segment-major,
// cheapest for deep backlogs), then — tail-taking targets only — push
// the unsealed tail. After a clean pass the target's watermarks are
// trusted mirrors, so the steady state pays one wire round trip per push
// — or none at all when the target is current — instead of
// re-interrogating its status every pass; any error drops back to full
// re-discovery.
func (e *Engine) syncTarget(ctx context.Context, st *targetState, head, localSeq uint64) (acked, sealedTo uint64, err error) {
	e.mu.Lock()
	trusted := st.trusted
	acked, sealedTo = st.acked, st.sealedTo
	e.mu.Unlock()
	if trusted && sealedTo >= head && (st.tail == nil || acked >= localSeq) {
		return acked, sealedTo, nil
	}
	if !trusted {
		to, err := st.t.LastSealed(ctx, e.source)
		if err != nil {
			return acked, sealedTo, fmt.Errorf("georep: %s status: %w", st.name, err)
		}
		sealedTo = to
	}
	shipped := false
	if head > sealedTo {
		to, err := ShipSealed(ctx, e.v, e.source, st.t, sealedTo)
		e.shippedC.Add(int64(to - sealedTo))
		shipped, sealedTo = to > sealedTo, to
		if err != nil {
			return acked, sealedTo, fmt.Errorf("%w (target %s)", err, st.name)
		}
	}
	if st.tail == nil {
		return acked, sealedTo, nil
	}
	// A shipped segment moves the replica's watermark (its tail rebases
	// onto the seal), so the cached mirror is stale after any ship —
	// re-read it then, and whenever the cache was not trustworthy.
	if !trusted || shipped {
		if acked, err = st.tail.AckedSeq(ctx, e.source); err != nil {
			return acked, sealedTo, fmt.Errorf("georep: %s status: %w", st.name, err)
		}
	}
	if localSeq > acked {
		recs, err := e.v.QueryAll(vault.Query{AfterSeq: acked})
		if err != nil {
			return acked, sealedTo, fmt.Errorf("georep: read tail after %d: %w", acked, err)
		}
		if len(recs) > 0 {
			to, err := st.tail.Append(ctx, e.source, recs)
			if err != nil {
				return acked, sealedTo, fmt.Errorf("georep: push %d records to %s: %w", len(recs), st.name, err)
			}
			acked = to
		}
	}
	return acked, sealedTo, nil
}

// pass runs one catch-up pass toward st and folds its outcome into the
// target's watermarks and status, the instruments and the quorum: a
// clean pass marks the watermarks trusted for the fast path and wakes
// every waiter the new quorum covers. A target that cannot be shipped
// to is not silent — evidence that quietly never reaches its replicas
// is exactly the loss replication exists to prevent — so a failure is
// logged when it first appears or changes, and recovery once.
func (e *Engine) pass(ctx context.Context, st *targetState) error {
	stats := e.v.Stats()
	// Segments are numbered sequentially from 1: the count is the head.
	head := uint64(stats.Segments)
	acked, sealedTo, err := e.syncTarget(ctx, st, head, stats.LastSeq)

	e.mu.Lock()
	st.acked, st.sealedTo = max(st.acked, acked), max(st.sealedTo, sealedTo)
	st.trusted = err == nil
	was := st.lastErr
	st.lastErr = ""
	if err != nil {
		st.lastErr = err.Error()
	}
	// Lag is the worst target's distance behind the seal chain head;
	// backlog is the catch-up work left across targets.
	var lag, backlog uint64
	for _, t := range e.targets {
		if t.sealedTo < head {
			backlog += head - t.sealedTo
			lag = max(lag, head-t.sealedTo)
		}
	}
	q := e.quorumSeqLocked()
	kept := e.waiters[:0]
	for _, w := range e.waiters {
		if w.seq <= q {
			close(w.ch)
			continue
		}
		kept = append(kept, w)
	}
	e.waiters = kept
	e.mu.Unlock()

	e.lagG.Set(int64(lag))
	e.backlogG.Set(int64(backlog))
	switch {
	case err != nil:
		e.errorsC.Inc()
		// A cancelled pass (Close, or the caller of Flush giving up) is
		// not a stall.
		if err.Error() != was && ctx.Err() != context.Canceled {
			log.Printf("georep: replication of %s to %s STALLED (will retry every %s): %v", e.source, st.name, e.every, err)
		}
	case was != "":
		log.Printf("georep: replication of %s to %s recovered", e.source, st.name)
	}
	return err
}

// quorumSeqLocked is the highest sequence at least Quorum voting
// (tail-taking) targets have acknowledged — the Quorum-th highest
// watermark (0 when fewer voters than the quorum exist).
func (e *Engine) quorumSeqLocked() uint64 {
	n := e.policy.Quorum
	if n <= 0 {
		return 0
	}
	acks := make([]uint64, 0, len(e.targets))
	for _, st := range e.targets {
		if st.tail != nil {
			acks = append(acks, st.acked)
		}
	}
	if len(acks) < n {
		return 0
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
	return acks[n-1]
}

// QuorumSeq reports the highest record sequence the configured quorum
// of replicas durably holds.
func (e *Engine) QuorumSeq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.quorumSeqLocked()
}

// WaitQuorum blocks until Quorum replicas acknowledge holding seq, the
// policy's AckTimeout elapses (ErrQuorumUnmet), ctx is cancelled, or
// the engine closes. Under an async policy it returns immediately —
// async durability is local durability.
func (e *Engine) WaitQuorum(ctx context.Context, seq uint64) error {
	if e.policy.Mode != ModeSync || e.policy.Quorum <= 0 {
		return nil
	}
	e.mu.Lock()
	if e.quorumSeqLocked() >= seq {
		e.mu.Unlock()
		return nil
	}
	w := &waiter{seq: seq, ch: make(chan struct{})}
	e.waiters = append(e.waiters, w)
	e.mu.Unlock()
	t := clock.NewTimer(e.clk, e.policy.AckTimeout)
	defer t.Stop()
	select {
	case <-w.ch:
		return nil
	case <-t.C():
		e.dropWaiter(w)
		return fmt.Errorf("%w: record %d not acknowledged by %d replicas within %s",
			ErrQuorumUnmet, seq, e.policy.Quorum, e.policy.AckTimeout)
	case <-ctx.Done():
		e.dropWaiter(w)
		return ctx.Err()
	case <-e.quit:
		e.dropWaiter(w)
		return errors.New("georep: engine closed")
	}
}

func (e *Engine) dropWaiter(w *waiter) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, x := range e.waiters {
		if x == w {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			return
		}
	}
}

// TargetStatus is one target's health as the engine sees it.
type TargetStatus struct {
	Name string `json:"name"`
	// AckedSeq is the target's acknowledged record watermark (0 for a
	// ship-only target, which acknowledges segments, not records).
	AckedSeq uint64 `json:"acked_seq"`
	// LastError is the most recent pass's failure ("" when healthy).
	LastError string `json:"last_error,omitempty"`
}

// Status is a point-in-time view of the engine — what Org.Durability
// and /healthz surface.
type Status struct {
	Mode      Mode   `json:"mode"`
	Quorum    int    `json:"quorum"`
	LocalSeq  uint64 `json:"local_seq"`
	QuorumSeq uint64 `json:"quorum_seq"`
	// Targets is sorted by name; the archive target reports through
	// ArchivedSegments and ArchiveError instead.
	Targets          []TargetStatus `json:"targets,omitempty"`
	ArchivedSegments uint64         `json:"archived_segments"`
	ArchiveError     string         `json:"archive_error,omitempty"`
}

// Status reports the engine's current state.
func (e *Engine) Status() Status {
	localSeq, _ := e.v.LastPosition()
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Status{
		Mode:      e.policy.Mode,
		Quorum:    e.policy.Quorum,
		LocalSeq:  localSeq,
		QuorumSeq: e.quorumSeqLocked(),
	}
	for _, st := range e.targets {
		if _, ok := st.t.(*Archive); ok {
			s.ArchivedSegments, s.ArchiveError = st.sealedTo, st.lastErr
			continue
		}
		s.Targets = append(s.Targets, TargetStatus{Name: st.name, AckedSeq: st.acked, LastError: st.lastErr})
	}
	return s
}

// Flush performs one synchronous pass over every target — the
// deterministic "everything replicated and archived" point tests and
// planned shutdowns want. It returns the first error after attempting
// everything.
func (e *Engine) Flush(ctx context.Context) error {
	var firstErr error
	for _, st := range e.snapshot() {
		if err := e.pass(ctx, st); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close stops the pumps and detaches the vault hooks. Waiters unblock
// with an error; records already appended keep their local durability.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.cancelCommit()
		e.cancelSeal()
		close(e.quit)
	})
	e.wg.Wait()
	return nil
}
