package georep_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nonrep/internal/blob"
	"nonrep/internal/evidence"
	"nonrep/internal/georep"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
	"nonrep/internal/vault"
)

// memTarget implements georep.Target directly over a ReplicaSet, with
// fault injection: down targets refuse everything, partitioned targets
// apply the write but lose the acknowledgement, slow targets delay.
type memTarget struct {
	rs *vault.ReplicaSet

	mu        sync.Mutex
	down      bool
	partition bool
	delay     time.Duration
}

func newMemTarget(t testing.TB) *memTarget {
	t.Helper()
	rs, err := vault.OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return &memTarget{rs: rs}
}

func (m *memTarget) set(fn func(*memTarget)) {
	m.mu.Lock()
	fn(m)
	m.mu.Unlock()
}

// gate applies the configured faults before (down, delay) and after
// (partition) the underlying operation.
func (m *memTarget) gate(ctx context.Context) error {
	m.mu.Lock()
	down, delay := m.down, m.delay
	m.mu.Unlock()
	if down {
		return errors.New("target down")
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (m *memTarget) partitioned() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.partition {
		return errors.New("ack lost in partition")
	}
	return nil
}

func (m *memTarget) AckedSeq(ctx context.Context, source string) (uint64, error) {
	if err := m.gate(ctx); err != nil {
		return 0, err
	}
	return m.rs.AckedSeq(source)
}

func (m *memTarget) Append(ctx context.Context, source string, recs []*store.Record) (uint64, error) {
	if err := m.gate(ctx); err != nil {
		return 0, err
	}
	acked, err := m.rs.ReceiveTail(source, recs)
	if err != nil {
		return 0, err
	}
	// A partition after the write: the replica durably holds the
	// records but the acknowledgement never arrives.
	if perr := m.partitioned(); perr != nil {
		return 0, perr
	}
	return acked, nil
}

func (m *memTarget) LastSealed(ctx context.Context, source string) (uint64, error) {
	if err := m.gate(ctx); err != nil {
		return 0, err
	}
	return m.rs.LastSealed(source)
}

func (m *memTarget) Ship(ctx context.Context, source string, pkg *vault.SegmentPackage) error {
	if err := m.gate(ctx); err != nil {
		return err
	}
	return m.rs.Receive(source, pkg)
}

// syncEngine wires a sync N-of-M engine with a fast retry cadence over
// fresh mem targets, returning the gated log appends should go through.
func syncEngine(t testing.TB, v *vault.Vault, quorum, replicas int, ackTimeout time.Duration) (*georep.GatedLog, *georep.Engine, []*memTarget) {
	t.Helper()
	gated := georep.NewGatedLog(v)
	eng := georep.NewEngine(v, string(srcOrg), georep.Policy{
		Mode:       georep.ModeSync,
		Quorum:     quorum,
		AckTimeout: ackTimeout,
	}, nil, georep.WithRetryInterval(10*time.Millisecond))
	t.Cleanup(func() { _ = eng.Close() })
	targets := make([]*memTarget, replicas)
	for i := range targets {
		targets[i] = newMemTarget(t)
		eng.AddTarget(fmt.Sprintf("replica-%d", i), targets[i])
	}
	gated.Attach(eng)
	return gated, eng, targets
}

// gatedAppend appends one signed record through the gated log.
func gatedAppend(t testing.TB, g *georep.GatedLog, issue func(step int) *evidence.Token, step int) (*store.Record, error) {
	t.Helper()
	return g.Append(store.Generated, issue(step), "sent")
}

// TestEngineSyncQuorumFaultMatrix drives a sync 2-of-3 policy through
// the replica-failure matrix: all up, one down, quorum broken (two
// down), then recovery.
func TestEngineSyncQuorumFaultMatrix(t *testing.T) {
	t.Parallel()
	realm, v := newSourceVault(t, 100)
	g, eng, targets := syncEngine(t, v, 2, 3, 400*time.Millisecond)
	run := id.NewRun()
	step := 0
	issue := func(s int) *evidence.Token {
		tok, err := realm.Party(srcOrg).Issuer.Issue(evidence.KindNRO, run, s, sig.Sum([]byte{byte(s)}))
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}

	// All replicas up: the append returns quorum-durable.
	step++
	rec, err := gatedAppend(t, g, issue, step)
	if err != nil {
		t.Fatalf("append with all replicas up: %v", err)
	}
	if q := eng.QuorumSeq(); q < rec.Seq {
		t.Fatalf("QuorumSeq = %d after acked append of %d", q, rec.Seq)
	}

	// One replica down: 2-of-3 still holds.
	targets[0].set(func(m *memTarget) { m.down = true })
	step++
	if _, err := gatedAppend(t, g, issue, step); err != nil {
		t.Fatalf("append with one replica down: %v", err)
	}

	// Two replicas down (one short of quorum): the append is locally
	// durable but quorum confirmation fails within the AckTimeout.
	targets[1].set(func(m *memTarget) { m.down = true })
	step++
	rec, err = gatedAppend(t, g, issue, step)
	if !errors.Is(err, georep.ErrQuorumUnmet) {
		t.Fatalf("append under broken quorum: err = %v, want ErrQuorumUnmet", err)
	}
	if rec == nil {
		t.Fatal("quorum-unmet append lost the locally durable record")
	}
	if got, _ := v.LastPosition(); got != rec.Seq {
		t.Fatalf("local durability: LastPosition = %d, want %d", got, rec.Seq)
	}

	// Recovery: the downed replicas return and the backlog drains
	// without new traffic.
	targets[0].set(func(m *memTarget) { m.down = false })
	targets[1].set(func(m *memTarget) { m.down = false })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := eng.Flush(ctx); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	if q := eng.QuorumSeq(); q != rec.Seq {
		t.Fatalf("QuorumSeq after recovery = %d, want %d", q, rec.Seq)
	}
	st := eng.Status()
	if st.Mode != georep.ModeSync || st.Quorum != 2 || st.LocalSeq != rec.Seq {
		t.Fatalf("Status = %+v", st)
	}
	for _, ts := range st.Targets {
		if ts.AckedSeq != rec.Seq || ts.LastError != "" {
			t.Fatalf("target %s did not converge: %+v", ts.Name, ts)
		}
	}
	// Every replica independently verifies as a read-only vault.
	for i, m := range targets {
		replica, err := vault.Open(m.rs.Dir(string(srcOrg)), realm.Clock, vault.WithReadOnly())
		if err != nil {
			t.Fatalf("replica %d open: %v", i, err)
		}
		if err := replica.DeepVerify(); err != nil {
			t.Fatalf("replica %d DeepVerify: %v", i, err)
		}
		replica.Close()
	}
}

// TestEnginePartitionDuringAck loses the acknowledgement of a write the
// replica durably applied: the retry pass must discover the true
// watermark from the replica instead of re-counting or losing it.
func TestEnginePartitionDuringAck(t *testing.T) {
	t.Parallel()
	realm, v := newSourceVault(t, 100)
	g, eng, targets := syncEngine(t, v, 1, 1, 2*time.Second)
	targets[0].set(func(m *memTarget) { m.partition = true })
	run := id.NewRun()
	issue := func(s int) *evidence.Token {
		tok, err := realm.Party(srcOrg).Issuer.Issue(evidence.KindNRO, run, s, sig.Sum([]byte{byte(s)}))
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}

	// Heal the partition shortly after the append starts waiting; the
	// write itself landed on the first (partitioned) push, so the healed
	// retry's AckedSeq query discovers it and releases the waiter — the
	// record is pushed exactly once.
	go func() {
		time.Sleep(50 * time.Millisecond)
		targets[0].set(func(m *memTarget) { m.partition = false })
	}()
	rec, err := gatedAppend(t, g, issue, 1)
	if err != nil {
		t.Fatalf("append across healed partition: %v", err)
	}
	if got, err := targets[0].rs.AckedSeq(string(srcOrg)); err != nil || got != rec.Seq {
		t.Fatalf("replica AckedSeq = %d, %v; want %d", got, err, rec.Seq)
	}
	if q := eng.QuorumSeq(); q != rec.Seq {
		t.Fatalf("QuorumSeq = %d, want %d", q, rec.Seq)
	}
}

// TestEngineSlowReplicaUnderSync checks a slow quorum member delays but
// does not fail a sync append, as long as it beats the AckTimeout.
func TestEngineSlowReplicaUnderSync(t *testing.T) {
	t.Parallel()
	realm, v := newSourceVault(t, 100)
	g, _, targets := syncEngine(t, v, 2, 2, 5*time.Second)
	targets[1].set(func(m *memTarget) { m.delay = 40 * time.Millisecond })
	run := id.NewRun()
	tok, err := realm.Party(srcOrg).Issuer.Issue(evidence.KindNRO, run, 1, sig.Sum([]byte("slow")))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := g.Append(store.Generated, tok, "sent"); err != nil {
		t.Fatalf("append behind slow replica: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("append returned in %v — did not wait for the slow quorum member", elapsed)
	}
}

// TestEngineAsyncTrailing checks the async policy never gates appends —
// even with every replica down — and that replicas converge once
// reachable.
func TestEngineAsyncTrailing(t *testing.T) {
	t.Parallel()
	realm, v := newSourceVault(t, 4)
	gated := georep.NewGatedLog(v)
	eng := georep.NewEngine(v, string(srcOrg), georep.Policy{Mode: georep.ModeAsync},
		nil, georep.WithRetryInterval(10*time.Millisecond))
	defer eng.Close()
	m := newMemTarget(t)
	m.set(func(m *memTarget) { m.down = true })
	eng.AddTarget("replica-0", m)
	gated.Attach(eng)

	run := id.NewRun()
	for i := 1; i <= 9; i++ {
		tok, err := realm.Party(srcOrg).Issuer.Issue(evidence.KindNRO, run, i, sig.Sum([]byte{byte(i)}))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := gated.Append(store.Generated, tok, "sent"); err != nil {
			t.Fatalf("async append %d: %v", i, err)
		}
		if time.Since(start) > time.Second {
			t.Fatal("async append blocked on a down replica")
		}
	}
	// The outage is visible in status.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := eng.Status()
		if len(st.Targets) == 1 && st.Targets[0].LastError != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("down replica never surfaced in Status: %+v", eng.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Back up: the trailing replica catches up on sealed history AND
	// tail without further appends.
	m.set(func(m *memTarget) { m.down = false })
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	localSeq, _ := v.LastPosition()
	if got, err := m.rs.AckedSeq(string(srcOrg)); err != nil || got != localSeq {
		t.Fatalf("replica AckedSeq = %d, %v; want %d", got, err, localSeq)
	}
	if sealed, err := m.rs.LastSealed(string(srcOrg)); err != nil || sealed != uint64(len(v.Manifest())) {
		t.Fatalf("replica LastSealed = %d, %v; want %d", sealed, err, len(v.Manifest()))
	}
}

// TestEngineFillsReplicaAndResumesAfterRestart: an async engine fills a
// replica from a live source, tail pushes and sealed segments both, and
// an engine started over the same source after a restart resumes from
// the replica's verified position. The replica then opens as a vault
// that deep-verifies at the source's length.
func TestEngineFillsReplicaAndResumesAfterRestart(t *testing.T) {
	t.Parallel()
	realm, v := newSourceVault(t, 4)
	m := newMemTarget(t)
	start := func() *georep.Engine {
		eng := georep.NewEngine(v, string(srcOrg), georep.Policy{Mode: georep.ModeAsync}, nil)
		eng.AddTarget("replica", m)
		return eng
	}
	caughtUp := func(eng *georep.Engine) {
		t.Helper()
		if err := eng.Flush(context.Background()); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		localSeq, _ := v.LastPosition()
		if got, err := m.rs.AckedSeq(string(srcOrg)); err != nil || got != localSeq {
			t.Fatalf("replica AckedSeq = %d, %v; want %d", got, err, localSeq)
		}
		if sealed, err := m.rs.LastSealed(string(srcOrg)); err != nil || sealed != uint64(len(v.Manifest())) {
			t.Fatalf("replica LastSealed = %d, %v; want %d", sealed, err, len(v.Manifest()))
		}
	}

	eng := start()
	appendRecords(t, realm, v, 10) // two sealed segments and a tail
	caughtUp(eng)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// While no engine runs the source seals another segment.
	appendRecords(t, realm, v, 3)
	if got, err := m.rs.AckedSeq(string(srcOrg)); err != nil || got != 10 {
		t.Fatalf("replica moved without an engine: AckedSeq = %d, %v", got, err)
	}
	eng = start()
	defer eng.Close()
	caughtUp(eng)

	replica, err := vault.Open(m.rs.Dir(string(srcOrg)), realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if got := replica.Len(); got != v.Len() {
		t.Fatalf("replica Len = %d, want %d", got, v.Len())
	}
	if err := replica.DeepVerify(); err != nil {
		t.Fatalf("replica DeepVerify: %v", err)
	}
}

// TestEngineArchiveTiering checks sealed segments tier into the object
// store as they seal, that archive outages surface in status and heal,
// and that a wiped primary restores from the archive the engine wrote.
func TestEngineArchiveTiering(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	realm, v := newSourceVault(t, 4)
	mem := blob.NewMem()
	arch := georep.NewArchive(mem)
	eng := georep.NewEngine(v, string(srcOrg), georep.Policy{Mode: georep.ModeAsync},
		nil, georep.WithRetryInterval(10*time.Millisecond))
	defer eng.Close()
	eng.AddTarget("archive", arch)

	appendRecords(t, realm, v, 9) // seals segments 1 and 2
	if err := eng.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if st := eng.Status(); st.ArchivedSegments != 2 || st.ArchiveError != "" || len(st.Targets) != 0 {
		t.Fatalf("Status after archival = %+v", st)
	}

	// Outage: the store refuses puts; the next seal cannot archive and
	// the error surfaces, but earlier archives stay intact.
	mem.SetFault(func(op blob.Op, key string) error {
		if op == blob.OpPut {
			return errors.New("store offline")
		}
		return nil
	})
	appendRecords(t, realm, v, 4) // seals segment 3
	if err := eng.Flush(ctx); err == nil {
		t.Fatal("Flush with the store offline succeeded")
	}
	if st := eng.Status(); st.ArchiveError == "" || st.ArchivedSegments != 2 {
		t.Fatalf("Status during outage = %+v", st)
	}

	// Heal: the retry pass archives the backlog.
	mem.SetFault(nil)
	if err := eng.Flush(ctx); err != nil {
		t.Fatalf("Flush after heal: %v", err)
	}
	if st := eng.Status(); st.ArchivedSegments != 3 || st.ArchiveError != "" {
		t.Fatalf("Status after heal = %+v", st)
	}

	// Region loss: rebuild a fresh directory purely from the archive.
	dir := filepath.Join(t.TempDir(), "rebuilt")
	if _, err := arch.RestoreInto(ctx, dir, string(srcOrg)); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := vault.Open(dir, realm.Clock)
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Close()
	if err := rebuilt.DeepVerify(); err != nil {
		t.Fatalf("rebuilt DeepVerify: %v", err)
	}
	if got, want := rebuilt.Len(), 12; got != want {
		t.Fatalf("rebuilt Len = %d, want %d (sealed records)", got, want)
	}
}

// shipTarget is a ship-only target over a ReplicaSet — it implements
// vault.ShipTarget and nothing else — with deterministic fault
// injection.
type shipTarget struct {
	rs *vault.ReplicaSet

	mu        sync.Mutex
	shipCalls int
	failShips int // fail the first N ships
	shipped   chan struct{}
}

func (tgt *shipTarget) LastSealed(_ context.Context, source string) (uint64, error) {
	return tgt.rs.LastSealed(source)
}

func (tgt *shipTarget) Ship(_ context.Context, source string, pkg *vault.SegmentPackage) error {
	tgt.mu.Lock()
	tgt.shipCalls++
	fail := tgt.shipCalls <= tgt.failShips
	tgt.mu.Unlock()
	if fail {
		return fmt.Errorf("injected ship failure %d", tgt.shipCalls)
	}
	if err := tgt.rs.Receive(source, pkg); err != nil {
		return err
	}
	if tgt.shipped != nil {
		select {
		case tgt.shipped <- struct{}{}:
		default:
		}
	}
	return nil
}

func (tgt *shipTarget) calls() int {
	tgt.mu.Lock()
	defer tgt.mu.Unlock()
	return tgt.shipCalls
}

func newShipTarget(t testing.TB) *shipTarget {
	t.Helper()
	rs, err := vault.OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return &shipTarget{rs: rs}
}

// waitSealed polls until rs holds want sealed segments of srcOrg.
func waitSealed(t testing.TB, rs *vault.ReplicaSet, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		last, err := rs.LastSealed(string(srcOrg))
		if err != nil {
			t.Fatal(err)
		}
		if last == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("target at segment %d, want %d", last, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineKillAndReopenMidTransfer interrupts shipping part way
// through — the source "crashes" with only a prefix shipped — and checks
// that an engine over the reopened source catches the target up exactly,
// then keeps shipping as new segments seal.
func TestEngineKillAndReopenMidTransfer(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(srcOrg)
	dir := t.TempDir()
	v, err := vault.Open(dir, realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	appendRecords(t, realm, v, 12) // 3 sealed segments
	tgt := newShipTarget(t)
	// Mid-transfer: only segment 1 made it out before the crash.
	pkg, err := v.Package(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.rs.Receive(string(srcOrg), pkg); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil { // kill
		t.Fatal(err)
	}

	v2, err := vault.Open(dir, realm.Clock, vault.WithSegmentRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	eng := georep.NewEngine(v2, string(srcOrg), georep.Policy{}, nil)
	defer eng.Close()
	eng.AddTarget("peer", tgt)
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after reopen: %v", err)
	}
	waitSealed(t, tgt.rs, 3)
	// And new seals after the reopen flow through the seal hook.
	appendRecords(t, realm, v2, 4)
	waitSealed(t, tgt.rs, 4)
}

// TestEngineRetryOnFakeClock proves the retry path is driven by the
// engine's clock, not wall-clock sleeps: a target that fails its first
// ship is retried only when the manual clock crosses the retry interval.
func TestEngineRetryOnFakeClock(t *testing.T) {
	t.Parallel()
	realm, v := newSourceVault(t, 4)
	appendRecords(t, realm, v, 4) // 1 sealed segment
	tgt := newShipTarget(t)
	tgt.failShips, tgt.shipped = 1, make(chan struct{}, 1)
	eng := georep.NewEngine(v, string(srcOrg), georep.Policy{}, realm.Clock, georep.WithRetryInterval(10*time.Second))
	defer eng.Close()
	eng.AddTarget("peer", tgt)

	// The AddTarget wake triggers the first (failing) pass; wait until
	// the failure has actually been consumed.
	deadline := time.Now().Add(5 * time.Second)
	for tgt.calls() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first ship attempt never happened")
		}
		time.Sleep(time.Millisecond)
	}
	if last, _ := tgt.rs.LastSealed(string(srcOrg)); last != 0 {
		t.Fatalf("target advanced to %d despite injected failure", last)
	}
	// The failed pass is in the status before the retry timer is armed;
	// advancing before that would leave the timer a full interval away.
	for eng.Status().Targets[0].LastError == "" {
		if time.Now().After(deadline) {
			t.Fatal("failed pass never surfaced in Status")
		}
		time.Sleep(time.Millisecond)
	}
	// Crossing the retry interval on the manual clock retries the
	// target; each advance fires whichever retry timer is armed by then.
	for retried := false; !retried; {
		realm.Clock.Advance(11 * time.Second)
		select {
		case <-tgt.shipped:
			retried = true
		case <-time.After(20 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("clock-driven retry never shipped the segment")
			}
		}
	}
	if last, _ := tgt.rs.LastSealed(string(srcOrg)); last != 1 {
		t.Fatalf("target at %d after retry, want 1", last)
	}
	// The target signals from inside Ship, before the engine records the
	// pass's success: wait for the status to catch up.
	for st := eng.Status(); st.Targets[0].LastError != ""; st = eng.Status() {
		if time.Now().After(deadline) {
			t.Fatalf("target still failing after retry: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineShipOnlyTargetHasNoVote runs a ship-only target and a
// failing archive beside two voting peers under a 2-of-2 policy: sealed
// segments reach the ship-only target, it is never sent Append, it never
// unblocks a waiter, and the archive outage does not fail a gated
// append.
func TestEngineShipOnlyTargetHasNoVote(t *testing.T) {
	t.Parallel()
	realm, v := newSourceVault(t, 4)
	g, eng, targets := syncEngine(t, v, 2, 2, 300*time.Millisecond)
	only := newShipTarget(t)
	eng.AddTarget("ship-only", only)
	mem := blob.NewMem()
	mem.SetFault(func(op blob.Op, _ string) error {
		if op == blob.OpPut {
			return errors.New("store offline")
		}
		return nil
	})
	eng.AddTarget("archive", georep.NewArchive(mem))
	run := id.NewRun()
	issue := func(s int) *evidence.Token {
		tok, err := realm.Party(srcOrg).Issuer.Issue(evidence.KindNRO, run, s, sig.Sum([]byte{byte(s)}))
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}

	// Five gated appends seal segment 1 and leave a one-record tail.
	var last *store.Record
	for step := 1; step <= 5; step++ {
		rec, err := gatedAppend(t, g, issue, step)
		if err != nil {
			t.Fatalf("gated append %d beside a failing archive: %v", step, err)
		}
		last = rec
	}
	waitSealed(t, only.rs, 1)
	// Sealed history yes, tail never: a ship-only target is not sent
	// Append, so its replica holds exactly the sealed records.
	if acked, err := only.rs.AckedSeq(string(srcOrg)); err != nil || acked != 4 {
		t.Fatalf("ship-only target holds up to %d, %v; want the 4 sealed records", acked, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Status().ArchiveError == "" {
		if time.Now().After(deadline) {
			t.Fatalf("archive outage never surfaced in Status: %+v", eng.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if st := eng.Status(); st.QuorumSeq != last.Seq || st.ArchivedSegments != 0 {
		t.Fatalf("Status = %+v, want quorum at %d and nothing archived", st, last.Seq)
	}

	// One voter down: the ship-only target and the archive are current on
	// every seal, yet neither fills the missing vote.
	targets[1].set(func(m *memTarget) { m.down = true })
	if _, err := gatedAppend(t, g, issue, 6); !errors.Is(err, georep.ErrQuorumUnmet) {
		t.Fatalf("append with one of two voters down: err = %v, want ErrQuorumUnmet", err)
	}
}

// countingStore wraps a Mem store's fault hook into per-operation
// counters.
type countingStore struct {
	*blob.Mem
	mu   sync.Mutex
	gets []string
	puts []string
}

func newCountingStore() *countingStore {
	c := &countingStore{Mem: blob.NewMem()}
	c.SetFault(func(op blob.Op, key string) error {
		c.mu.Lock()
		defer c.mu.Unlock()
		switch op {
		case blob.OpGet:
			c.gets = append(c.gets, key)
		case blob.OpPut:
			c.puts = append(c.puts, key)
		}
		return nil
	})
	return c
}

// reset clears the counters and returns what they held.
func (c *countingStore) reset() (gets, puts []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gets, puts = c.gets, c.puts
	c.gets, c.puts = nil, nil
	return gets, puts
}

// assertManifestOnly fails unless the operations since the last reset
// were a bounded number of manifest Gets and nothing else: no segment
// object read back, nothing written.
func (c *countingStore) assertManifestOnly(t *testing.T, what string) {
	t.Helper()
	gets, puts := c.reset()
	if len(puts) != 0 {
		t.Fatalf("%s: %d Puts (%v), want none", what, len(puts), puts)
	}
	// One manifest Get per pass: the pump's and Flush's.
	if len(gets) == 0 || len(gets) > 2 {
		t.Fatalf("%s: %d Gets (%v), want 1 or 2", what, len(gets), gets)
	}
	for _, key := range gets {
		if !strings.HasSuffix(key, "/MANIFEST") {
			t.Fatalf("%s: Get of %s, want only the manifest", what, key)
		}
	}
}

// TestArchiveRestartCostIsConstant restarts the shipper over an archive
// that is already complete: the new engine asks the archive where it is
// (one manifest Get) instead of re-packaging, re-reading and comparing
// every archived segment. The same holds for a second catch-up of an
// unchanged hosted replica directory.
func TestArchiveRestartCostIsConstant(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	realm, v := newSourceVault(t, 4)
	appendRecords(t, realm, v, 33) // 8 sealed segments + tail
	counted := newCountingStore()
	arch := georep.NewArchive(counted)

	eng := georep.NewEngine(v, string(srcOrg), georep.Policy{}, nil)
	eng.AddTarget("archive", arch)
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := eng.Status(); st.ArchivedSegments != 8 {
		t.Fatalf("ArchivedSegments = %d, want 8", st.ArchivedSegments)
	}
	eng.Close()
	counted.reset()

	eng = georep.NewEngine(v, string(srcOrg), georep.Policy{}, nil)
	defer eng.Close()
	eng.AddTarget("archive", arch)
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := eng.Status(); st.ArchivedSegments != 8 || st.ArchiveError != "" {
		t.Fatalf("Status after restart = %+v", st)
	}
	eng.Close()
	counted.assertManifestOnly(t, "restarted engine over a complete archive")

	// A replica host (ttpd -archive) catching the archive up from the
	// replica directories it hosts.
	rs, err := vault.OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const hosted = "urn:org:hosted"
	for _, e := range v.Manifest() {
		pkg, err := v.Package(e.Segment)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Receive(hosted, pkg); err != nil {
			t.Fatal(err)
		}
	}
	if err := arch.ShipReplicas(ctx, rs); err != nil {
		t.Fatal(err)
	}
	if got, err := arch.LastSealed(ctx, hosted); err != nil || got != 8 {
		t.Fatalf("archive holds %d segments of the hosted source, %v; want 8", got, err)
	}
	counted.reset()
	if err := arch.ShipReplicas(ctx, rs); err != nil {
		t.Fatal(err)
	}
	counted.assertManifestOnly(t, "second catch-up of an unchanged replica directory")
}

// TestPruneRacesRestore runs replica retention GC concurrently with
// archive-backed restores of the same source — the race the -race CI
// step pins down.
func TestPruneRacesRestore(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	realm, v := newSourceVault(t, 4)
	appendRecords(t, realm, v, 33) // 8 sealed segments + tail
	arch := georep.NewArchive(blob.NewMem())
	archiveAll(t, arch, v)
	rs, err := vault.OpenReplicaSet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range v.Manifest() {
		pkg, err := v.Package(e.Segment)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Receive(string(srcOrg), pkg); err != nil {
			t.Fatal(err)
		}
	}

	archived := func(seg uint64) bool { return arch.Has(ctx, string(srcOrg), seg) }
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := rs.Prune(string(srcOrg), 1, archived); err != nil {
					t.Errorf("Prune: %v", err)
					return
				}
			}
		}()
		wg.Add(1)
		go func(seg uint64) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				err := arch.RestoreReplicaSegment(ctx, rs, string(srcOrg), seg)
				if err != nil && !errors.Is(err, vault.ErrReplicaGap) {
					t.Errorf("RestoreReplicaSegment(%d): %v", seg, err)
					return
				}
			}
		}(uint64(i*2 + 1))
	}
	wg.Wait()

	// Whatever interleaving happened, everything pruned is restorable
	// and the replica remains a verifiable vault.
	missing, err := rs.PrunedSegments(string(srcOrg))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range missing {
		if err := arch.RestoreReplicaSegment(ctx, rs, string(srcOrg), seg); err != nil {
			t.Fatalf("final restore of %d: %v", seg, err)
		}
	}
	replica, err := vault.Open(rs.Dir(string(srcOrg)), realm.Clock, vault.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := replica.DeepVerify(); err != nil {
		t.Fatalf("replica DeepVerify after GC races: %v", err)
	}
}
