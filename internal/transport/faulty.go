package transport

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// FaultPlan configures injected failures. Probabilities are in [0,1].
type FaultPlan struct {
	// Seed makes the fault sequence reproducible.
	Seed int64
	// DropRate is the probability that a given transfer is lost.
	DropRate float64
	// DupRate is the probability that a one-way send is delivered twice.
	DupRate float64
	// Delay is added to every successful transfer.
	Delay time.Duration
	// MaxDrops bounds the total number of injected losses, modelling the
	// paper's "bounded number of temporary network and computer related
	// failures"; 0 means unbounded.
	MaxDrops int
}

// FaultyNetwork wraps a Network, injecting message loss, duplication and
// delay. Partitions can be imposed and healed at runtime. It is safe for
// concurrent use.
type FaultyNetwork struct {
	inner Network
	plan  FaultPlan

	mu          sync.Mutex
	rng         *rand.Rand
	drops       int
	partitioned map[[2]string]bool
}

var _ Network = (*FaultyNetwork)(nil)

// NewFaultyNetwork wraps inner with the given fault plan.
func NewFaultyNetwork(inner Network, plan FaultPlan) *FaultyNetwork {
	return &FaultyNetwork{
		inner:       inner,
		plan:        plan,
		rng:         rand.New(rand.NewSource(plan.Seed)),
		partitioned: make(map[[2]string]bool),
	}
}

// Drops reports how many transfers have been dropped so far.
func (n *FaultyNetwork) Drops() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.drops
}

// Partition blocks all traffic between a and b until Heal is called.
func (n *FaultyNetwork) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[[2]string{a, b}] = true
	n.partitioned[[2]string{b, a}] = true
}

// Heal removes a partition between a and b.
func (n *FaultyNetwork) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, [2]string{a, b})
	delete(n.partitioned, [2]string{b, a})
}

// verdict decides the fate of one transfer.
type verdict int

const (
	pass verdict = iota
	drop
	duplicate
)

func (n *FaultyNetwork) judge(from, to string) verdict {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitioned[[2]string{from, to}] {
		n.drops++
		return drop
	}
	if n.plan.DropRate > 0 && (n.plan.MaxDrops == 0 || n.drops < n.plan.MaxDrops) {
		if n.rng.Float64() < n.plan.DropRate {
			n.drops++
			return drop
		}
	}
	if n.plan.DupRate > 0 && n.rng.Float64() < n.plan.DupRate {
		return duplicate
	}
	return pass
}

// Register implements Network.
func (n *FaultyNetwork) Register(addr string, h Handler) (Endpoint, error) {
	inner, err := n.inner.Register(addr, h)
	if err != nil {
		return nil, err
	}
	return &faultyEndpoint{net: n, inner: inner}, nil
}

type faultyEndpoint struct {
	net   *FaultyNetwork
	inner Endpoint
}

var _ Endpoint = (*faultyEndpoint)(nil)

// Addr implements Endpoint.
func (e *faultyEndpoint) Addr() string { return e.inner.Addr() }

func (e *faultyEndpoint) delay(ctx context.Context) error {
	if e.net.plan.Delay <= 0 {
		return nil
	}
	t := time.NewTimer(e.net.plan.Delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Send implements Endpoint. A dropped send surfaces as ErrDropped, as a
// dropped request does: a one-way send is an acknowledged exchange on
// every network, so its sender learns of the loss the same way — the
// acknowledgement never comes — and Reliable retransmits. An injector that swallowed the loss would model a network
// no retransmission layer can work over: a lone one-way message, say a
// receipt, would be lost for good.
func (e *faultyEndpoint) Send(ctx context.Context, to string, env *Envelope) error {
	switch e.net.judge(e.Addr(), to) {
	case drop:
		return ErrDropped
	case duplicate:
		if err := e.delay(ctx); err != nil {
			return err
		}
		if err := e.inner.Send(ctx, to, env); err != nil {
			return err
		}
		clone := *env
		return e.inner.Send(ctx, to, &clone)
	default:
		if err := e.delay(ctx); err != nil {
			return err
		}
		return e.inner.Send(ctx, to, env)
	}
}

// Request implements Endpoint. Dropped requests surface as ErrDropped, the
// moral equivalent of a timeout.
func (e *faultyEndpoint) Request(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	if e.net.judge(e.Addr(), to) == drop {
		return nil, ErrDropped
	}
	if err := e.delay(ctx); err != nil {
		return nil, err
	}
	reply, err := e.inner.Request(ctx, to, env)
	if err != nil {
		return nil, err
	}
	// The reply direction can fail independently.
	if e.net.judge(to, e.Addr()) == drop {
		return nil, ErrDropped
	}
	return reply, nil
}

// Close implements Endpoint.
func (e *faultyEndpoint) Close() error { return e.inner.Close() }
