package testpki

import (
	"fmt"
	"testing"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/core"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

// Domain is a ready-made direct trust domain for tests and benchmarks: a
// realm of certified parties, an in-process network (optionally wrapped
// with fault injection) and one trusted-interceptor node per party.
type Domain struct {
	Realm     *Realm
	Inproc    *transport.InprocNetwork
	Network   transport.Network
	Directory *protocol.Directory
	// Meter counts traffic when the domain is built WithMetering.
	Meter *transport.Metered
	// Telemetry is the interaction telemetry plane when the domain is
	// built WithTelemetry.
	Telemetry *obs.Telemetry

	pipeline bool
	nodes    map[id.Party]*core.Node
}

// FastRetry is a test-friendly retransmission policy.
var FastRetry = transport.RetryPolicy{Attempts: 8, Backoff: time.Millisecond}

// DomainOption configures domain construction.
type DomainOption func(*Domain)

// WithFaults wraps the domain's network in a fault injector.
func WithFaults(plan transport.FaultPlan) DomainOption {
	return func(d *Domain) {
		d.Network = transport.NewFaultyNetwork(d.Inproc, plan)
	}
}

// WithMetering wraps the domain's network in traffic counters (exposed as
// Meter), for communication-overhead measurements. When the domain also
// runs WithTelemetry (applied first), the counters are homed in the
// telemetry registry so one snapshot covers wire traffic and the rest of
// the instrumentation.
func WithMetering() DomainOption {
	return func(d *Domain) {
		d.Meter = transport.NewMeteredWith(d.Network, d.Telemetry.Registry())
		d.Network = d.Meter
	}
}

// WithTelemetry attaches the interaction telemetry plane (exposed as
// Telemetry) to every node: per-tenant metrics and run-scoped tracing,
// for observability tests and the instrumentation-overhead study.
func WithTelemetry() DomainOption {
	return func(d *Domain) { d.Telemetry = obs.New() }
}

// WithPipeline enables the batched hot-path pipeline on every node:
// aggregate (Merkle batch) evidence signing and outbound envelope
// coalescing.
func WithPipeline() DomainOption {
	return func(d *Domain) { d.pipeline = true }
}

// NewDomain builds a domain containing the given parties.
func NewDomain(parties []id.Party, opts ...DomainOption) (*Domain, error) {
	realm, err := NewRealm(parties...)
	if err != nil {
		return nil, err
	}
	inproc := transport.NewInprocNetwork()
	d := &Domain{
		Realm:     realm,
		Inproc:    inproc,
		Network:   inproc,
		Directory: protocol.NewDirectory(),
		nodes:     make(map[id.Party]*core.Node, len(parties)),
	}
	for _, opt := range opts {
		opt(d)
	}
	for _, p := range parties {
		if err := d.startNode(p); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// MustDomain is NewDomain panicking on failure; fixture-construction
// failures indicate a broken test environment.
func MustDomain(parties ...id.Party) *Domain {
	d, err := NewDomain(parties)
	if err != nil {
		panic(fmt.Sprintf("testpki: %v", err))
	}
	return d
}

// MustDomainWith is MustDomain with options.
func MustDomainWith(parties []id.Party, opts ...DomainOption) *Domain {
	d, err := NewDomain(parties, opts...)
	if err != nil {
		panic(fmt.Sprintf("testpki: %v", err))
	}
	return d
}

func (d *Domain) startNode(p id.Party) error {
	retry := FastRetry
	cfg := core.NodeConfig{
		Party:     p,
		Signer:    d.Realm.Party(p).Signer,
		Creds:     d.Realm.Store,
		Clock:     d.Realm.Clock,
		Network:   d.Network,
		Addr:      string(p),
		Directory: d.Directory,
		Retry:     &retry,
		Telemetry: d.Telemetry,
	}
	if d.pipeline {
		cfg.BatchSigning = true
		cfg.Coalesce = &transport.CoalesceOptions{}
	}
	node, err := core.NewNode(cfg)
	if err != nil {
		return err
	}
	d.nodes[p] = node
	return nil
}

// AddNode enrols a new party and starts its node.
func (d *Domain) AddNode(p id.Party) (*core.Node, error) {
	if _, err := d.Realm.AddParty(p); err != nil {
		return nil, err
	}
	if err := d.startNode(p); err != nil {
		return nil, err
	}
	return d.nodes[p], nil
}

// Node returns the trusted interceptor of a party; it panics on unknown
// parties, which in a fixture indicates a test bug.
func (d *Domain) Node(p id.Party) *core.Node {
	node, ok := d.nodes[p]
	if !ok {
		panic(fmt.Sprintf("testpki: no node for %s", p))
	}
	return node
}

// Close stops every node and the network.
func (d *Domain) Close() {
	for _, n := range d.nodes {
		_ = n.Close()
	}
	_ = d.Inproc.Close()
}

// Query returns the records of log that match q, failing the test when
// the log cannot be read.
func Query(t testing.TB, log store.Log, q store.Query) []*store.Record {
	t.Helper()
	recs, err := log.QueryAll(q)
	if err != nil {
		t.Fatalf("query evidence log: %v", err)
	}
	return recs
}

// Log opens an evidence vault in a temporary directory, closed and
// removed when the test ends.
func Log(t testing.TB, clk clock.Clock) *vault.Vault {
	t.Helper()
	v, err := vault.OpenTemp(clk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = v.Close() })
	return v
}
