// Package core assembles the paper's trusted interceptor (section 3.1): a
// party's signing identity, credential store, evidence log, state store and
// B2BCoordinator, combined into a Node that mediates the party's
// interactions. It also provides trust-domain construction (Figure 3) and
// the dispute adjudicator that evaluates evidence logs.
package core

import (
	"errors"
	"fmt"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/credential"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
	"nonrep/internal/stamp"
	"nonrep/internal/store"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

// NodeConfig assembles a trusted interceptor for one party.
type NodeConfig struct {
	// Party is the organisation this interceptor acts for.
	Party id.Party
	// Signer signs the party's evidence.
	Signer sig.Signer
	// Creds verifies counterparty evidence (certificates, revocation).
	Creds *credential.Store
	// Clock supplies evidence timestamps and timeout bases.
	Clock clock.Clock
	// Network is the transport to register the coordinator on. Ignored —
	// and not required — when Host is set.
	Network transport.Network
	// Addr is the coordinator's address on the network. Ignored when Host
	// is set: hosted coordinators advertise tenant-qualified addresses
	// derived from the host's shared endpoint.
	Addr string
	// Host, when set, attaches the interceptor's coordinator to a shared
	// multi-tenant host instead of registering a dedicated endpoint. The
	// node keeps fully isolated services (issuer, verifier, log, states);
	// only the wire — listener, retransmission, outbound coalescing — is
	// shared with the host's other tenants. Retry and Coalesce are
	// host-wide concerns and ignored for hosted nodes.
	Host *protocol.Host
	// Worker, when set, runs the interceptor as an outbound-only worker:
	// instead of listening, the coordinator dials the configured gateway
	// host and receives its traffic over a long-lived polled link —
	// suitable for parties behind NAT or egress-only network policy.
	// Requires Network (as the dialing side); mutually exclusive with
	// Host, and Addr is ignored.
	Worker *protocol.WorkerConfig
	// Directory resolves parties to coordinator addresses; it is shared
	// by the parties of a trust domain.
	Directory *protocol.Directory
	// Log stores the party's evidence. Without one the node opens a
	// vault in a temporary directory (vault.OpenTemp) and closes it, and
	// so removes it, with the node.
	Log store.Log
	// States stores shared-information state; defaults to in-memory.
	States store.StateStore
	// TSA, when set, time-stamps all issued evidence.
	TSA *stamp.Authority
	// Retry overrides the coordinator's retransmission policy.
	Retry *transport.RetryPolicy
	// BatchSigning aggregates concurrent evidence signing into one Merkle
	// batch signature per group (evidence.BatchIssuer): the cryptographic
	// fast path for heavy small-message traffic.
	BatchSigning bool
	// Coalesce, when set, batches concurrent outbound protocol envelopes
	// per counterparty into single b2b-batch wire envelopes.
	Coalesce *transport.CoalesceOptions
	// Telemetry, when set, instruments the node: evidence issuance and
	// verification latency, per-kind envelope counts and protocol spans
	// are recorded under a scope labelled with the node's party. Nil
	// (the default) disables telemetry at zero cost.
	Telemetry *obs.Telemetry
}

// Node is a running trusted interceptor: "conceptually, each party has a
// trusted interceptor that acts on its behalf" (section 3.1).
type Node struct {
	cfg   NodeConfig
	co    *protocol.Coordinator
	batch *evidence.BatchIssuer
	// ownLog is the temporary vault the node opened for want of a Log.
	ownLog store.Log
}

// NewNode assembles and starts a trusted interceptor.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Party == "" {
		return nil, errors.New("core: node needs a party")
	}
	if cfg.Signer == nil || cfg.Creds == nil || cfg.Directory == nil || (cfg.Network == nil && cfg.Host == nil) {
		return nil, fmt.Errorf("core: node for %s missing signer, credentials, network/host or directory", cfg.Party)
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.States == nil {
		cfg.States = store.NewMemStateStore()
	}
	if cfg.Addr == "" {
		cfg.Addr = string(cfg.Party)
	}
	scope := cfg.Telemetry.Scope(string(cfg.Party))
	var ownLog store.Log
	if cfg.Log == nil {
		v, err := vault.OpenTemp(cfg.Clock, vault.WithObserver(scope))
		if err != nil {
			return nil, fmt.Errorf("core: evidence log for %s: %w", cfg.Party, err)
		}
		cfg.Log, ownLog = v, v
	}
	base := &evidence.Issuer{Party: cfg.Party, Signer: cfg.Signer, Clock: cfg.Clock, TSA: cfg.TSA}
	var issuer evidence.TokenIssuer = base
	var batch *evidence.BatchIssuer
	if cfg.BatchSigning {
		batch = evidence.NewBatchIssuer(base)
		issuer = batch
	}
	if scope != nil {
		issuer = newObservedIssuer(issuer, scope)
	}
	verifier := &evidence.Verifier{Keys: cfg.Creds, Cache: evidence.NewVerifyCache(0)}
	if scope != nil {
		verifyNs := scope.Histogram(obs.MTokenVerifyNs)
		verified := scope.Counter(obs.MTokensVerifiedTotal)
		failed := scope.Counter(obs.MTokenVerifyFailed)
		verifier.Observe = func(d time.Duration, err error) {
			verifyNs.Observe(d.Nanoseconds())
			if err != nil {
				failed.Inc()
			} else {
				verified.Inc()
			}
		}
	}
	svc := &protocol.Services{
		Party:     cfg.Party,
		Issuer:    issuer,
		Verifier:  verifier,
		Log:       cfg.Log,
		States:    cfg.States,
		Clock:     cfg.Clock,
		Directory: cfg.Directory,
		Obs:       scope,
	}
	var co *protocol.Coordinator
	var err error
	switch {
	case cfg.Worker != nil:
		if cfg.Network == nil {
			err = fmt.Errorf("core: worker node for %s needs a network to dial out on", cfg.Party)
			break
		}
		var opts []protocol.Option
		if cfg.Retry != nil {
			opts = append(opts, protocol.WithRetryPolicy(*cfg.Retry))
		}
		co, err = protocol.ConnectWorker(cfg.Network, *cfg.Worker, svc, opts...)
	case cfg.Host != nil:
		co, err = cfg.Host.Add(svc)
	default:
		var opts []protocol.Option
		if cfg.Retry != nil {
			opts = append(opts, protocol.WithRetryPolicy(*cfg.Retry))
		}
		if cfg.Coalesce != nil {
			opts = append(opts, protocol.WithCoalescing(*cfg.Coalesce))
		}
		co, err = protocol.New(cfg.Network, cfg.Addr, svc, opts...)
	}
	if err != nil {
		if batch != nil {
			_ = batch.Close()
		}
		if ownLog != nil {
			_ = ownLog.Close() // the start failure is the error worth reporting
		}
		return nil, fmt.Errorf("core: start coordinator for %s: %w", cfg.Party, err)
	}
	return &Node{cfg: cfg, co: co, batch: batch, ownLog: ownLog}, nil
}

// Party returns the party this node acts for.
func (n *Node) Party() id.Party { return n.cfg.Party }

// Coordinator returns the node's B2BCoordinator.
func (n *Node) Coordinator() *protocol.Coordinator { return n.co }

// Services returns the node's local services.
func (n *Node) Services() *protocol.Services { return n.co.Services() }

// Log returns the node's evidence log.
func (n *Node) Log() store.Log { return n.cfg.Log }

// States returns the node's state store.
func (n *Node) States() store.StateStore { return n.cfg.States }

// Close stops the node's coordinator, its aggregate signer when batch
// signing is enabled, and the evidence log it opened itself; a Log passed
// in NodeConfig stays the caller's to close.
func (n *Node) Close() error {
	err := n.co.Close()
	if n.batch != nil {
		if berr := n.batch.Close(); err == nil {
			err = berr
		}
	}
	if n.ownLog != nil {
		if lerr := n.ownLog.Close(); err == nil {
			err = lerr
		}
	}
	return err
}
