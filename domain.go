package nonrep

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"nonrep/internal/access"
	"nonrep/internal/blob"
	"nonrep/internal/bundle"
	"nonrep/internal/clock"
	"nonrep/internal/container"
	"nonrep/internal/core"
	"nonrep/internal/credential"
	"nonrep/internal/durable"
	"nonrep/internal/georep"
	"nonrep/internal/invoke"
	"nonrep/internal/obs"
	"nonrep/internal/protocol"
	"nonrep/internal/sharing"
	"nonrep/internal/sig"
	"nonrep/internal/stamp"
	"nonrep/internal/store"
	"nonrep/internal/transport"
	"nonrep/internal/ttp"
	"nonrep/internal/vault"
)

// Domain assembles organisations into a trust domain (paper section 3.1):
// a shared certificate authority, a directory, a transport, and one
// trusted interceptor (Org) per organisation. All three Figure 3
// configurations are expressible: direct (the default), single inline TTP
// (an Org with EnableRelay and clients using Via), distributed inline
// TTPs, and direct-with-offline-TTP (EnableResolve plus WithOfflineTTP).
type Domain struct {
	clk      clock.Clock
	network  transport.Network
	inproc   *transport.InprocNetwork
	tcpNet   *transport.TCPNetwork
	tcp      bool
	dir      *protocol.Directory
	ca       *credential.Authority
	creds    *credential.Store
	tsa      *stamp.Authority
	alg      sig.Algorithm
	pipeline *transport.CoalesceOptions
	tel      *obs.Telemetry

	mu   sync.Mutex
	orgs map[Party]*Org
	// enrolling reserves parties whose enrolment is in flight, so two
	// concurrent AddOrg calls for one party cannot both pass the
	// existence check and race their inserts (the loser would leak its
	// node, log lock and directory registration).
	enrolling map[Party]struct{}
	hosts     []*Host
	hostSeq   int
}

// DomainOption configures a Domain.
type DomainOption func(*domainConfig)

type domainConfig struct {
	clk       clock.Clock
	tcp       bool
	timestamp bool
	alg       sig.Algorithm
	pipeline  *transport.CoalesceOptions
	telemetry *obs.Telemetry
}

// WithTCP runs every organisation's coordinator on a local TCP socket
// instead of the in-process transport.
func WithTCP() DomainOption {
	return func(c *domainConfig) { c.tcp = true }
}

// WithClock substitutes the domain's time source (tests use manual
// clocks).
func WithClock(clk clock.Clock) DomainOption {
	return func(c *domainConfig) { c.clk = clk }
}

// WithTimestamping runs a domain time-stamping authority and stamps all
// issued evidence (paper section 3.5).
func WithTimestamping() DomainOption {
	return func(c *domainConfig) { c.timestamp = true }
}

// WithAlgorithm selects the signature scheme for organisation keys
// (default Ed25519).
func WithAlgorithm(alg sig.Algorithm) DomainOption {
	return func(c *domainConfig) { c.alg = alg }
}

// WithPipelining enables the batched hot-path interaction pipeline on
// every organisation: concurrent evidence signing is aggregated into
// Merkle batch signatures (one signing operation covers many tokens, each
// still independently verifiable), concurrent outbound protocol messages
// to the same counterparty coalesce into single b2b-batch wire envelopes,
// and incoming batches are verified by parallel workers against a
// verified-signature cache. It trades nothing for correctness — evidence
// and its adjudication are byte-compatible — and is the recommended mode
// for heavy small-message traffic. A wire envelope carries at most
// transport.DefaultMaxCoalesce messages, and coalescing adds no latency:
// batches form from whatever is concurrently pending.
func WithPipelining() DomainOption {
	return func(c *domainConfig) { c.pipeline = &transport.CoalesceOptions{} }
}

// WithTelemetry equips the domain with an interaction telemetry plane:
// every organisation's evidence issuance/verification latency, vault
// commit/seal latency, replication lag and per-kind envelope counts are
// recorded in a per-tenant metrics registry, invocations carry run-scoped
// trace spans across parties, and health sources (vault seal-chain head,
// replica lag) register automatically. Access the handle with
// Domain.Telemetry(); expose it over HTTP with Telemetry.Serve. The
// default (no option) disables telemetry at zero cost.
func WithTelemetry() DomainOption {
	return func(c *domainConfig) { c.telemetry = obs.New() }
}

// Signature algorithms selectable with WithAlgorithm.
const (
	AlgEd25519       = sig.AlgEd25519
	AlgECDSAP256     = sig.AlgECDSAP256
	AlgRSAPSS2048    = sig.AlgRSAPSS2048
	AlgForwardSecure = sig.AlgForwardSecure
)

// NewDomain creates an empty trust domain.
func NewDomain(opts ...DomainOption) (*Domain, error) {
	cfg := domainConfig{clk: clock.Real{}, alg: sig.AlgEd25519}
	for _, opt := range opts {
		opt(&cfg)
	}
	caKey, err := sig.Generate(cfg.alg, "domain-ca")
	if err != nil {
		return nil, err
	}
	ca, err := credential.NewRootAuthority("urn:nonrep:ca", caKey, cfg.clk)
	if err != nil {
		return nil, err
	}
	creds := credential.NewStore(cfg.clk)
	if err := creds.AddRoot(ca.Certificate()); err != nil {
		return nil, err
	}
	d := &Domain{
		clk:       cfg.clk,
		dir:       protocol.NewDirectory(),
		ca:        ca,
		creds:     creds,
		alg:       cfg.alg,
		pipeline:  cfg.pipeline,
		tel:       cfg.telemetry,
		orgs:      make(map[Party]*Org),
		enrolling: make(map[Party]struct{}),
	}
	if cfg.tcp {
		d.tcp = true
		d.tcpNet = transport.NewTCPNetwork()
		d.network = d.tcpNet
	} else {
		d.inproc = transport.NewInprocNetwork()
		d.network = d.inproc
	}
	if cfg.timestamp {
		tsaKey, err := sig.Generate(cfg.alg, "domain-tsa")
		if err != nil {
			return nil, err
		}
		cert, err := ca.Issue("urn:nonrep:tsa", tsaKey.KeyID(), tsaKey.PublicKey())
		if err != nil {
			return nil, err
		}
		if err := creds.Add(cert); err != nil {
			return nil, err
		}
		d.tsa = stamp.NewAuthority("urn:nonrep:tsa", tsaKey, cfg.clk)
	}
	return d, nil
}

// Credentials exposes the domain's credential store, e.g. for building an
// Adjudicator over exported evidence.
func (d *Domain) Credentials() *credential.Store { return d.creds }

// Telemetry returns the domain's telemetry plane, or nil when the domain
// was created without WithTelemetry. Use it to read metric snapshots,
// inspect recent traces, or start the HTTP introspection listener
// (Telemetry.Serve).
func (d *Domain) Telemetry() *obs.Telemetry { return d.tel }

// CACertificate returns the domain root certificate.
func (d *Domain) CACertificate() *credential.Certificate { return d.ca.Certificate() }

// Adjudicator returns a dispute adjudicator trusting this domain's
// certificates.
func (d *Domain) Adjudicator() *Adjudicator { return core.NewAdjudicator(d.creds) }

// OrgOption configures an organisation.
type OrgOption func(*orgConfig)

type orgConfig struct {
	addr         string
	vaultDir     string
	vaultOpts    []vault.Option
	roles        []string
	replicaRoot  string
	geoPeers     []Party
	quorum       int
	archive      blob.Store
	durable      bool
	durableRetry *durable.RetryPolicy
	worker       *protocol.WorkerConfig
	openSubs     bool
}

// WithOpenSubscriptions lets the organisation's vault feed be subscribed
// to without a sub-open token — the trust stance of adjudication
// tooling (nrverify -follow, a TTP's monitor) that holds no domain
// credentials. Leave unset for peer organisations: their subscribers
// authorize with tokens that land in the publisher's vault as evidence.
func WithOpenSubscriptions() OrgOption {
	return func(c *orgConfig) { c.openSubs = true }
}

// WithAddr fixes the organisation's coordinator address (host:port under
// WithTCP).
func WithAddr(addr string) OrgOption {
	return func(c *orgConfig) { c.addr = addr }
}

// WithVault roots the organisation's evidence vault at dir, so the
// evidence persists across restarts. Every organisation's evidence lives
// in a segmented, group-committed vault whose memory stays bounded
// regardless of log length; without WithVault that vault sits in a
// temporary directory, runs without per-batch fsync and is removed when
// the organisation closes.
func WithVault(dir string, opts ...VaultOption) OrgOption {
	return func(c *orgConfig) {
		c.vaultDir = dir
		c.vaultOpts = opts
	}
}

// Vault tuning options usable with WithVault.
var (
	// VaultSegmentRecords sets the records per segment before sealing.
	VaultSegmentRecords = vault.WithSegmentRecords
	// VaultWithoutSync trades machine-crash durability for throughput.
	VaultWithoutSync = vault.WithoutSync
)

// WithReplication makes the organisation replicate its vault to the
// named peer organisations' replica stores — the survivability path:
// evidence reaches dispute time even if this organisation's storage is
// later lost (OpenVault with VaultRestoreFrom rebuilds the vault from any
// peer's replica) or the organisation turns uncooperative (an adjudicator
// audits the peer's replica remotely instead). It is the asynchronous
// spelling of the durability policy — the configuration WithQuorum(0,
// peers...) produces: every sealed segment ships whole, the unsealed
// tail trails by one push, and appends are never gated. Requires
// WithVault. Shipping is verified end to end: receivers re-check the seal
// chain before accepting a segment, so a tampered copy is refused. Peers
// may enrol after this organisation; evidence reaches them at the next
// catch-up pass, and Org.Georep().Flush is the deterministic
// "everything shipped" point.
func WithReplication(peers ...Party) OrgOption {
	return func(c *orgConfig) { c.geoPeers = append(c.geoPeers, peers...) }
}

// WithReplicaStore sets where the organisation stores peers' replicated
// segments (default: a "replicas" directory inside its vault). Setting it
// lets an organisation without a vault of its own act as a pure replica
// host.
func WithReplicaStore(dir string) OrgOption {
	return func(c *orgConfig) { c.replicaRoot = dir }
}

// WithQuorum enrols the organisation under a geo-replication durability
// policy over the named peer replicas. With n > 0 the policy is
// synchronous N-of-M: every evidence append returns only once n of the
// peers durably hold the record (in their replica tails, chain-verified
// and fsynced), so an invocation that completed is adjudicable even if
// this organisation's region is lost a moment later. With n == 0 the
// peers are replicated to asynchronously — unsealed records trail the
// source by one push — without gating appends. Requires WithVault.
// Sealed segments additionally ship whole (the seg-ship path), so peer
// replicas compact their tails as history seals.
func WithQuorum(n int, peers ...Party) OrgOption {
	return func(c *orgConfig) {
		c.quorum = n
		c.geoPeers = append(c.geoPeers, peers...)
	}
}

// WithArchive tiers every sealed vault segment into the given object
// store — the archival tier behind the replicas. Archived segments are
// framed, content-verified objects; a region that lost both its vault
// and its replicas restores from the archive alone
// (RestoreVaultFromArchive), and replicas may prune archived history
// (replica retention) without losing adjudicability. Requires
// WithVault.
func WithArchive(store blob.Store) OrgOption {
	return func(c *orgConfig) { c.archive = store }
}

// WithCertRoles embeds role names in the organisation's certificate; peers
// can activate them through their access managers.
func WithCertRoles(roles ...string) OrgOption {
	return func(c *orgConfig) { c.roles = roles }
}

// AddOrg enrols an organisation: generates its signing key, certifies it
// under the domain CA, and starts its trusted interceptor with a
// dedicated coordinator endpoint. Concurrent enrolments of the same
// party are serialised: exactly one succeeds, the rest fail with
// ErrAlreadyEnrolled.
func (d *Domain) AddOrg(p Party, opts ...OrgOption) (*Org, error) {
	return d.addOrg(p, nil, opts...)
}

// AddHostedOrg enrols an organisation like AddOrg but attaches its
// coordinator to a shared multi-tenant host instead of a dedicated
// endpoint. The organisation keeps fully isolated evidence services —
// its own signing key, issuer, log/vault and state store — and shares
// only the host's wire: one listener, one retransmission stack and (with
// WithPipelining) one cross-tenant outbound coalescer. Hosted and
// dedicated organisations interact freely; their evidence is
// byte-compatible.
func (d *Domain) AddHostedOrg(h *Host, p Party, opts ...OrgOption) (*Org, error) {
	if h == nil || h.domain != d {
		return nil, fmt.Errorf("nonrep: host does not belong to this domain")
	}
	return d.addOrg(p, h, opts...)
}

// reserve claims a party for one in-flight enrolment; release undoes the
// claim. The reservation spans key generation through node start, so the
// check-then-insert window of enrolment is race-free without holding the
// domain mutex across slow operations.
func (d *Domain) reserve(p Party) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.orgs[p]; exists {
		return fmt.Errorf("%w: %s", ErrAlreadyEnrolled, p)
	}
	if _, inflight := d.enrolling[p]; inflight {
		return fmt.Errorf("%w: %s (enrolment in progress)", ErrAlreadyEnrolled, p)
	}
	d.enrolling[p] = struct{}{}
	return nil
}

func (d *Domain) release(p Party) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.enrolling, p)
}

func (d *Domain) addOrg(p Party, host *Host, opts ...OrgOption) (*Org, error) {
	cfg := orgConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	// '#' separates a shared host address from its tenant key in
	// tenant-qualified coordinator addresses; a party name (which doubles
	// as the in-process wire address) or explicit address containing it
	// would be split and misrouted, so refuse it up front.
	if strings.ContainsRune(string(p), '#') {
		return nil, fmt.Errorf("nonrep: party name %q must not contain '#'", p)
	}
	if strings.ContainsRune(cfg.addr, '#') {
		return nil, fmt.Errorf("nonrep: coordinator address %q must not contain '#'", cfg.addr)
	}
	if err := d.reserve(p); err != nil {
		return nil, err
	}
	defer d.release(p)

	signer, err := sig.Generate(d.alg, string(p)+"#key")
	if err != nil {
		return nil, err
	}
	var issueOpts []credential.IssueOption
	if len(cfg.roles) > 0 {
		issueOpts = append(issueOpts, credential.WithRoles(cfg.roles...))
	}
	cert, err := d.ca.Issue(p, signer.KeyID(), signer.PublicKey(), issueOpts...)
	if err != nil {
		return nil, err
	}
	if err := d.creds.Add(cert); err != nil {
		return nil, err
	}

	addr := cfg.addr
	if addr == "" {
		if d.tcp {
			addr = "127.0.0.1:0"
		} else {
			addr = string(p)
		}
	}
	// The organisation's evidence lives in its vault: at dir with
	// WithVault, else in a temporary directory that goes with the vault.
	vopts := cfg.vaultOpts
	if d.tel != nil {
		// Full-slice append: the caller's option slice must not be
		// extended in place when reused across organisations.
		vopts = append(vopts[:len(vopts):len(vopts)], vault.WithObserver(d.tel.Scope(string(p))))
	}
	var orgVault *vault.Vault
	switch {
	case cfg.vaultDir != "":
		orgVault, err = vault.Open(cfg.vaultDir, d.clk, vopts...)
	case len(cfg.geoPeers) > 0:
		return nil, fmt.Errorf("nonrep: WithReplication/WithQuorum for %s requires WithVault", p)
	case cfg.archive != nil:
		return nil, fmt.Errorf("nonrep: WithArchive for %s requires WithVault", p)
	default:
		orgVault, err = vault.OpenTemp(d.clk, vopts...)
	}
	if err != nil {
		return nil, err
	}
	var log store.Log = orgVault
	// Under a sync quorum policy the node's evidence log is the gated
	// wrapper: appends return only once the quorum of peer replicas
	// acknowledges. The policy engine attaches after the node exists —
	// its pushes travel through the node's own coordinator.
	var gated *georep.GatedLog
	if cfg.quorum > 0 && len(cfg.geoPeers) > 0 {
		gated = georep.NewGatedLog(orgVault)
		log = gated
	}
	nodeCfg := core.NodeConfig{
		Party:        p,
		Signer:       signer,
		Creds:        d.creds,
		Clock:        d.clk,
		Network:      d.network,
		Addr:         addr,
		Directory:    d.dir,
		Log:          log,
		TSA:          d.tsa,
		BatchSigning: d.pipeline != nil,
		Coalesce:     d.pipeline,
		Telemetry:    d.tel,
	}
	if host != nil {
		nodeCfg.Host = host.inner
	}
	if cfg.worker != nil {
		if host != nil {
			log.Close()
			return nil, fmt.Errorf("nonrep: %s cannot be both hosted and a worker", p)
		}
		nodeCfg.Worker = cfg.worker
	}
	node, err := core.NewNode(nodeCfg)
	if err != nil {
		// Release the log we opened: a leaked vault would keep its
		// committer goroutine and exclusive lock, blocking any retry of
		// AddOrg against the same directory.
		log.Close()
		return nil, err
	}
	org := &Org{domain: d, node: node, cert: cert, acl: access.NewManager(), vault: orgVault, gated: gated}
	if err := org.startAudit(cfg); err != nil {
		_ = node.Close()
		log.Close()
		return nil, err
	}
	org.startGeo(cfg)
	org.startSub(cfg)
	// Register the sharing controller eagerly so the organisation can be
	// admitted to sharing groups (receive welcome transfers) before it
	// first touches shared information itself.
	org.ctl = sharing.NewController(node.Coordinator())
	if cfg.durable {
		policy := durable.DefaultRetryPolicy
		if cfg.durableRetry != nil {
			policy = *cfg.durableRetry
		}
		svc := node.Services()
		org.journal = durable.NewJournal(p, svc.Issuer, node.Log(), d.clk)
		// The runtime executes jobs through its own direct-protocol client;
		// its journal shares the organisation's evidence store, so resumed
		// runs see the tokens any earlier client already journaled there.
		org.durable = durable.New(invoke.NewClient(node.Coordinator()), org.journal, durable.Config{
			Retry: policy,
			Clock: d.clk,
			Obs:   svc.Obs,
		})
		// Resume whatever a previous process over the same store enqueued
		// but never finished — the crash-recovery path.
		if _, err := org.durable.Recover(); err != nil {
			_ = org.durable.Close()
			_ = node.Close()
			log.Close()
			return nil, err
		}
	}
	d.mu.Lock()
	d.orgs[p] = org
	d.mu.Unlock()
	return org, nil
}

// Org returns an enrolled organisation.
func (d *Domain) Org(p Party) (*Org, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	org, ok := d.orgs[p]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotEnrolled, p)
	}
	return org, nil
}

// ExportBundle writes a portable evidence bundle — root certificate, all
// party certificates and every organisation's evidence log — to dir, for
// offline verification with an Adjudicator (for example via cmd/nrverify).
// A log that cannot be read in full fails the export: a bundle missing
// records would present missing evidence as absent evidence.
func (d *Domain) ExportBundle(dir string) error {
	d.mu.Lock()
	b := &bundle.Bundle{
		CA:   d.ca.Certificate(),
		Logs: make(map[Party][]*store.Record, len(d.orgs)),
	}
	for p, org := range d.orgs {
		recs, err := org.vault.QueryAll(vault.Query{})
		if err != nil {
			d.mu.Unlock()
			return fmt.Errorf("nonrep: export %s: %w", p, err)
		}
		b.Certs = append(b.Certs, org.cert)
		b.Logs[p] = recs
	}
	d.mu.Unlock()
	return bundle.Write(dir, b)
}

// Close stops every organisation, every multi-tenant host and the
// transport. Under WithTCP the network-level close is the backstop that
// stops every listener registered through the domain — including any an
// organisation lost track of.
func (d *Domain) Close() error {
	d.mu.Lock()
	orgs := make([]*Org, 0, len(d.orgs))
	for _, o := range d.orgs {
		orgs = append(orgs, o)
	}
	hosts := d.hosts
	d.mu.Unlock()
	var firstErr error
	for _, o := range orgs {
		if err := o.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, h := range hosts {
		if err := h.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if d.tcpNet != nil {
		if err := d.tcpNet.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if d.inproc != nil {
		if err := d.inproc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Org is one organisation's trusted interceptor plus its hosted
// application runtime: component container, access manager, sharing
// controller and invocation servers.
type Org struct {
	domain *Domain
	node   *core.Node
	cert   *credential.Certificate
	acl    *access.Manager

	audit    *protocol.AuditService
	auditCli *protocol.AuditClient
	sub      *protocol.SubService
	subCli   *protocol.SubClient
	geoSvc   *protocol.GeoService
	geoCli   *protocol.GeoClient
	vault    *vault.Vault
	replicas *vault.ReplicaSet
	geo      *georep.Engine
	gated    *georep.GatedLog
	archive  *georep.Archive
	durable  *durable.Runtime
	journal  *durable.Journal

	mu      sync.Mutex
	cont    *container.Container
	ctl     *sharing.Controller
	servers []*invoke.Server

	closeOnce sync.Once
	closeErr  error
}

// startAudit wires the organisation's remote-audit services: the audit
// client, the audit service over its vault and, when the organisation
// has a vault directory or is asked to host replicas, a replica store.
func (o *Org) startAudit(cfg orgConfig) error {
	o.auditCli = protocol.NewAuditClient(o.node.Coordinator())
	root := cfg.replicaRoot
	if root == "" && cfg.vaultDir != "" {
		root = filepath.Join(cfg.vaultDir, "replicas")
	}
	var rs *vault.ReplicaSet
	if root != "" {
		var err error
		if rs, err = vault.OpenReplicaSet(root); err != nil {
			return err
		}
	}
	o.replicas = rs
	// The replica store accepts only authenticated seg-ship: every
	// shipment must carry a token signed by the source organisation itself.
	o.audit = protocol.NewAuditService(o.node.Coordinator(), o.vault, rs)
	o.registerHealth()
	return nil
}

// startGeo wires the replication plane: a geo service whenever the
// organisation hosts replicas (receiving tail pushes), and the shipping
// engine when WithReplication/WithQuorum name peers or WithArchive
// supplies an object store — peers and archive are all targets of the one
// engine. Under a sync policy (quorum > 0) the engine attaches to the
// gated log built in addOrg, and appends start gating on quorum
// acknowledgement from this point on.
func (o *Org) startGeo(cfg orgConfig) {
	o.geoCli = protocol.NewGeoClient(o.node.Coordinator())
	if o.replicas != nil {
		o.geoSvc = protocol.NewGeoService(o.node.Coordinator(), o.replicas)
	}
	if len(cfg.geoPeers) == 0 && cfg.archive == nil {
		return
	}
	mode := georep.ModeAsync
	if cfg.quorum > 0 {
		mode = georep.ModeSync
	}
	policy := georep.Policy{Mode: mode, Quorum: cfg.quorum}
	party := string(o.node.Party())
	var opts []georep.EngineOption
	tel := o.domain.tel
	if tel != nil {
		opts = append(opts, georep.WithObserver(tel.Scope(party)))
	}
	o.geo = georep.NewEngine(o.vault, party, policy, o.domain.clk, opts...)
	// A peer named by both WithReplication and WithQuorum is one target:
	// two would give it two votes.
	seen := make(map[Party]bool, len(cfg.geoPeers))
	for _, peer := range cfg.geoPeers {
		if !seen[peer] {
			seen[peer] = true
			o.geo.AddTarget(string(peer), o.geoCli.Target(peer, o.auditCli))
		}
	}
	if cfg.archive != nil {
		o.archive = georep.NewArchive(cfg.archive)
		o.geo.AddTarget("archive", o.archive)
	}
	if o.gated != nil {
		o.gated.Attach(o.geo)
	}
	if tel != nil {
		tel.SetHealth("replication:"+party, func() any { return o.geo.Status() })
	}
}

// startSub wires the live-subscription plane: every organisation can
// subscribe to peers' evidence feeds (the client) and serves its own (the
// service).
func (o *Org) startSub(cfg orgConfig) {
	o.subCli = protocol.NewSubClient(o.node.Coordinator())
	var opts []protocol.SubOption
	if cfg.openSubs {
		opts = append(opts, protocol.WithAnonymousSubscribe())
	}
	o.sub = protocol.NewSubService(o.node.Coordinator(), o.vault, opts...)
}

// registerHealth publishes the organisation's vault shape and seal-chain
// head on the domain's telemetry plane, where /healthz reports them.
func (o *Org) registerHealth() {
	tel := o.domain.tel
	if tel == nil {
		return
	}
	v := o.vault
	tel.SetHealth("vault:"+string(o.node.Party()), func() any {
		st := v.Stats()
		h := map[string]any{
			"segments":       st.Segments,
			"sealed_records": st.SealedRecords,
			"tail_records":   st.TailRecords,
			"last_seq":       st.LastSeq,
		}
		if m := v.Manifest(); len(m) > 0 {
			h["seal_head"] = m[len(m)-1].Digest
		}
		return h
	})
}

// Party returns the organisation's identifier.
func (o *Org) Party() Party { return o.node.Party() }

// Addr returns the organisation's coordinator address.
func (o *Org) Addr() string { return o.node.Coordinator().Addr() }

// Certificate returns the organisation's domain certificate.
func (o *Org) Certificate() *credential.Certificate { return o.cert }

// AccessControl returns the organisation's access manager.
func (o *Org) AccessControl() *access.Manager { return o.acl }

// Log returns the organisation's evidence log.
func (o *Org) Log() store.Log { return o.node.Log() }

// Vault returns the organisation's evidence vault; it is never nil.
// Without WithVault the vault lives in a temporary directory removed when
// the organisation closes. The vault exposes the audit query engine
// (Query, QueryAll, DeepVerify, Stats) beyond the Log interface. Under a
// sync quorum policy the node's log is the quorum-gated wrapper around
// this vault.
func (o *Org) Vault() *vault.Vault { return o.vault }

// Durability reports the organisation's replication state: policy mode,
// quorum arithmetic, per-replica acknowledgement watermarks and archival
// progress. Without WithReplication, WithQuorum or WithArchive it returns
// the zero Status (mode "", no targets).
func (o *Org) Durability() georep.Status {
	if o.geo == nil {
		return georep.Status{}
	}
	return o.geo.Status()
}

// Georep returns the organisation's replication engine, or nil without
// WithReplication/WithQuorum/WithArchive. Flush gives tests and planned
// shutdowns a deterministic "every replica and the archive are caught
// up" point.
func (o *Org) Georep() *georep.Engine { return o.geo }

// Archive returns the organisation's evidence archive over the object
// store supplied with WithArchive, or nil without one.
func (o *Org) Archive() *georep.Archive { return o.archive }

// Replicas returns the organisation's replica store — its verified copies
// of peer organisations' sealed segments — or nil when the organisation
// hosts none. Each source's replica directory is a valid read-only vault.
func (o *Org) Replicas() *vault.ReplicaSet { return o.replicas }

// AuditClient returns the organisation's remote-audit client. Every
// organisation has one — driving an audit needs only the coordinator;
// serving audits is what requires a vault or replica store.
func (o *Org) AuditClient() *protocol.AuditClient { return o.auditCli }

// RemoteAudit streams a full audit of a peer organisation's evidence and
// evaluates it with the domain adjudicator — the remote form of
// adjudicating a party's log, requiring no export and loading no more
// than one page of records at a time. A non-empty source audits the
// peer's replica of source's vault instead of the peer's own evidence:
// the dispute path when source itself is unavailable or uncooperative.
func (o *Org) RemoteAudit(ctx context.Context, peer Party, source Party) (*LogReport, error) {
	it := o.auditCli.Query(ctx, peer, vault.Query{}, string(source))
	// A stream failure (unreachable peer, integrity error on the serving
	// side) is both folded into the report's chain verdict and returned,
	// so callers distinguish "audited and faulty" from "could not audit".
	report := o.domain.Adjudicator().AuditStream(it)
	return report, it.Err()
}

// Subscribe opens a live, chain-verified feed over a peer organisation's
// vault: the publisher backfills from the requested resume position and
// then pushes every group commit as it lands. The sub-open is authorized
// with a token that the publisher appends to its own vault — the
// subscription itself becomes adjudicable evidence.
func (o *Org) Subscribe(ctx context.Context, publisher Party, cfg WatchConfig) (*Feed, error) {
	return o.subCli.Subscribe(ctx, publisher, cfg)
}

// Provenance fetches from a peer the provenance graph of one run — its
// tokens, the parties they bind, and runs derived through shared
// business transactions — grounded in the peer's vault indexes.
func (o *Org) Provenance(ctx context.Context, peer Party, run Run) (*ProvGraph, error) {
	return o.subCli.Provenance(ctx, peer, run)
}

// Subscribers reports how many live subscriptions the organisation's
// vault feed currently serves.
func (o *Org) Subscribers() int { return o.sub.Subscribers() }

// Watch subscribes one enrolled organisation to another's live evidence
// feed — Org.Subscribe, resolved through the domain.
func (d *Domain) Watch(ctx context.Context, subscriber, publisher Party, cfg WatchConfig) (*Feed, error) {
	org, err := d.Org(subscriber)
	if err != nil {
		return nil, err
	}
	return org.Subscribe(ctx, publisher, cfg)
}

// Container returns (creating on first use) the organisation's component
// container.
func (o *Org) Container() *container.Container {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cont == nil {
		o.cont = container.New(o.acl)
	}
	return o.cont
}

// Deploy installs a component in the organisation's container.
func (o *Org) Deploy(desc Descriptor, component any) error {
	return o.Container().Deploy(desc, component)
}

// Serve starts invocation servers for the given protocols (default:
// direct) executing requests through the container.
func (o *Org) Serve(opts ...ServerOption) *invoke.Server {
	srv := invoke.NewServer(o.node.Coordinator(), o.Container(), opts...)
	o.mu.Lock()
	o.servers = append(o.servers, srv)
	o.mu.Unlock()
	return srv
}

// ServeExecutor starts an invocation server with a custom executor
// instead of the container.
func (o *Org) ServeExecutor(exec Executor, opts ...ServerOption) *invoke.Server {
	srv := invoke.NewServer(o.node.Coordinator(), exec, opts...)
	o.mu.Lock()
	o.servers = append(o.servers, srv)
	o.mu.Unlock()
	return srv
}

// Client creates an invocation client. With WithDurable, the client's
// fair-protocol aborts that fail to reach the TTP are journaled as
// durable jobs and retried until the TTP answers (explicit
// WithAbortJournal options still win — they are applied later).
func (o *Org) Client(opts ...ClientOption) *invoke.Client {
	if o.durable != nil {
		opts = append([]ClientOption{invoke.WithAbortJournal(o.durable)}, opts...)
	}
	return invoke.NewClient(o.node.Coordinator(), opts...)
}

// Proxy creates a client-side dynamic proxy for a remote component. With
// WithDurable the proxy additionally supports CallAsync — invocations
// journaled as crash-resilient jobs.
func (o *Org) Proxy(server Party, service Service, clientOpts []ClientOption, proxyOpts ...container.ProxyOption) *Proxy {
	if o.durable != nil {
		proxyOpts = append([]container.ProxyOption{container.WithAsync(asyncRuntime{o.durable})}, proxyOpts...)
	}
	return container.NewProxy(o.Client(clientOpts...), server, service, proxyOpts...)
}

// Sharing returns (creating on first use) the organisation's B2BObject
// controller.
func (o *Org) Sharing() *sharing.Controller {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ctl == nil {
		o.ctl = sharing.NewController(o.node.Coordinator())
	}
	return o.ctl
}

// Share installs a local replica of a shared object (every founding
// member calls Share with identical arguments).
func (o *Org) Share(object string, initial []byte, group []Party) error {
	return o.Sharing().Create(object, initial, group)
}

// EnableRelay makes this organisation an inline TTP relay (Figure 3a/3b).
// Route nil relays straight to each request's server.
func (o *Org) EnableRelay(route invoke.RelayRoute) *invoke.Relay {
	if route == nil {
		route = invoke.RouteToServer()
	}
	return invoke.NewRelay(o.node.Coordinator(), route)
}

// RouteToServer is the final-hop relay route.
func RouteToServer() invoke.RelayRoute { return invoke.RouteToServer() }

// RouteVia chains relays (the distributed inline TTP of Figure 3b).
func RouteVia(peer Party) invoke.RelayRoute { return invoke.RouteVia(peer) }

// EnableResolve makes this organisation an offline TTP for fair-protocol
// abort/resolve recovery.
func (o *Org) EnableResolve() *invoke.ResolveService {
	return invoke.NewResolveService(o.node.Coordinator())
}

// EnableEPM makes this organisation an Electronic-Postmark service
// (paper section 5).
func (o *Org) EnableEPM() *ttp.EPM {
	return ttp.NewEPM(o.node.Coordinator())
}

// EPMClient creates a client of a postmark service hosted at epm.
func (o *Org) EPMClient(epm Party) *ttp.Client {
	return ttp.NewClient(o.node.Coordinator(), epm)
}

// ActivatePeerRoles activates the roles embedded in a peer's certificate
// with this organisation's access manager — the credential-exchange hook
// of paper section 3.5.
func (o *Org) ActivatePeerRoles(peer Party) error {
	org, err := o.domain.Org(peer)
	if err != nil {
		return err
	}
	o.acl.ActivateFromCertificate(org.cert)
	return nil
}

// Invoke performs a one-shot non-repudiable invocation without a proxy.
func (o *Org) Invoke(ctx context.Context, server Party, req Request, opts ...ClientOption) (*Result, error) {
	return o.Client(opts...).Invoke(ctx, server, req)
}

// Close stops the organisation — durable runtime, servers, replication,
// audit service, coordinator and evidence store — and removes it from the
// domain, releasing its vault lock and (for workers) its gateway lease.
// Close is idempotent; an organisation enrolled again afterwards over the
// same vault recovers its unfinished durable jobs.
func (o *Org) Close() error {
	p := o.Party()
	o.domain.mu.Lock()
	if o.domain.orgs[p] == o {
		delete(o.domain.orgs, p)
	}
	o.domain.mu.Unlock()
	return o.close()
}

// close is the idempotent teardown shared by Close and Domain.Close.
func (o *Org) close() error {
	o.closeOnce.Do(func() { o.closeErr = o.teardown() })
	return o.closeErr
}

func (o *Org) teardown() error {
	o.mu.Lock()
	servers := o.servers
	o.mu.Unlock()
	var firstErr error
	if o.durable != nil {
		// Stop job execution before the coordinator goes away; jobs not
		// yet terminal stay journaled for the next process's recovery.
		if err := o.durable.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, s := range servers {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if o.geo != nil {
		// Stop the push pumps (and unblock any quorum waiters) before the
		// coordinator they push through goes away.
		if err := o.geo.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := o.audit.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	// End live feeds and cancel the vault hooks before the vault itself
	// closes below.
	if err := o.sub.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := o.node.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := o.node.Log().Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// ErrNotEnrolled is returned for operations naming unknown organisations;
// match it with errors.Is.
var ErrNotEnrolled = errors.New("nonrep: organisation not enrolled")

// ErrAlreadyEnrolled is returned when enrolling a party the domain
// already serves (or whose enrolment is concurrently in flight); match it
// with errors.Is.
var ErrAlreadyEnrolled = errors.New("nonrep: organisation already enrolled")
