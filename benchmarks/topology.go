package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nonrep/internal/access"
	"nonrep/internal/clock"
	"nonrep/internal/container"
	"nonrep/internal/core"
	"nonrep/internal/credential"
	"nonrep/internal/durable"
	"nonrep/internal/evidence"
	"nonrep/internal/georep"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

// topo is one workload's trust domain, assembled the way nonrep.Domain
// assembles it (domain.go) but directly on core.NodeConfig, because that
// is where the Signer, Network and Log seams are. All wire traffic is
// real TCP over loopback; vaults live in directories under root and
// fsync every group commit, the vault's default policy.
//
// Every topology carries the harness's decorators on the Signer, Network,
// Log and Executor seams and its commit and seal hooks. With the tracer
// off (always, in an untraced run) a decorator costs one atomic load and
// the Network decorator its byte counters; spans are recorded only while
// the tracer is on.
type topo struct {
	root  string
	seed  int64
	clk   clock.Clock
	ca    *credential.Authority
	creds *credential.Store
	dir   *protocol.Directory
	tcp   *transport.TCPNetwork
	// pipeline, when set, turns on aggregate signing and envelope
	// coalescing on every node and host (nonrep.WithPipelining).
	pipeline *transport.CoalesceOptions

	tr      *tracer
	metered *meteredNetwork
	wire    *wireStats
	cap     *capture
	commits *commitStats

	orgs  []*org
	hosts []*protocol.Host
	// closers run before the organisations are stopped (subscribers that
	// must end before their publisher does).
	closers []func()
	closed  bool
}

func (t *topo) onClose(fn func()) { t.closers = append(t.closers, fn) }

// commitStats counts what the vaults' commit and seal hooks report.
type commitStats struct {
	commits   atomic.Int64
	records   atomic.Int64
	generated atomic.Int64 // records this party signed itself
	brackets  atomic.Int64 // job-* journal records
	seals     atomic.Int64
}

type commitSnapshot struct{ commits, records, generated, brackets, seals int64 }

func (c *commitStats) snapshot() commitSnapshot {
	return commitSnapshot{c.commits.Load(), c.records.Load(), c.generated.Load(), c.brackets.Load(), c.seals.Load()}
}

func (a commitSnapshot) sub(b commitSnapshot) commitSnapshot {
	return commitSnapshot{a.commits - b.commits, a.records - b.records, a.generated - b.generated, a.brackets - b.brackets, a.seals - b.seals}
}

func newTopo(root string, seed int64, pipelined bool) (*topo, error) {
	t := &topo{root: root, seed: seed, clk: clock.Real{}, dir: protocol.NewDirectory(), tcp: transport.NewTCPNetwork(),
		tr: newTracer(), wire: &wireStats{}, cap: &capture{}, commits: &commitStats{}}
	t.metered = &meteredNetwork{inner: t.tcp, tr: t.tr, wire: t.wire, cap: t.cap}
	caKey := t.key("urn:bench:ca")
	ca, err := credential.NewRootAuthority("urn:bench:ca", caKey, t.clk)
	if err != nil {
		return nil, err
	}
	t.ca = ca
	t.creds = credential.NewStore(t.clk)
	if err := t.creds.AddRoot(ca.Certificate()); err != nil {
		return nil, err
	}
	if pipelined {
		t.pipeline = &transport.CoalesceOptions{Clock: t.clk}
	}
	return t, nil
}

// key derives a party's Ed25519 key from the workload seed.
func (t *topo) key(name string) *sig.Ed25519Signer { return seedKey(t.seed, name) }

// seedKey derives a named Ed25519 key from a seed, so a seed fixes every
// signature a run produces.
func seedKey(seed int64, name string) *sig.Ed25519Signer {
	h := sha256.New()
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], uint64(seed))
	h.Write(s[:])
	h.Write([]byte(name))
	var keySeed [32]byte
	copy(keySeed[:], h.Sum(nil))
	return sig.NewEd25519FromSeed(name+"#key", keySeed)
}

// network returns the Network a node registers on, labelled for spans.
func (t *topo) network(node string) transport.Network { return t.metered.at(node) }

// addHost starts a multi-tenant host: one TCP listener shared by the
// organisations enrolled behind it.
func (t *topo) addHost(name string) (*protocol.Host, error) {
	var opts []protocol.Option
	if t.pipeline != nil {
		opts = append(opts, protocol.WithCoalescing(*t.pipeline))
	}
	h, err := protocol.NewHost(t.network(name), "127.0.0.1:0", opts...)
	if err != nil {
		return nil, err
	}
	t.hosts = append(t.hosts, h)
	return h, nil
}

// orgSpec says which parts of the production plane an organisation runs.
type orgSpec struct {
	party id.Party
	// host enrols the organisation behind a shared endpoint; hostName
	// labels its spans with that endpoint.
	host     *protocol.Host
	hostName string
	vault    bool       // evidence vault (4096-record segments, fsync per group commit: the defaults)
	replicas bool       // hosts peers' replica tails (geo service + audit service)
	durable  bool       // durable-invocation runtime (Proxy.CallAsync)
	geoPeers []id.Party // async trailing replication to these peers' replica stores
	feeds    bool       // serves live subscriptions over its vault
}

// org is one organisation's trusted interceptor plus the services the
// workload asked for.
type org struct {
	t     *topo
	party id.Party
	label string // wire node label for spans
	node  *core.Node
	v     *vault.Vault
	vdir  string

	srv      *invoke.Server
	replicas *vault.ReplicaSet
	rdir     string
	audit    *protocol.AuditService
	auditCli *protocol.AuditClient
	geo      *georep.Engine
	sub      *protocol.SubService
	subCli   *protocol.SubClient
	dur      *durable.Runtime

	cancelHooks []func()
	// stamp, on an organisation serving feeds, records the commit time of
	// every record of its vault by sequence number (feed-lag measurement).
	stamp *commitClock
}

// commitClock remembers when each sequence number became durable.
type commitClock struct {
	mu sync.Mutex
	at map[uint64]time.Time
}

func (c *commitClock) mark(recs []*store.Record) {
	now := time.Now()
	c.mu.Lock()
	for _, r := range recs {
		c.at[r.Seq] = now
	}
	c.mu.Unlock()
}

func dirName(p id.Party) string {
	return strings.NewReplacer(":", "_", "/", "_").Replace(string(p))
}

func (t *topo) addOrg(spec orgSpec) (*org, error) {
	o := &org{t: t, party: spec.party, label: string(spec.party)}
	if spec.host != nil {
		o.label = spec.hostName
	}
	key := t.key(string(spec.party))
	cert, err := t.ca.Issue(spec.party, key.KeyID(), key.PublicKey())
	if err != nil {
		return nil, err
	}
	if err := t.creds.Add(cert); err != nil {
		return nil, err
	}
	signer := &tracedSigner{Signer: key, tr: t.tr, party: string(spec.party), node: o.label}
	var log store.Log
	if spec.vault {
		o.vdir = filepath.Join(t.root, "vault-"+dirName(spec.party))
		if o.v, err = vault.Open(o.vdir, t.clk); err != nil {
			return nil, err
		}
		log = &tracedLog{Vault: o.v, tr: t.tr, party: string(spec.party), node: o.label}
		o.hookVault()
	}
	cfg := core.NodeConfig{
		Party:        spec.party,
		Signer:       signer,
		Creds:        t.creds,
		Clock:        t.clk,
		Network:      t.network(o.label),
		Addr:         "127.0.0.1:0",
		Directory:    t.dir,
		Log:          log,
		BatchSigning: t.pipeline != nil,
		Coalesce:     t.pipeline,
		Host:         spec.host,
	}
	if o.node, err = core.NewNode(cfg); err != nil {
		if o.v != nil {
			o.v.Close()
		}
		return nil, err
	}
	t.orgs = append(t.orgs, o) // from here on topo.close tears the organisation down
	co := o.node.Coordinator()
	o.auditCli = protocol.NewAuditClient(co)
	if spec.replicas {
		o.rdir = filepath.Join(t.root, "replicas-"+dirName(spec.party))
		if o.replicas, err = vault.OpenReplicaSet(o.rdir); err != nil {
			return nil, err
		}
		protocol.NewGeoService(co, o.replicas) // registers itself with the coordinator
	}
	if o.v != nil || o.replicas != nil {
		o.audit = protocol.NewAuditService(co, o.v, o.replicas, protocol.WithShipAuth())
	}
	if len(spec.geoPeers) > 0 {
		geoCli := protocol.NewGeoClient(co)
		o.geo = georep.NewEngine(o.v, string(spec.party), georep.Policy{Mode: georep.ModeAsync}, t.clk)
		for _, peer := range spec.geoPeers {
			o.geo.AddTarget(string(peer), geoCli.Target(peer, o.auditCli))
		}
	}
	o.subCli = protocol.NewSubClient(co)
	if spec.feeds {
		// Registered before the subscription service, so a record's commit
		// time is stamped before its fan-out begins.
		o.stamp = &commitClock{at: make(map[uint64]time.Time)}
		o.cancelHooks = append(o.cancelHooks, o.v.OnCommit(o.stamp.mark))
		o.sub = protocol.NewSubService(co, o.v)
	}
	if spec.durable {
		svc := o.node.Services()
		journal := durable.NewJournal(spec.party, svc.Issuer, o.node.Log(), t.clk)
		o.dur = durable.New(invoke.NewClient(co), journal, durable.Config{Retry: durable.DefaultRetryPolicy, Clock: t.clk})
		if _, err := o.dur.Recover(); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// hookVault counts group commits and seals through the vault's own hooks.
func (o *org) hookVault() {
	c := o.t.commits
	o.cancelHooks = append(o.cancelHooks,
		o.v.OnCommit(func(recs []*store.Record) {
			c.commits.Add(1)
			c.records.Add(int64(len(recs)))
			for _, r := range recs {
				if r.Direction == store.Generated {
					c.generated.Add(1)
				}
				switch r.Token.Kind {
				case evidence.KindJobEnqueued, evidence.KindJobAttempt, evidence.KindJobDone:
					c.brackets.Add(1)
				}
			}
		}),
		o.v.OnSeal(func(vault.ManifestEntry) { c.seals.Add(1) }),
	)
}

// echoService is the URI of the echo component an organisation serves.
func echoService(p id.Party) id.Service { return id.Service(string(p) + "/echo") }

// echo is the component under every workload: it returns what it was
// given, so component time is a floor, not a variable.
type echo struct{}

func (echo) Echo(_ context.Context, blob []byte) ([]byte, error) { return blob, nil }

func (echo) EchoStream(_ context.Context, in io.Reader, out io.Writer) (int64, error) {
	return io.Copy(out, in)
}

// serveEcho deploys the echo component in the organisation's container
// and starts a direct-protocol invocation server over it.
func (o *org) serveEcho() error {
	cont := container.New(access.NewManager())
	desc := container.Descriptor{
		Service: echoService(o.party),
		Methods: map[string]container.MethodPolicy{
			"Echo":       {NonRepudiation: true},
			"EchoStream": {NonRepudiation: true},
		},
	}
	if err := cont.Deploy(desc, echo{}); err != nil {
		return err
	}
	exec := &tracedExecutor{inner: cont, tr: o.t.tr, cap: o.t.cap, party: string(o.party), node: o.label}
	o.srv = invoke.NewServer(o.node.Coordinator(), exec)
	return nil
}

// asyncAdapter bridges the durable runtime to the proxy's submitter
// interface, as the nonrep package does.
type asyncAdapter struct{ r *durable.Runtime }

func (a asyncAdapter) SubmitAsync(ctx context.Context, server id.Party, req invoke.Request) (container.AsyncJob, error) {
	job, err := a.r.Submit(ctx, server, req)
	if err != nil {
		return nil, err
	}
	return job, nil
}

// proxy returns a client-side proxy for server's echo component.
func (o *org) proxy(server id.Party) *container.Proxy {
	var opts []container.ProxyOption
	if o.dur != nil {
		opts = append(opts, container.WithAsync(asyncAdapter{o.dur}))
	}
	return container.NewProxy(invoke.NewClient(o.node.Coordinator()), server, echoService(server), opts...)
}

// close stops the organisation in the order Org.teardown does.
func (o *org) close() error {
	var errs []error
	keep := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	if o.dur != nil {
		keep(o.dur.Close())
	}
	if o.srv != nil {
		keep(o.srv.Close())
	}
	if o.geo != nil {
		keep(o.geo.Close())
	}
	if o.audit != nil {
		keep(o.audit.Close())
	}
	if o.sub != nil {
		keep(o.sub.Close())
	}
	for _, cancel := range o.cancelHooks {
		cancel()
	}
	keep(o.node.Close())
	keep(o.node.Log().Close())
	return errors.Join(errs...)
}

// vaults lists the organisations that keep an evidence vault.
func (t *topo) vaults() []*org {
	var out []*org
	for _, o := range t.orgs {
		if o.v != nil {
			out = append(out, o)
		}
	}
	return out
}

// evidenceDirs lists every directory evidence is persisted in: vaults
// and replica stores.
func (t *topo) evidenceDirs() []string {
	var out []string
	for _, o := range t.orgs {
		if o.vdir != "" {
			out = append(out, o.vdir)
		}
		if o.rdir != "" {
			out = append(out, o.rdir)
		}
	}
	return out
}

// sealAll seals every vault's active segment, so that directory sizes
// taken before and after an interval both include index and manifest
// bytes for everything written so far.
func (t *topo) sealAll() error {
	for _, o := range t.vaults() {
		if err := o.v.SealNow(); err != nil {
			return fmt.Errorf("seal %s: %w", o.party, err)
		}
	}
	return nil
}

// close stops every organisation and host and the TCP network; the
// vault directories stay. A second close does nothing.
func (t *topo) close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	var errs []error
	for _, fn := range t.closers {
		fn()
	}
	for _, o := range t.orgs {
		if err := o.close(); err != nil {
			errs = append(errs, fmt.Errorf("close %s: %w", o.party, err))
		}
	}
	for _, h := range t.hosts {
		if err := h.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := t.tcp.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// destroy closes the domain and removes its directories.
func (t *topo) destroy() error {
	err := t.close()
	os.RemoveAll(t.root)
	return err
}

// dirBytes sums the sizes of the regular files under each directory.
func dirBytes(dirs ...string) (int64, error) {
	var total int64
	for _, dir := range dirs {
		err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if fi.Mode().IsRegular() {
				total += fi.Size()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
