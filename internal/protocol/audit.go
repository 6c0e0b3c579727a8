// Remote audit and sealed-segment replication over the coordinator: the
// paper's dispute-resolution story requires an adjudicator to evaluate a
// party's evidence log, and its survivability story requires that log to
// outlive the party's storage. AuditService makes both first-class
// protocol services on the B2BCoordinator — new audit-* message kinds
// stream a vault's query results to a remote adjudicator page by page,
// and seg-* kinds ship sealed segments to peer organisations' replica
// stores. Hosted tenants get both for free: the service registers as an
// ordinary protocol handler, so the multi-tenant host's dispatch routes
// audit and replication traffic to each tenant exactly like invocation
// traffic.
package protocol

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/vault"
)

// AuditProtocol is the protocol name the audit service registers under.
const AuditProtocol = "nonrep/audit"

// Audit-protocol message kinds.
const (
	// KindAuditQuery requests one page of vault query results.
	KindAuditQuery = "audit-query"
	// KindAuditStats requests the vault's shape.
	KindAuditStats = "audit-stats"
	// KindSegStatus asks what a peer's replica store already holds for a
	// source — the replication catch-up negotiation.
	KindSegStatus = "seg-status"
	// KindSegShip delivers one sealed segment package to a peer's
	// replica store.
	KindSegShip = "seg-ship"
)

// ErrNoVault is returned when an audit names a vault the serving
// organisation does not have.
var ErrNoVault = errors.New("protocol: no vault to audit")

// DefaultAuditPage is the default records-per-page of remote audit
// streaming.
const DefaultAuditPage = 256

// MaxAuditPage caps the page size a remote auditor may request, bounding
// the memory one audit-query pins on the serving side.
const MaxAuditPage = 4096

// auditQueryReq is the body of an audit-query message: a vault.Query plus
// a resume cursor. Source selects whose evidence: empty for the serving
// organisation's own vault, or a party identifier to read the serving
// organisation's replica of that party's vault — the disaster path where
// an adjudication is served entirely from a peer's replicas.
type auditQueryReq struct {
	Source   string        `json:"source,omitempty"`
	Run      id.Run        `json:"run,omitempty"`
	Txn      id.Txn        `json:"txn,omitempty"`
	Party    id.Party      `json:"party,omitempty"`
	Kind     evidence.Kind `json:"kind,omitempty"`
	From     time.Time     `json:"from,omitempty"`
	To       time.Time     `json:"to,omitempty"`
	AfterSeq uint64        `json:"after_seq,omitempty"`
	Page     int           `json:"page,omitempty"`
}

func (q *auditQueryReq) vaultQuery() vault.Query {
	return vault.Query{
		Run: q.Run, Txn: q.Txn, Party: q.Party, Kind: q.Kind,
		From: q.From, To: q.To,
		// The resume cursor reaches the vault's query planner, which
		// prunes whole sealed segments behind it — each page costs the
		// remainder of the log, not a rescan from the start.
		AfterSeq: q.AfterSeq,
	}
}

// auditQueryResp is one page of query results in log order. More reports
// that records beyond this page may exist; the client resumes with
// AfterSeq set past the page's last record.
type auditQueryResp struct {
	Records []*store.Record `json:"records,omitempty"`
	More    bool            `json:"more,omitempty"`
}

// auditStatsReq selects whose vault to describe (empty = own).
type auditStatsReq struct {
	Source string `json:"source,omitempty"`
}

type auditStatsResp struct {
	Stats vault.Stats `json:"stats"`
}

// segStatusReq asks what the replica store holds for a source vault.
type segStatusReq struct {
	Source string `json:"source"`
}

type segStatusResp struct {
	// LastSegment is the highest replicated segment number (0 = none).
	LastSegment uint64 `json:"last_segment"`
}

// segShipReq delivers one sealed segment of Source's vault. The
// segment's bytes ride the message's Attachment, and the package in the
// body carries only its entry: a Package.Data in the body is never read.
type segShipReq struct {
	Source  string                `json:"source"`
	Package *vault.SegmentPackage `json:"package"`
}

// shipClaim is the canonical content a KindSegShip token signs: the
// seal digest pins the shipped segment's exact bytes (Receive verifies
// that), so signing the claim authenticates the whole package without
// hashing megabytes of segment data a second time. The token's issuer
// must be the source organisation itself — shipping someone's evidence
// requires their key.
type shipClaim struct {
	Source  string     `json:"source"`
	Segment uint64     `json:"segment"`
	Seal    sig.Digest `json:"seal"`
}

type segShipResp struct {
	LastSegment uint64 `json:"last_segment"`
}

// AuditService serves remote audit and replication for one organisation:
// its own vault (if any) for audit-query/audit-stats, and its replica
// store (if any) for seg-status/seg-ship and for audits of peers'
// replicated evidence. Register it once per coordinator; hosted and
// dedicated coordinators are served identically.
type AuditService struct {
	RequestMux
	co       *Coordinator
	vault    *vault.Vault
	replicas *vault.ReplicaSet
	clk      clock.Clock

	// cached holds one read-only open per replica source, versioned by
	// the replicated segment count: paged audits re-query per page, and
	// re-verifying a replica's whole manifest and index set on every page
	// would make an audit O(pages × segments). Replicas are append-only,
	// so the segment count is a sound version key.
	mu     sync.Mutex
	cached map[string]*cachedReplica
}

type cachedReplica struct {
	v        *vault.Vault
	segments uint64
}

// AuditOption configures an AuditService.
type AuditOption func(*AuditService)

// WithShipAuth once made seg-ship authentication opt-in.
//
// Deprecated: every AuditService refuses a seg-ship that lacks a valid
// KindSegShip token issued by the source it names; the option sets
// nothing.
func WithShipAuth() AuditOption {
	return func(*AuditService) {}
}

// NewAuditService registers the audit protocol on co, serving v (may be
// nil for an organisation without a vault) and the replica store rs (may
// be nil for an organisation that accepts no replicas).
func NewAuditService(co *Coordinator, v *vault.Vault, rs *vault.ReplicaSet, opts ...AuditOption) *AuditService {
	s := &AuditService{co: co, vault: v, replicas: rs, clk: co.Services().Clock, cached: make(map[string]*cachedReplica)}
	if s.clk == nil {
		s.clk = clock.Real{}
	}
	for _, opt := range opts {
		opt(s)
	}
	s.RequestMux = NewRequestMux(AuditProtocol, "audit", map[string]RequestFunc{
		KindAuditQuery: s.handleQuery,
		KindAuditStats: s.handleStats,
		KindSegStatus:  s.handleSegStatus,
		KindSegShip:    s.handleSegShip,
	})
	co.Register(s)
	return s
}

// Close releases the cached read-only replica opens (and any lock
// handles they hold). The service itself needs no other teardown; the
// coordinator deregisters handlers when it closes.
func (s *AuditService) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for source, c := range s.cached {
		if err := c.v.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(s.cached, source)
	}
	return firstErr
}

// openSource resolves the vault an audit reads: the organisation's own,
// or a (cached) read-only open of a peer's replica.
func (s *AuditService) openSource(source string) (*vault.Vault, error) {
	if source == "" || source == string(s.co.Party()) {
		if s.vault == nil {
			return nil, fmt.Errorf("%w at %s", ErrNoVault, s.co.Party())
		}
		return s.vault, nil
	}
	if s.replicas == nil {
		return nil, fmt.Errorf("%w: %s holds no replicas", ErrNoVault, s.co.Party())
	}
	segments, err := s.replicas.LastSealed(source)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.cached[source]; ok && c.segments == segments {
		return c.v, nil
	}
	v, err := vault.Open(s.replicas.Dir(source), s.clk, vault.WithReadOnly())
	if err != nil {
		return nil, fmt.Errorf("protocol: open replica of %s: %w", source, err)
	}
	if old, ok := s.cached[source]; ok {
		// Closing a read-only vault only releases its lock handle; an
		// in-flight iterator reads segment files through its own handles
		// and in-memory indexes, so evicting under it is safe.
		_ = old.v.Close()
	}
	s.cached[source] = &cachedReplica{v: v, segments: segments}
	return v, nil
}

func (s *AuditService) handleQuery(_ context.Context, msg *Message) (*Message, error) {
	var req auditQueryReq
	if err := msg.Body(&req); err != nil {
		return nil, err
	}
	page := req.Page
	if page <= 0 {
		page = DefaultAuditPage
	}
	if page > MaxAuditPage {
		page = MaxAuditPage
	}
	v, err := s.openSource(req.Source)
	if err != nil {
		return nil, err
	}
	it := v.Query(req.vaultQuery())
	resp := auditQueryResp{}
	for it.Next() {
		if len(resp.Records) == page {
			resp.More = true
			break
		}
		resp.Records = append(resp.Records, it.Record())
	}
	if err := it.Err(); err != nil {
		// Integrity failures travel to the auditor as errors, not as
		// silently truncated result sets.
		return nil, err
	}
	return msg.Reply("audit-page", &resp)
}

func (s *AuditService) handleStats(_ context.Context, msg *Message) (*Message, error) {
	var req auditStatsReq
	if err := msg.Body(&req); err != nil {
		return nil, err
	}
	v, err := s.openSource(req.Source)
	if err != nil {
		return nil, err
	}
	return msg.Reply("audit-stats-reply", &auditStatsResp{Stats: v.Stats()})
}

func (s *AuditService) handleSegStatus(_ context.Context, msg *Message) (*Message, error) {
	var req segStatusReq
	if err := msg.Body(&req); err != nil {
		return nil, err
	}
	if s.replicas == nil {
		return nil, errNoReplicas(s.co)
	}
	last, err := s.replicas.LastSealed(req.Source)
	if err != nil {
		return nil, err
	}
	return msg.Reply("seg-status-reply", &segStatusResp{LastSegment: last})
}

// handleSegShip installs a shipped segment. The shipment must be signed
// by the source it names: a KindSegShip token over the ship claim, whose
// seal digest pins the segment's exact bytes. A replayed stale claim (an
// old segment's genuine token) passes the check but lands in Receive's
// idempotence/conflict handling: the seal digest pins exactly one
// accepted history position.
func (s *AuditService) handleSegShip(_ context.Context, msg *Message) (*Message, error) {
	var req segShipReq
	if err := msg.Body(&req); err != nil {
		return nil, err
	}
	if s.replicas == nil {
		return nil, errNoReplicas(s.co)
	}
	if req.Package == nil || len(msg.Attachment) == 0 {
		return nil, errors.New("protocol: seg-ship without a package and its attached segment")
	}
	req.Package.Data = msg.Attachment
	claim := &shipClaim{Source: req.Source, Segment: req.Package.Entry.Segment, Seal: req.Package.Entry.Digest}
	if _, err := s.co.verifyClaim(msg, evidence.KindSegShip, id.Party(req.Source), claim); err != nil {
		return nil, err
	}
	// Receive applies the full seal-chain verification rule; a tampered
	// or conflicting package is refused here and the refusal travels back
	// to the shipper as the request error.
	if err := s.replicas.Receive(req.Source, req.Package); err != nil {
		return nil, err
	}
	last, err := s.replicas.LastSealed(req.Source)
	if err != nil {
		return nil, err
	}
	return msg.Reply("seg-ship-reply", &segShipResp{LastSegment: last})
}

// errNoReplicas refuses a replica-bound request at an organisation that
// keeps no replica store.
func errNoReplicas(co *Coordinator) error {
	return fmt.Errorf("protocol: %s accepts no replicas", co.Party())
}

// AuditClient drives remote audits and replication shipping through a
// coordinator. The zero page size means DefaultAuditPage.
type AuditClient struct {
	co   *Coordinator
	page int
}

// NewAuditClient creates an audit client sending through co.
func NewAuditClient(co *Coordinator) *AuditClient {
	return &AuditClient{co: co}
}

// SetPage overrides the records-per-page of Query streaming.
func (c *AuditClient) SetPage(n int) {
	if n > 0 {
		c.page = n
	}
}

// Stats fetches the shape of a peer's vault (source empty) or of the
// peer's replica of source's vault.
func (c *AuditClient) Stats(ctx context.Context, peer id.Party, source string) (vault.Stats, error) {
	var resp auditStatsResp
	err := c.co.exchangeWith(ctx, peer, peerRequest{protocol: AuditProtocol, kind: KindAuditStats, body: &auditStatsReq{Source: source}}, &resp)
	return resp.Stats, err
}

// Query streams a peer's vault query results as a RecordSource for the
// adjudicator: pages are fetched lazily as the stream is consumed, so
// memory on both sides is bounded by one page regardless of log size.
// An empty source audits the peer's own vault; naming a party audits the
// peer's replica of that party's vault.
func (c *AuditClient) Query(ctx context.Context, peer id.Party, q vault.Query, source string) *RemoteIterator {
	addr, err := c.co.Services().Directory.Resolve(peer)
	if err != nil {
		return &RemoteIterator{err: err}
	}
	return c.QueryAddr(ctx, addr, q, source)
}

// QueryAddr is Query against an explicit coordinator address. The
// query's AfterSeq seeds the paging cursor (resuming an interrupted
// audit skips what was already streamed) and its Limit bounds the total
// records the iterator yields.
func (c *AuditClient) QueryAddr(ctx context.Context, addr string, q vault.Query, source string) *RemoteIterator {
	return &RemoteIterator{
		c:     c,
		ctx:   ctx,
		addr:  addr,
		limit: q.Limit,
		req: auditQueryReq{
			Source: source,
			Run:    q.Run, Txn: q.Txn, Party: q.Party, Kind: q.Kind,
			From: q.From, To: q.To,
			AfterSeq: q.AfterSeq,
			Page:     c.page,
		},
		more: true,
	}
}

// ReplicaStatus asks a peer what its replica store holds for source.
func (c *AuditClient) ReplicaStatus(ctx context.Context, peer id.Party, source string) (uint64, error) {
	var resp segStatusResp
	err := c.co.exchangeWith(ctx, peer, peerRequest{protocol: AuditProtocol, kind: KindSegStatus, body: &segStatusReq{Source: source}}, &resp)
	return resp.LastSegment, err
}

// ShipSegment delivers one sealed segment package for source to a peer's
// replica store, the segment's bytes on the message's attachment. The
// shipment carries a KindSegShip token over the canonical ship claim,
// binding it to this organisation's signing key; receivers accept
// nothing less, so a coordinator without an issuer cannot ship.
func (c *AuditClient) ShipSegment(ctx context.Context, peer id.Party, source string, pkg *vault.SegmentPackage) error {
	if pkg == nil {
		return errors.New("protocol: seg-ship without a package")
	}
	return c.co.exchangeWith(ctx, peer, peerRequest{
		protocol:   AuditProtocol,
		kind:       KindSegShip,
		body:       &segShipReq{Source: source, Package: &vault.SegmentPackage{Entry: pkg.Entry}},
		attachment: pkg.Data,
		claimKind:  evidence.KindSegShip,
		claim:      &shipClaim{Source: source, Segment: pkg.Entry.Segment, Seal: pkg.Entry.Digest},
	}, nil)
}

// ShipTarget adapts a peer into a ship-only vault.ShipTarget for the
// georep engine (GeoClient.Target adds the tail pushes that make the
// peer a voting replica). The peer's address is resolved through the
// directory on every call, so targets may be registered before the peer
// enrols.
func (c *AuditClient) ShipTarget(peer id.Party) vault.ShipTarget {
	return &auditShipTarget{c: c, peer: peer}
}

type auditShipTarget struct {
	c    *AuditClient
	peer id.Party
}

func (t *auditShipTarget) LastSealed(ctx context.Context, source string) (uint64, error) {
	return t.c.ReplicaStatus(ctx, t.peer, source)
}

func (t *auditShipTarget) Ship(ctx context.Context, source string, pkg *vault.SegmentPackage) error {
	return t.c.ShipSegment(ctx, t.peer, source, pkg)
}

// RemoteIterator pages a remote vault query, implementing the
// adjudicator's RecordSource: Next/Record/Err. Integrity failures on the
// serving side surface through Err, exactly like a local vault iterator.
type RemoteIterator struct {
	c     *AuditClient
	ctx   context.Context
	addr  string
	limit int
	req   auditQueryReq

	pending []*store.Record
	pos     int
	emitted int
	more    bool
	cur     *store.Record
	err     error
}

// Next advances to the next record, fetching the next page when the
// current one is exhausted.
func (it *RemoteIterator) Next() bool {
	if it.err != nil {
		return false
	}
	for {
		if it.limit > 0 && it.emitted >= it.limit {
			return false
		}
		if it.pos < len(it.pending) {
			it.cur = it.pending[it.pos]
			it.pos++
			it.emitted++
			return true
		}
		if !it.more {
			return false
		}
		// A limit smaller than the page size shrinks the fetch, so the
		// serving side reads no more than the caller will consume.
		if it.limit > 0 {
			remaining := it.limit - it.emitted
			page := it.req.Page
			if page <= 0 {
				page = DefaultAuditPage
			}
			if remaining < page {
				it.req.Page = remaining
			}
		}
		var resp auditQueryResp
		req := peerRequest{protocol: AuditProtocol, kind: KindAuditQuery, body: &it.req}
		if err := it.c.co.exchange(it.ctx, it.addr, req, &resp); err != nil {
			it.err = err
			return false
		}
		// A malformed page that repeats or rewinds the cursor would loop
		// forever; treat it as the protocol violation it is.
		last := it.req.AfterSeq
		for _, rec := range resp.Records {
			if rec == nil || rec.Seq <= last {
				it.err = fmt.Errorf("protocol: audit page out of order from %s", it.addr)
				return false
			}
			last = rec.Seq
		}
		it.req.AfterSeq = last
		it.pending, it.pos = resp.Records, 0
		it.more = resp.More
		if len(it.pending) == 0 {
			// An empty page claiming more would fetch forever in place.
			if it.more {
				it.err = fmt.Errorf("protocol: empty audit page claiming more from %s", it.addr)
			}
			return false
		}
	}
}

// Record returns the record Next advanced to.
func (it *RemoteIterator) Record() *store.Record { return it.cur }

// Err returns the first error the stream hit.
func (it *RemoteIterator) Err() error { return it.err }
