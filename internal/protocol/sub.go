// Live evidence subscriptions over the coordinator: the push complement
// of the pull-only audit plane. A subscriber opens a token-authorized
// subscription against a publisher's vault (sub-open) and the publisher
// streams every committed record back as it lands (sub-records), plus
// seal notifications on request (sub-seal); record frames ride the
// pushes' attachments. The feed is hash-chain-continuous end to end: the
// subscriber names the chain position it resumes from, the publisher
// reads its vault from there on, and the subscriber re-derives the chain
// over everything it receives — a gap, duplicate or forgery fails loudly
// instead of streaming on.
//
// Authorization is evidence, not configuration: the sub-open token's
// digest covers the canonical subscribe request, and the publisher
// appends the token to its vault as received evidence before serving a
// single record — who watched whose evidence from when is adjudicable
// with the same machinery as the interactions themselves. Both ends are
// kind tables on the peer-service skeleton (peer.go) and register as
// ordinary protocol handlers, so hosted tenants get the subscription
// plane through the same tenant demux as everything else.
package protocol

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/feed"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/vault"
)

// SubProtocol is the publisher-side subscription service protocol.
const SubProtocol = "nonrep/sub"

// SubFeedProtocol is the subscriber-side push protocol: the publisher
// delivers feed events to it as acknowledged requests, addressed by
// subscription id.
const SubFeedProtocol = "nonrep/sub-feed"

// Subscription-protocol message kinds.
const (
	// KindSubOpen opens (or resumes) a subscription.
	KindSubOpen = "sub-open"
	// KindSubClose ends a subscription.
	KindSubClose = "sub-close"
	// KindSubRecords pushes one chain-ordered batch of committed records.
	KindSubRecords = "sub-records"
	// KindSubSeal pushes a seal notification.
	KindSubSeal = "sub-seal"
	// KindSubEvict tells a subscriber it was evicted and why.
	KindSubEvict = "sub-evict"
	// KindSubAck acknowledges one push. The publisher awaits each
	// acknowledgement, so it observes delivery failure (a detached or
	// re-enrolled subscriber refuses the push) and evicts the dead
	// subscription instead of feeding into the void — and pushes to one
	// subscriber are strictly ordered.
	KindSubAck = "sub-ack"
)

// Subscription-plane errors.
var (
	// ErrSubUnauthorized is returned when a sub-open carries no valid
	// authorization token and the publisher does not allow anonymous
	// subscriptions.
	ErrSubUnauthorized = errors.New("protocol: subscription not authorized")
	// ErrSubUnknown is returned for operations naming a subscription the
	// receiver does not hold — including pushes arriving for a detached
	// tenant's subscription, which is what keeps a re-enrolled party from
	// receiving its predecessor's feed.
	ErrSubUnknown = errors.New("protocol: unknown subscription")
	// ErrSubSegmentsGone refuses a sub-open that asks for sealed-segment
	// packages: seals are notifications only, and a region that needs
	// the segments is a replication target of the publisher.
	ErrSubSegmentsGone = errors.New("protocol: segment packages are no longer served with seals")
	// ErrSubEvicted surfaces on a Feed its publisher ended (a push went
	// unacknowledged for pushTimeout, or a read failed); a slow consumer
	// lags instead. Resume from Position.
	ErrSubEvicted = errors.New("protocol: subscription evicted by publisher")
	// ErrFeedOverflow surfaces on a Feed whose local consumer stopped
	// draining Events; the receive path never waits for it.
	ErrFeedOverflow = errors.New("protocol: feed buffer overflow, events not drained")
	// ErrFeedDetached surfaces on Feeds of a subscriber whose coordinator
	// detached (tenant removal or close).
	ErrFeedDetached = errors.New("protocol: subscriber detached")
)

// DefaultFeedBuffer is the subscriber-side event buffer (events, not
// records).
const DefaultFeedBuffer = 1024

// pushTimeout bounds one push delivery on the publisher side; past it
// the subscriber counts as dead and is evicted.
const pushTimeout = 15 * time.Second

// subOpenReq is the canonical body the sub-open token's digest covers.
type subOpenReq struct {
	Subscriber id.Party   `json:"subscriber"`
	SubID      string     `json:"sub_id"`
	Addr       string     `json:"addr"`
	AfterSeq   uint64     `json:"after_seq,omitempty"`
	AfterHash  sig.Digest `json:"after_hash,omitempty"`
	Seals      bool       `json:"seals,omitempty"`
	// Segments is what a subscriber built when seals could carry segment
	// packages sends; it is kept on the wire only so such a sub-open is
	// refused rather than served a feed without them.
	Segments bool `json:"segments,omitempty"`
}

type subOpenResp struct {
	SubID string `json:"sub_id"`
	// HeadSeq is the vault's chain head at open.
	HeadSeq uint64 `json:"head_seq"`
}

type subCloseReq struct {
	SubID string `json:"sub_id"`
}

type subCloseResp struct {
	Closed bool `json:"closed"`
}

// subRecordsPush carries one chain-ordered batch as concatenated binary
// record frames (the segment-file encoding) rather than JSON records:
// the receiving coordinator skips over the frames instead of tokenising
// every record, and a client fanning one push out to many local feeds
// decodes and hash-verifies the batch exactly once. The frames ride the
// message's Attachment, reaching the client as a borrowed sub-slice of
// the envelope body.
type subRecordsPush struct {
	SubID string `json:"sub_id"`
	First uint64 `json:"first"`
	Count int    `json:"count"`
}

// subSealPush announces one seal.
type subSealPush struct {
	SubID string              `json:"sub_id"`
	Entry vault.ManifestEntry `json:"entry"`
}

type subEvictPush struct {
	SubID  string `json:"sub_id"`
	Reason string `json:"reason"`
}

// SubOption configures a SubService.
type SubOption func(*SubService)

// WithAnonymousSubscribe permits subscriptions without a sub-open token
// — the same trust stance as the (unauthenticated) remote audit plane,
// for adjudication tooling like nrverify -follow that holds no domain
// credentials. Domain organisations stay strict by default.
func WithAnonymousSubscribe() SubOption {
	return func(s *SubService) { s.anon = true }
}

// SubService serves live subscriptions over one organisation's vault:
// one goroutine per subscription runs its feed.Cursor and pushes what it
// reads. Register it once per coordinator; Detach (or Close) ends every
// subscription — the coordinator and host call it on tenant detach.
type SubService struct {
	RequestMux
	co   *Coordinator
	v    *vault.Vault
	anon bool

	subscribers *obs.Gauge
	pushedRecs  *obs.Counter
	pushedSeals *obs.Counter
	evicted     *obs.Counter
	lag         *obs.Histogram

	mu     sync.Mutex
	closed bool
	subs   map[string]*serverSub
}

type serverSub struct {
	id, addr string
	run      id.Run
	cancel   context.CancelFunc
	done     chan struct{}
}

// NewSubService registers the subscription protocol on co, serving v's
// live feed. Its instruments (subscriber gauge, push and eviction
// counters, lag behind the head at each push) home in the coordinator's
// telemetry scope.
func NewSubService(co *Coordinator, v *vault.Vault, opts ...SubOption) *SubService {
	scope := co.Services().Obs
	s := &SubService{
		co:          co,
		v:           v,
		subs:        make(map[string]*serverSub),
		subscribers: scope.Gauge(obs.MSubSubscribers),
		pushedRecs:  scope.Counter(obs.MSubPushedRecords),
		pushedSeals: scope.Counter(obs.MSubPushedSeals),
		evicted:     scope.Counter(obs.MSubEvictedTotal),
		lag:         scope.Histogram(obs.MSubLagRecords),
	}
	for _, opt := range opts {
		opt(s)
	}
	// Pushes travel the other way, on SubFeedProtocol.
	s.RequestMux = NewRequestMux(SubProtocol, "subscription", map[string]RequestFunc{
		KindSubOpen:  s.handleOpen,
		KindSubClose: s.handleClose,
	})
	co.Register(s)
	return s
}

// Subscribers reports the live subscription count.
func (s *SubService) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Detach ends every subscription and returns once none is pushing — at
// worst after pushTimeout, for a push already on the wire to a
// subscriber that stopped answering. It is idempotent and is invoked by
// the coordinator/host when the tenant detaches, so a re-enrolled
// successor starts with a clean plane and the predecessor's subscribers
// stop receiving.
func (s *SubService) Detach() {
	s.mu.Lock()
	s.closed = true
	subs := s.subs
	s.subs = make(map[string]*serverSub)
	s.subscribers.Add(-int64(len(subs)))
	s.mu.Unlock()
	for _, ss := range subs {
		ss.cancel()
	}
	for _, ss := range subs {
		<-ss.done
	}
}

// Close is Detach under the conventional name for org teardown paths.
func (s *SubService) Close() error {
	s.Detach()
	return nil
}

// drop deregisters ss, reporting whether it was still registered.
func (s *SubService) drop(ss *serverSub) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subs[ss.id] != ss {
		return false
	}
	delete(s.subs, ss.id)
	s.subscribers.Add(-1)
	return true
}

// handleOpen opens a subscription. Unless the service allows anonymous
// subscribers, the sub-open must carry a KindSubOpen token from the
// subscriber over the canonical request — so the resume position and
// delivery address the publisher acts on are exactly what the subscriber
// authorized — and the token is journaled before a record is served.
func (s *SubService) handleOpen(_ context.Context, msg *Message) (*Message, error) {
	if s.v == nil {
		return nil, fmt.Errorf("%w at %s", ErrNoVault, s.co.Party())
	}
	var req subOpenReq
	if err := msg.Body(&req); err != nil {
		return nil, err
	}
	if req.SubID == "" || req.Addr == "" {
		return nil, errors.New("protocol: sub-open needs a subscription id and a delivery address")
	}
	if req.Segments {
		return nil, ErrSubSegmentsGone
	}
	if !s.anon {
		tok, err := s.co.verifyClaim(msg, evidence.KindSubOpen, req.Subscriber, &req)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSubUnauthorized, err)
		}
		// The subscription itself becomes vault evidence (and, landing
		// below the feed's start window, reaches the subscriber too).
		note, err := canon.Marshal(&req)
		if err != nil {
			return nil, err
		}
		if _, err := s.v.Append(store.Received, tok, string(note)); err != nil {
			return nil, err
		}
	}
	// Opened before the reply, so every commit and seal after it reaches
	// the subscriber.
	ctx, cancel := context.WithCancel(context.Background())
	ss := &serverSub{id: req.SubID, addr: req.Addr, run: msg.Run, cancel: cancel, done: make(chan struct{})}
	cur, err := feed.Open(s.v, feed.Config{AfterSeq: req.AfterSeq, AfterHash: req.AfterHash, Seals: req.Seals, Sink: s.sink(ctx, ss)})
	if err != nil {
		cancel()
		return nil, err
	}
	s.mu.Lock()
	switch {
	case s.closed:
		err = ErrHostClosed
	case s.subs[req.SubID] != nil:
		err = fmt.Errorf("protocol: subscription %q already open", req.SubID)
	default:
		s.subs[req.SubID] = ss
		s.subscribers.Add(1)
	}
	s.mu.Unlock()
	if err != nil {
		cancel()
		_ = cur.Run(ctx) // returns at once, releasing the vault hooks
		return nil, err
	}
	go s.serve(ctx, ss, cur)
	head, _ := s.v.LastPosition()
	return msg.Reply("sub-open-reply", &subOpenResp{SubID: req.SubID, HeadSeq: head})
}

// serve runs one subscription's cursor until the subscription is closed,
// detached or fails. A failure — a push the subscriber did not
// acknowledge within pushTimeout, a read or chain error — deregisters it
// and sends the subscriber a best-effort eviction notice; it resumes from
// its verified position.
func (s *SubService) serve(ctx context.Context, ss *serverSub, cur *feed.Cursor) {
	defer close(ss.done)
	err := cur.Run(ctx)
	if !s.drop(ss) || ctx.Err() != nil {
		return
	}
	s.evicted.Inc()
	pctx, cancel := context.WithTimeout(ctx, pushTimeout)
	defer cancel()
	_ = s.push(pctx, ss, KindSubEvict, &subEvictPush{SubID: ss.id, Reason: err.Error()}, nil)
}

// sink builds the delivery function for one subscription: each feed
// event becomes one acknowledged push on the feed protocol, counted once
// acknowledged.
func (s *SubService) sink(ctx context.Context, ss *serverSub) feed.Sink {
	return func(ev feed.Event) error {
		ctx, cancel := context.WithTimeout(ctx, pushTimeout)
		defer cancel()
		if ev.Seal != nil {
			err := s.push(ctx, ss, KindSubSeal, &subSealPush{SubID: ss.id, Entry: *ev.Seal}, nil)
			if err == nil {
				s.pushedSeals.Inc()
			}
			return err
		}
		frames, err := store.AppendFrameRun(nil, ev.Records)
		if err != nil {
			return err
		}
		body := &subRecordsPush{SubID: ss.id, First: ev.Records[0].Seq, Count: len(ev.Records)}
		if err := s.push(ctx, ss, KindSubRecords, body, frames); err != nil {
			return err
		}
		head, _ := s.v.LastPosition()
		s.pushedRecs.Add(int64(len(ev.Records)))
		s.lag.Observe(int64(head - ev.Records[len(ev.Records)-1].Seq))
		return nil
	}
}

// push delivers one feed event to a subscriber, on the subscription's run.
func (s *SubService) push(ctx context.Context, ss *serverSub, kind string, body any, attachment []byte) error {
	return s.co.exchange(ctx, ss.addr, peerRequest{protocol: SubFeedProtocol, kind: kind, run: ss.run, body: body, attachment: attachment}, nil)
}

func (s *SubService) handleClose(_ context.Context, msg *Message) (*Message, error) {
	var req subCloseReq
	if err := msg.Body(&req); err != nil {
		return nil, err
	}
	s.mu.Lock()
	ss := s.subs[req.SubID]
	s.mu.Unlock()
	ok := ss != nil && s.drop(ss)
	if ok {
		ss.cancel()
		<-ss.done
	}
	return msg.Reply("sub-close-reply", &subCloseResp{Closed: ok})
}

// WatchConfig shapes one subscription from the subscriber's side.
type WatchConfig struct {
	// AfterSeq/AfterHash resume from an already-verified chain position
	// (zero values start from genesis).
	AfterSeq  uint64
	AfterHash sig.Digest
	// Seals requests seal notifications in the feed.
	Seals bool
	// Shared joins any live wire subscription this client holds to the
	// same publisher address with the same Seals option —
	// dedicated or shared — at that subscription's current verified
	// position (AfterSeq/AfterHash are then ignored): the shared-informer
	// pattern, for many local consumers of one live tail. With none live,
	// the watch opens one from AfterSeq/AfterHash. A consumer that needs
	// history from an exact position opens a dedicated watch instead.
	// Resume of a shared feed returns a dedicated feed, so its no-gap
	// contract holds.
	Shared bool

	// buffer is the local event buffer, DefaultFeedBuffer when zero;
	// tests shrink it to overflow a feed.
	buffer int
}

// SubClient subscribes to remote vault feeds through a coordinator. It
// registers as the coordinator's feed-protocol handler; pushes are
// dispatched to the upstream that opened the subscription, by
// subscription id — a push for an id this client never opened (say, a
// predecessor tenant's) is refused.
type SubClient struct {
	RequestMux
	co *Coordinator

	// mu guards the upstreams and the state of every member feed.
	mu  sync.Mutex
	ups map[string]*upstream
}

// upstream is one wire subscription and the local feeds it serves. A
// push is decoded and hash-verified once, spliced onto the upstream's
// verified chain and emitted to every member without blocking: a member
// that stops draining fails alone with ErrFeedOverflow. The publisher
// awaits each push's acknowledgement before sending the next, so a push
// that starts past the next record is a broken stream, not a reordering:
// it ends the upstream, and Resume continues from the verified position.
type upstream struct {
	subID string
	addr  string
	seals bool
	cv    *store.ChainVerifier
	// open is set once the publisher accepted the sub-open; only then may
	// Shared watches join.
	open    bool
	members map[*Feed]struct{}
}

// NewSubClient registers the feed protocol on co. With a Services.Issuer
// present, sub-opens are token-authorized; without one they are sent
// anonymously (only publishers allowing anonymous subscribe accept
// them).
func NewSubClient(co *Coordinator) *SubClient {
	c := &SubClient{co: co, ups: make(map[string]*upstream)}
	// Pushes are requests so the publisher observes delivery failure.
	c.RequestMux = NewRequestMux(SubFeedProtocol, "feed", map[string]RequestFunc{
		KindSubRecords: c.handleRecords,
		KindSubSeal:    c.handleSeal,
		KindSubEvict:   c.handleEvict,
	})
	co.Register(c)
	return c
}

func (c *SubClient) handleRecords(_ context.Context, msg *Message) (*Message, error) {
	var p subRecordsPush
	if err := msg.Body(&p); err != nil {
		return nil, err
	}
	recs, err := decodeRecordPush("feed push", p.First, p.Count, msg.Attachment)
	if err != nil {
		return nil, err
	}
	if err := c.deliver(p.SubID, FeedEvent{Records: recs}); err != nil {
		return nil, err
	}
	return ack(msg, p.SubID)
}

func (c *SubClient) handleSeal(_ context.Context, msg *Message) (*Message, error) {
	var p subSealPush
	if err := msg.Body(&p); err != nil {
		return nil, err
	}
	if err := c.deliver(p.SubID, FeedEvent{Seal: &p.Entry}); err != nil {
		return nil, err
	}
	return ack(msg, p.SubID)
}

func (c *SubClient) handleEvict(_ context.Context, msg *Message) (*Message, error) {
	var p subEvictPush
	if err := msg.Body(&p); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if u := c.ups[p.SubID]; u != nil {
		c.endLocked(u, fmt.Errorf("%w: %s", ErrSubEvicted, p.Reason))
	}
	c.mu.Unlock()
	return ack(msg, p.SubID)
}

// ack acknowledges one push.
func ack(msg *Message, subID string) (*Message, error) {
	return msg.Reply(KindSubAck, &subCloseReq{SubID: subID})
}

// deliver splices one pushed event onto the chain of the upstream subID
// names and emits it to every member. Records the upstream already holds
// (a retransmitted push) are dropped; anything else that does not extend
// the verified chain ends the upstream. With no member left the push is
// refused, so the publisher evicts the subscription.
func (c *SubClient) deliver(subID string, ev FeedEvent) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	u := c.ups[subID]
	if u == nil {
		return fmt.Errorf("%w: %q", ErrSubUnknown, subID)
	}
	if ev.Seal == nil {
		seq, _ := u.cv.Position()
		recs := ev.Records
		for len(recs) > 0 && recs[0].Seq <= seq {
			recs = recs[1:]
		}
		if len(recs) == 0 {
			return nil
		}
		if recs[0].Seq > seq+1 {
			err := fmt.Errorf("protocol: feed gap: push starts at record %d, expected %d", recs[0].Seq, seq+1)
			c.endLocked(u, err)
			return err
		}
		// decodeRecordPush derived every hash and checked the batch is one
		// chain; what is left is its link onto the verified position.
		for _, rec := range recs {
			if err := u.cv.Advance(rec); err != nil {
				err = fmt.Errorf("protocol: feed chain: %w", err)
				c.endLocked(u, err)
				return err
			}
		}
		ev.Records = recs
	}
	for m := range u.members {
		if m.emitLocked(ev) != nil {
			delete(u.members, m)
		}
	}
	if len(u.members) == 0 {
		c.endLocked(u, nil)
		return ErrFeedOverflow
	}
	return nil
}

// endLocked ends u (mu held): it is forgotten, so later pushes for it are
// refused, and every member still live fails with err.
func (c *SubClient) endLocked(u *upstream, err error) {
	if c.ups[u.subID] == u {
		delete(c.ups, u.subID)
	}
	for m := range u.members {
		m.failLocked(err)
	}
	u.members = nil
}

// Detach fails every open feed locally. The coordinator/host invokes it
// on tenant detach, so a removed tenant's feeds end instead of lingering
// against a successor.
func (c *SubClient) Detach() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, u := range c.ups {
		c.endLocked(u, ErrFeedDetached)
	}
}

// Subscribe opens a live feed over a publisher's vault, resolved through
// the directory.
func (c *SubClient) Subscribe(ctx context.Context, publisher id.Party, cfg WatchConfig) (*Feed, error) {
	addr, err := c.co.Services().Directory.Resolve(publisher)
	if err != nil {
		return nil, err
	}
	return c.SubscribeAddr(ctx, addr, cfg)
}

// SubscribeAddr is Subscribe against an explicit coordinator address
// (possibly tenant-qualified), for subscribers outside the domain
// directory such as cmd/nrverify -follow.
func (c *SubClient) SubscribeAddr(ctx context.Context, addr string, cfg WatchConfig) (*Feed, error) {
	f := newFeed(c, cfg)
	if cfg.Shared && c.join(f, addr) {
		return f, nil
	}
	// The subscription is named after the run of its sub-open, so the
	// journaled authorization and the pushes it licenses share one run.
	run := id.NewRun()
	u := newUpstream("sub-"+string(run), addr, f)
	req := &subOpenReq{
		Subscriber: c.co.Party(),
		SubID:      u.subID,
		Addr:       c.co.Addr(),
		AfterSeq:   cfg.AfterSeq,
		AfterHash:  cfg.AfterHash,
		Seals:      cfg.Seals,
	}
	// Register before the request goes out: the publisher may start
	// pushing before its open reply is processed here.
	c.mu.Lock()
	c.ups[u.subID] = u
	c.mu.Unlock()
	// Without an issuer the sub-open goes anonymous: only publishers
	// allowing anonymous subscribers accept it.
	err := c.co.exchange(ctx, addr, peerRequest{
		protocol: SubProtocol, kind: KindSubOpen, run: run, body: req,
		claimKind: evidence.KindSubOpen, claim: req,
	}, nil)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.endLocked(u, nil)
		return nil, err
	}
	u.open = true
	return f, nil
}

// join makes f a member of a live upstream of addr with f's options, at
// that upstream's verified position; false when there is none.
func (c *SubClient) join(f *Feed, addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, u := range c.ups {
		if u.open && u.addr == addr && u.seals == f.cfg.Seals {
			f.up = u
			f.seq, f.hash = u.cv.Position()
			u.members[f] = struct{}{}
			return true
		}
	}
	return false
}

// newUpstream creates subscription subID at addr with f as its only
// member, verifying from f's configured position.
func newUpstream(subID, addr string, f *Feed) *upstream {
	u := &upstream{
		subID:   subID,
		addr:    addr,
		seals:   f.cfg.Seals,
		cv:      store.ResumeChain(f.cfg.AfterSeq, f.cfg.AfterHash),
		members: map[*Feed]struct{}{f: {}},
	}
	f.up = u
	f.seq, f.hash = f.cfg.AfterSeq, f.cfg.AfterHash
	return u
}

// FeedEvent is one verified feed delivery: a chain-continuous batch of
// records, or a seal notification. A seal event carries no segment
// bytes; sealed segments reach other regions through replication.
type FeedEvent struct {
	Records []*store.Record
	Seal    *vault.ManifestEntry
}

// Feed is one local consumer of a wire subscription. Consume Events
// (closed when the feed ends); Err reports why it ended (nil after a
// clean Close). Every record batch emitted has been chain-verified
// against the position the feed started from.
type Feed struct {
	client *SubClient
	up     *upstream // set before the feed is handed out
	cfg    WatchConfig
	events chan FeedEvent
	done   chan struct{}

	// Guarded by client.mu.
	seq    uint64
	hash   sig.Digest
	failed bool
	err    error
}

func newFeed(c *SubClient, cfg WatchConfig) *Feed {
	buffer := cfg.buffer
	if buffer <= 0 {
		buffer = DefaultFeedBuffer
	}
	return &Feed{client: c, cfg: cfg, events: make(chan FeedEvent, buffer), done: make(chan struct{})}
}

// Events returns the feed's event stream. The channel closes when the
// feed ends; check Err afterwards.
func (f *Feed) Events() <-chan FeedEvent { return f.events }

// Done closes when the feed ends.
func (f *Feed) Done() <-chan struct{} { return f.done }

// Err reports why the feed ended (nil while live or after a clean
// Close).
func (f *Feed) Err() error {
	f.client.mu.Lock()
	defer f.client.mu.Unlock()
	return f.err
}

// Position returns the last verified chain position emitted to this feed
// — the pair a resumed subscription passes as AfterSeq/AfterHash.
func (f *Feed) Position() (uint64, sig.Digest) {
	f.client.mu.Lock()
	defer f.client.mu.Unlock()
	return f.seq, f.hash
}

// Close ends the feed cleanly. The wire subscription closes with its last
// member: the publisher is then told (best effort).
func (f *Feed) Close() {
	c := f.client
	c.mu.Lock()
	u := f.up
	_, member := u.members[f]
	delete(u.members, f)
	last := member && len(u.members) == 0
	if last {
		c.endLocked(u, nil)
	}
	f.failLocked(nil)
	c.mu.Unlock()
	if last {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.co.exchange(ctx, u.addr, peerRequest{protocol: SubProtocol, kind: KindSubClose, body: &subCloseReq{SubID: u.subID}}, nil)
	}
}

// Resume opens a new dedicated subscription continuing exactly where this
// feed verifiably stopped — for a shared feed too, so the no-gap contract
// holds even though the shared stream has moved on.
func (f *Feed) Resume(ctx context.Context) (*Feed, error) {
	cfg := f.cfg
	cfg.AfterSeq, cfg.AfterHash = f.Position()
	cfg.Shared = false
	return f.client.SubscribeAddr(ctx, f.up.addr, cfg)
}

// failLocked ends the feed with err (nil = clean close; client.mu held):
// the event channel is closed and Done released, exactly once.
func (f *Feed) failLocked(err error) {
	if f.failed {
		return
	}
	f.failed = true
	f.err = err
	close(f.events)
	close(f.done)
}

// emitLocked delivers one event to the consumer (client.mu held). A full
// buffer means the local consumer stopped draining; the feed fails rather
// than stalling the coordinator's receive path.
func (f *Feed) emitLocked(ev FeedEvent) error {
	select {
	case f.events <- ev:
		if n := len(ev.Records); n > 0 {
			f.seq, f.hash = ev.Records[n-1].Seq, ev.Records[n-1].Hash
		}
		return nil
	default:
		f.failLocked(ErrFeedOverflow)
		return ErrFeedOverflow
	}
}
