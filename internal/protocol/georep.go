// Quorum replication protocol: geo-* kinds push a vault's *unsealed*
// records to peer replicas ahead of their seal, so an append can count
// as durable only once N of M replicas hold it (the georep policy
// engine drives this client side). The receiving half lands pushes in
// the peer's ReplicaSet tail — chain-verified, durably fsynced, and
// immediately adjudicable because a replica directory is a valid
// read-only vault. Pushes are authenticated exactly like seg-ship:
// a KindGeoAppend token over the canonical push claim, issued by the
// source organisation itself.
package protocol

import (
	"context"
	"errors"
	"fmt"

	"nonrep/internal/canon"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/vault"
)

// GeoProtocol is the protocol name the geo-replication service
// registers under.
const GeoProtocol = "nonrep/georep"

// Geo-replication message kinds.
const (
	// KindGeoStatus asks a peer replica how far (by record sequence,
	// sealed or tail) it holds a source's vault — the pusher's resume
	// and quorum-accounting cursor.
	KindGeoStatus = "geo-status"
	// KindGeoAppend pushes a batch of unsealed records to a peer
	// replica's tail.
	KindGeoAppend = "geo-append"
)

type geoStatusReq struct {
	Source string `json:"source"`
}

type geoStatusResp struct {
	AckedSeq uint64 `json:"acked_seq"`
}

// geoAppendReq pushes records First..First+Count-1 of Source's vault as
// binary record frames. The frames ride the message's Attachment; Frames
// is where a source that predates attachments put them, and is only ever
// read.
type geoAppendReq struct {
	Source string `json:"source"`
	First  uint64 `json:"first"`
	Count  int    `json:"count"`
	Frames []byte `json:"frames,omitempty"`
}

type geoAppendResp struct {
	AckedSeq uint64 `json:"acked_seq"`
}

// geoAppendClaim is the canonical content a KindGeoAppend token signs:
// the frame digest pins the pushed bytes, whose record hashes the
// receiving tail re-verifies against the replica's chain.
type geoAppendClaim struct {
	Source string     `json:"source"`
	First  uint64     `json:"first"`
	Count  int        `json:"count"`
	Frames sig.Digest `json:"frames"`
}

func (c *geoAppendClaim) digest() (sig.Digest, error) {
	raw, err := canon.Marshal(c)
	if err != nil {
		return sig.Digest{}, err
	}
	return sig.Sum(raw), nil
}

// GeoService receives quorum tail pushes into an organisation's replica
// store. Pushes must be authenticated whenever the coordinator can
// verify tokens (the normal case — every domain organisation has a
// verifier): a push without a valid source-issued token is refused, so
// the tail path cannot be used to seed a bogus replica any more than
// seg-ship can.
type GeoService struct {
	co       *Coordinator
	replicas *vault.ReplicaSet
}

// NewGeoService registers the geo-replication protocol on co, landing
// pushes in rs.
func NewGeoService(co *Coordinator, rs *vault.ReplicaSet) *GeoService {
	s := &GeoService{co: co, replicas: rs}
	co.Register(s)
	return s
}

// Protocol implements Handler.
func (s *GeoService) Protocol() string { return GeoProtocol }

// Process implements Handler; every geo exchange is request/response.
func (s *GeoService) Process(ctx context.Context, msg *Message) error {
	return fmt.Errorf("protocol: geo message %q requires a request/response delivery", msg.Kind)
}

// ProcessRequest implements Handler.
func (s *GeoService) ProcessRequest(ctx context.Context, msg *Message) (*Message, error) {
	if s.replicas == nil {
		return nil, fmt.Errorf("protocol: %s accepts no replicas", s.co.Party())
	}
	switch msg.Kind {
	case KindGeoStatus:
		return s.handleStatus(msg)
	case KindGeoAppend:
		return s.handleAppend(msg)
	default:
		return nil, fmt.Errorf("protocol: unknown geo message kind %q", msg.Kind)
	}
}

func (s *GeoService) reply(msg *Message, kind string, body any) (*Message, error) {
	out := &Message{Protocol: GeoProtocol, Run: msg.Run, Step: msg.Step + 1, Kind: kind}
	if err := out.SetBody(body); err != nil {
		return nil, err
	}
	return out, nil
}

func (s *GeoService) handleStatus(msg *Message) (*Message, error) {
	var req geoStatusReq
	if err := msg.Body(&req); err != nil {
		return nil, err
	}
	acked, err := s.replicas.AckedSeq(req.Source)
	if err != nil {
		return nil, err
	}
	return s.reply(msg, "geo-status-reply", &geoStatusResp{AckedSeq: acked})
}

func (s *GeoService) handleAppend(msg *Message) (*Message, error) {
	var req geoAppendReq
	if err := msg.Body(&req); err != nil {
		return nil, err
	}
	req.Frames = msg.AttachmentOr(req.Frames)
	if err := s.verifyAppend(msg, &req); err != nil {
		return nil, err
	}
	recs, err := decodeRecordPush("geo push", req.First, req.Count, req.Frames)
	if err != nil {
		return nil, err
	}
	acked, err := s.replicas.ReceiveTail(req.Source, recs)
	if err != nil {
		return nil, err
	}
	return s.reply(msg, "geo-append-reply", &geoAppendResp{AckedSeq: acked})
}

// verifyAppend authenticates a tail push against the source's signing
// key. Unlike seg-ship (which keeps an unauthenticated compatibility
// mode behind an option), geo pushes are a new protocol: whenever the
// receiver can verify tokens it requires one, always.
func (s *GeoService) verifyAppend(msg *Message, req *geoAppendReq) error {
	ver := s.co.Services().Verifier
	if ver == nil {
		return nil
	}
	var tok *evidence.Token
	if len(msg.Tokens) > 0 {
		tok = msg.Tokens[0]
	}
	if tok == nil {
		return fmt.Errorf("protocol: %s accepts only authenticated geo-append", s.co.Party())
	}
	claim := geoAppendClaim{Source: req.Source, First: req.First, Count: req.Count, Frames: sig.Sum(req.Frames)}
	d, err := claim.digest()
	if err != nil {
		return err
	}
	if err := ver.VerifyContent(tok, d); err != nil {
		return fmt.Errorf("protocol: geo-append token: %w", err)
	}
	if err := ver.Expect(tok, evidence.KindGeoAppend, msg.Run, id.Party(req.Source)); err != nil {
		return fmt.Errorf("protocol: geo-append token: %w", err)
	}
	return nil
}

// decodeRecordPush decodes one pushed batch of record frames — a geo
// tail push or a feed push, what names it in errors — checking frame
// integrity, the announced shape and internal chain continuity. The
// first record's link to what the receiver already holds is the
// receiver's check.
func decodeRecordPush(what string, first uint64, count int, frames []byte) ([]*store.Record, error) {
	var recs []*store.Record
	if err := store.DecodeFrameRun(frames, func(rec *store.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("protocol: %s: %w", what, err)
	}
	if len(recs) == 0 || len(recs) != count || recs[0].Seq != first {
		return nil, fmt.Errorf("protocol: %s frame header mismatch", what)
	}
	// The decoder derived (or checked) every record's hash; what is left
	// is that the run is one chain.
	cv := store.ResumeChain(recs[0].Seq-1, recs[0].Prev)
	for _, rec := range recs {
		if err := cv.Advance(rec); err != nil {
			return nil, fmt.Errorf("protocol: %s chain: %w", what, err)
		}
	}
	return recs, nil
}

// GeoClient drives quorum pushes toward peer replicas through a
// coordinator.
type GeoClient struct {
	co *Coordinator
}

// NewGeoClient creates a geo-replication client sending through co. It
// registers no handler — the client only issues requests.
func NewGeoClient(co *Coordinator) *GeoClient {
	return &GeoClient{co: co}
}

// AckedSeq asks peer how far (by record sequence) its replica holds
// source's vault.
func (c *GeoClient) AckedSeq(ctx context.Context, peer id.Party, source string) (uint64, error) {
	addr, err := c.co.Services().Directory.Resolve(peer)
	if err != nil {
		return 0, err
	}
	msg := &Message{Protocol: GeoProtocol, Run: id.NewRun(), Step: 1, Kind: KindGeoStatus}
	if err := msg.SetBody(&geoStatusReq{Source: source}); err != nil {
		return 0, err
	}
	reply, err := c.co.DeliverRequestAddr(ctx, addr, msg)
	if err != nil {
		return 0, err
	}
	var resp geoStatusResp
	if err := reply.Body(&resp); err != nil {
		return 0, err
	}
	return resp.AckedSeq, nil
}

// Append pushes a contiguous batch of records of source's vault to
// peer's replica tail, returning the replica's new acknowledged
// sequence. The push is authenticated when the coordinator has a token
// issuer.
func (c *GeoClient) Append(ctx context.Context, peer id.Party, source string, recs []*store.Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, errors.New("protocol: empty geo push")
	}
	addr, err := c.co.Services().Directory.Resolve(peer)
	if err != nil {
		return 0, err
	}
	frames, err := store.AppendFrameRun(nil, recs)
	if err != nil {
		return 0, err
	}
	req := &geoAppendReq{Source: source, First: recs[0].Seq, Count: len(recs)}
	msg := &Message{Protocol: GeoProtocol, Run: id.NewRun(), Step: 1, Kind: KindGeoAppend, Attachment: frames}
	if err := msg.SetBody(req); err != nil {
		return 0, err
	}
	if iss := c.co.Services().Issuer; iss != nil {
		claim := geoAppendClaim{Source: req.Source, First: req.First, Count: req.Count, Frames: sig.Sum(frames)}
		d, derr := claim.digest()
		if derr != nil {
			return 0, derr
		}
		tok, terr := iss.Issue(evidence.KindGeoAppend, msg.Run, 1, d)
		if terr != nil {
			return 0, terr
		}
		msg.Tokens = []*evidence.Token{tok}
	}
	reply, err := c.co.DeliverRequestAddr(ctx, addr, msg)
	if err != nil {
		return 0, err
	}
	var resp geoAppendResp
	if err := reply.Body(&resp); err != nil {
		return 0, err
	}
	return resp.AckedSeq, nil
}

// GeoTarget bundles everything the georep policy engine needs to drive
// one peer replica: tail pushes and status over the geo protocol,
// sealed-segment shipping and catch-up negotiation (the embedded
// vault.ShipTarget) over the audit protocol.
type GeoTarget struct {
	peer id.Party
	geo  *GeoClient
	vault.ShipTarget
}

// Target builds a GeoTarget toward peer, shipping sealed segments
// through audit.
func (c *GeoClient) Target(peer id.Party, audit *AuditClient) *GeoTarget {
	return &GeoTarget{peer: peer, geo: c, ShipTarget: audit.ShipTarget(peer)}
}

// AckedSeq reports the peer replica's highest held record sequence.
func (t *GeoTarget) AckedSeq(ctx context.Context, source string) (uint64, error) {
	return t.geo.AckedSeq(ctx, t.peer, source)
}

// Append pushes unsealed records to the peer replica's tail.
func (t *GeoTarget) Append(ctx context.Context, source string, recs []*store.Record) (uint64, error) {
	return t.geo.Append(ctx, t.peer, source, recs)
}
