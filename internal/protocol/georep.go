// Quorum replication protocol: geo-* kinds push a vault's *unsealed*
// records to peer replicas ahead of their seal, so an append can count
// as durable only once N of M replicas hold it (the georep policy
// engine drives this client side). The receiving half lands pushes in
// the peer's ReplicaSet tail — chain-verified, durably fsynced, and
// immediately adjudicable because a replica directory is a valid
// read-only vault. Pushes are authenticated exactly like seg-ship:
// a KindGeoAppend token over the canonical push claim, issued by the
// source organisation itself (verifyClaim).
package protocol

import (
	"context"
	"errors"
	"fmt"

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

// GeoService receives quorum tail pushes into an organisation's replica
// store. A push without a valid source-issued token is refused, so the
// tail path cannot be used to seed a bogus replica any more than seg-ship
// can; an organisation without a replica store refuses every geo kind.
type GeoService struct {
	RequestMux
	co       *Coordinator
	replicas *vault.ReplicaSet
}

// NewGeoService registers the geo-replication protocol on co, landing
// pushes in rs.
func NewGeoService(co *Coordinator, rs *vault.ReplicaSet) *GeoService {
	s := &GeoService{co: co, replicas: rs}
	s.RequestMux = NewRequestMux(GeoProtocol, "geo", map[string]RequestFunc{
		KindGeoStatus: s.handleStatus,
		KindGeoAppend: s.handleAppend,
	})
	co.Register(s)
	return s
}

func (s *GeoService) handleStatus(_ context.Context, msg *Message) (*Message, error) {
	if s.replicas == nil {
		return nil, errNoReplicas(s.co)
	}
	var req geoStatusReq
	if err := msg.Body(&req); err != nil {
		return nil, err
	}
	acked, err := s.replicas.AckedSeq(req.Source)
	if err != nil {
		return nil, err
	}
	return msg.Reply("geo-status-reply", &geoStatusResp{AckedSeq: acked})
}

func (s *GeoService) handleAppend(_ context.Context, msg *Message) (*Message, error) {
	if s.replicas == nil {
		return nil, errNoReplicas(s.co)
	}
	var req geoAppendReq
	if err := msg.Body(&req); err != nil {
		return nil, err
	}
	req.Frames = msg.AttachmentOr(req.Frames)
	claim := &geoAppendClaim{Source: req.Source, First: req.First, Count: req.Count, Frames: sig.Sum(req.Frames)}
	if _, err := s.co.verifyClaim(msg, evidence.KindGeoAppend, id.Party(req.Source), claim); err != nil {
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
	return msg.Reply("geo-append-reply", &geoAppendResp{AckedSeq: acked})
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
	var resp geoStatusResp
	err := c.co.exchangeWith(ctx, peer, peerRequest{protocol: GeoProtocol, kind: KindGeoStatus, body: &geoStatusReq{Source: source}}, &resp)
	return resp.AckedSeq, err
}

// Append pushes a contiguous batch of records of source's vault to
// peer's replica tail, returning the replica's new acknowledged
// sequence. The push carries a KindGeoAppend token over the push claim;
// receivers accept nothing less.
func (c *GeoClient) Append(ctx context.Context, peer id.Party, source string, recs []*store.Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, errors.New("protocol: empty geo push")
	}
	frames, err := store.AppendFrameRun(nil, recs)
	if err != nil {
		return 0, err
	}
	req := &geoAppendReq{Source: source, First: recs[0].Seq, Count: len(recs)}
	var resp geoAppendResp
	err = c.co.exchangeWith(ctx, peer, peerRequest{
		protocol:   GeoProtocol,
		kind:       KindGeoAppend,
		body:       req,
		attachment: frames,
		claimKind:  evidence.KindGeoAppend,
		claim:      &geoAppendClaim{Source: source, First: req.First, Count: req.Count, Frames: sig.Sum(frames)},
	}, &resp)
	return resp.AckedSeq, err
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
