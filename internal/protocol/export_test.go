package protocol

import (
	"context"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
)

// WatchBuffer returns cfg with its local event buffer set to n, so
// external tests can overflow a feed with a few records.
func WatchBuffer(cfg WatchConfig, n int) WatchConfig {
	cfg.buffer = n
	return cfg
}

// SubscribeSegments sends addr a claimed sub-open asking for seals with
// sealed-segment packages, as a subscriber built when seals could carry
// them did, and returns the publisher's answer.
func SubscribeSegments(ctx context.Context, c *SubClient, addr string) error {
	run := id.NewRun()
	req := &subOpenReq{
		Subscriber: c.co.Party(), SubID: "sub-" + string(run), Addr: c.co.Addr(),
		Seals: true, Segments: true,
	}
	return c.co.exchange(ctx, addr, peerRequest{
		protocol: SubProtocol, kind: KindSubOpen, run: run, body: req,
		claimKind: evidence.KindSubOpen, claim: req,
	}, nil)
}
