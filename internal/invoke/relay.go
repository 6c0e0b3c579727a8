package invoke

import (
	"context"
	"fmt"
	"sync"

	"nonrep/internal/bounded"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/protocol"
	"nonrep/internal/store"
)

// RelayRoute decides the next hop for a relayed invocation: given the
// ultimate server party it returns the party to forward to and the
// protocol name to forward under. A single inline TTP (Figure 3a) routes
// straight to the server; the first of two distributed inline TTPs
// (Figure 3b) routes to its peer TTP.
type RelayRoute func(server id.Party) (next id.Party, proto string)

// RouteToServer is the final-hop route: forward to the server under the
// direct protocol.
func RouteToServer() RelayRoute {
	return func(server id.Party) (id.Party, string) { return server, ProtocolDirect }
}

// RouteVia always forwards to the given peer relay.
func RouteVia(peer id.Party) RelayRoute {
	return func(id.Party) (id.Party, string) { return peer, ProtocolInline }
}

// Relay is the inline-TTP interceptor of Figures 3a and 3b: "communication
// between organisations A and B is routed via Trusted Third Parties" and
// the inline TTP "is responsible for ensuring that agreed safety and
// liveness guarantees are delivered to honest parties". The relay verifies
// every token that passes through it and keeps its own evidence log — the
// audit trail that makes the domain a trust domain.
type Relay struct {
	co    *protocol.Coordinator
	route RelayRoute

	mu sync.Mutex
	// runs holds the runs relayed whose receipt has not been forwarded
	// yet: a client that never sends its receipt costs the relay one
	// slot, as it costs the server one. Evictions are counted in evicted.
	runs    *bounded.Table[id.Run, *relayRun]
	evicted *obs.Counter
}

// relayRun is what the relay keeps of a run between reply and receipt:
// the next hop and the run's anchors, the receipt's binding.
type relayRun struct {
	next      id.Party
	nextProto string
	anchors   *evidence.Anchors
}

var _ protocol.Handler = (*Relay)(nil)

// NewRelay creates a relay handler and registers it with the TTP's
// coordinator.
func NewRelay(co *protocol.Coordinator, route RelayRoute) *Relay {
	r := &Relay{co: co, route: route, evicted: co.Services().Obs.Counter(obs.MInvokeOpenRunsEvictedTotal)}
	r.runs = newOpenRuns[*relayRun](co.Services(), func() *obs.Counter { return r.evicted }, nil)
	co.Register(r)
	return r
}

// Protocol implements protocol.Handler.
func (r *Relay) Protocol() string { return ProtocolInline }

// ProcessRequest implements protocol.Handler: it polices and forwards the
// request, then polices and returns the response; a receipt it polices,
// forwards and answers with the next hop's outcome.
func (r *Relay) ProcessRequest(ctx context.Context, msg *protocol.Message) (*protocol.Message, error) {
	switch msg.Kind {
	case kindReceipt:
		return nil, r.relayReceipt(ctx, msg)
	case kindRequest:
	default:
		return nil, fmt.Errorf("invoke: relay: unexpected request kind %q", msg.Kind)
	}
	svc := r.co.Services()
	var rb requestBody
	if err := msg.Body(&rb); err != nil {
		return nil, err
	}
	snap := rb.Snapshot
	// Police access to the trust domain: only well-evidenced requests
	// pass (trusted-interceptor assumption 4).
	nro := msg.Token(evidence.KindNRO)
	a, err := checkRequest(svc.Verifier, inline, msg.Run, &snap, nro)
	if err != nil {
		return nil, err
	}
	next, nextProto := r.route(snap.Server)
	reply, err := r.co.DeliverRequest(ctx, next, forward(msg, nextProto))
	if err != nil {
		return nil, fmt.Errorf("invoke: relay forward: %w", err)
	}

	// Police the response path too, by the client's own rule.
	var respB responseBody
	if err := reply.Body(&respB); err != nil {
		return nil, err
	}
	a.NRR, a.NROResp = reply.Token(evidence.KindNRR), reply.Token(evidence.KindNROResp)
	nextDesc, _ := protocolFor(nextProto)
	if err := checkReply(svc.Verifier, a, nextDesc, &respB.Snapshot); err != nil {
		return nil, err
	}
	// The audit trail of steps 1 and 2 is one group, durable before the
	// verified reply goes back; a refused reply leaves nothing of the run.
	if err := logGroup(ctx, svc,
		store.Entry{Dir: store.Received, Token: nro, Note: "relayed request origin"},
		store.Entry{Dir: store.Received, Token: a.NRR, Note: "relayed request receipt"},
		store.Entry{Dir: store.Received, Token: a.NROResp, Note: "relayed response origin"},
	); err != nil {
		return nil, err
	}
	r.track(msg.Run, &relayRun{next: next, nextProto: nextProto, anchors: a})

	// Hand the (verified) response back to the previous hop under this
	// relay's protocol.
	reply.Protocol = ProtocolInline
	return reply, nil
}

// track keeps rr until its receipt is forwarded, within maxOpenRuns
// unreceipted runs. A retransmitted request replaces the run's entry and
// goes to the back.
func (r *Relay) track(run id.Run, rr *relayRun) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs.Delete(run)
	r.runs.Put(run, rr)
}

// relayReceipt polices and forwards the client's response receipt, and
// forgets the run once the next hop took it: the previous hop learns the
// next hop's outcome, so a relayed receipt is acknowledged end to end.
func (r *Relay) relayReceipt(ctx context.Context, msg *protocol.Message) error {
	svc := r.co.Services()
	r.mu.Lock()
	run, ok := r.runs.Get(msg.Run)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchRun, msg.Run)
	}
	_, tok, err := checkReceipt(svc.Verifier, run.anchors, msg)
	if err != nil {
		return err
	}
	if err := svc.LogReceived(tok, "relayed response receipt"); err != nil {
		return err
	}
	if err := r.co.Deliver(ctx, run.next, forward(msg, run.nextProto)); err != nil {
		return err
	}
	r.mu.Lock()
	if cur, ok := r.runs.Get(msg.Run); ok && cur == run {
		r.runs.Delete(msg.Run)
	}
	r.mu.Unlock()
	return nil
}

// forward copies msg for the next hop, under that hop's protocol.
func forward(msg *protocol.Message, proto string) *protocol.Message {
	return &protocol.Message{
		Protocol: proto,
		Run:      msg.Run,
		Txn:      msg.Txn,
		Step:     msg.Step,
		Kind:     msg.Kind,
		Tokens:   msg.Tokens,
		Payload:  msg.Payload,
	}
}
