// Outbound worker links, worker side: a Coordinator whose traffic goes
// over a listener-less client endpoint, whose connection to the gateway
// host also carries the gateway's requests to it. The link says a signed
// hello, then holds the connection with a request the gateway answers
// when the link ends; unless a newer worker took the party, it says hello
// again on a new connection.
package protocol

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nonrep/internal/evidence"
	"nonrep/internal/obs"
	"nonrep/internal/transport"
)

// ConnectWorker starts a coordinator for svc.Party that serves behind the
// worker gateway at the wire address gateway instead of running a
// listener. The network must support outbound client endpoints
// (transport.Dialer), and svc.Issuer signs the hello. The coordinator is
// used exactly like a listening one — handlers are registered on it,
// Deliver and DeliverRequest send through it — and Close ends the link.
func ConnectWorker(network transport.Network, gateway string, svc *Services, opts ...Option) (*Coordinator, error) {
	dialer, ok := network.(transport.Dialer)
	if !ok {
		return nil, fmt.Errorf("protocol: network %T cannot dial outbound worker links", network)
	}
	if svc.Issuer == nil {
		return nil, fmt.Errorf("protocol: worker %s needs an issuer to sign its hello", svc.Party)
	}
	cfg := config{retry: transport.DefaultRetryPolicy}
	for _, opt := range opts {
		opt(&cfg)
	}
	c := &Coordinator{svc: svc, handlers: make(map[string]Handler)}
	raw, err := dialer.Dial(transport.NewTenantChain(transport.HandlerFunc(c.handle), svc.Obs))
	if err != nil {
		return nil, err
	}
	l := &workerLink{Endpoint: wrapEndpoint(raw, cfg), co: c, raw: raw, gateway: gateway, exited: make(chan struct{})}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	if err := l.hello(); err != nil {
		l.cancel()
		_ = raw.Close()
		return nil, fmt.Errorf("protocol: worker hello: %w", err)
	}
	c.ep = l
	svc.Directory.Register(svc.Party, l.Addr())
	go l.run()
	return c, nil
}

// workerLink is a worker coordinator's endpoint: sends go out over the
// client endpoint, its address routes peers' traffic to the gateway
// mailbox, and it keeps the party routed through the gateway until
// Close.
type workerLink struct {
	transport.Endpoint
	co      *Coordinator
	raw     transport.Endpoint
	gateway string
	// ctx bounds the hello and the hold; Close cancels it.
	ctx       context.Context
	cancel    context.CancelFunc
	exited    chan struct{}
	closeOnce sync.Once
}

func (l *workerLink) Addr() string { return transport.JoinTenantAddr(l.gateway, string(l.co.Party())) }

// Close ends the link. In-flight executions are abandoned: a worker
// killed mid-execution is the crash the durable layer recovers from.
func (l *workerLink) Close() error {
	l.closeOnce.Do(func() {
		l.cancel()
		<-l.exited
		_ = l.Endpoint.Close()
	})
	return nil
}

// control sends one control request to the gateway.
func (l *workerLink) control(kind string, body []byte) (*transport.Envelope, error) {
	env := transport.NewEnvelope(kind, body)
	env.Tenant = WorkerControlTenant
	return l.raw.Request(l.ctx, l.gateway, env)
}

// hello routes the party down the connection, signing the claim.
func (l *workerLink) hello() error {
	claim := &workerHelloBody{Party: l.co.Party()}
	msg, err := l.co.request(peerRequest{protocol: "worker", kind: envWorkerHello, body: claim, claimKind: evidence.KindWorkerHello, claim: claim})
	if err != nil {
		return err
	}
	body, err := marshalMessage(msg)
	if err == nil {
		_, err = l.control(envWorkerHello, body)
	}
	return err
}

// run holds the link and, whenever it ends but by a takeover or Close,
// says hello again, backing off between failed attempts as Reliable
// does.
func (l *workerLink) run() {
	defer close(l.exited)
	for {
		reply, err := l.control(envWorkerHold, nil)
		if l.ctx.Err() != nil || (err == nil && reply.Kind == envWorkerSuperseded) {
			return
		}
		for attempt := 1; l.hello() != nil; attempt++ {
			t := time.NewTimer(transport.DefaultRetryPolicy.Delay(attempt))
			select {
			case <-t.C:
			case <-l.ctx.Done():
				t.Stop()
				return
			}
		}
		l.co.svc.Obs.Counter(obs.MWorkerReconnectsTotal).Inc()
	}
}
