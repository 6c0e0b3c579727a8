// Outbound worker links, worker side. ConnectWorker builds a Coordinator
// whose endpoint dials out: its advertised address is the gateway's
// tenant-qualified address for the party, outbound traffic goes over a
// listener-less client endpoint, and inbound traffic is pulled from the
// gateway by a long-poll loop under a heartbeat-renewed lease. Results
// that cannot reach the gateway are buffered in a bounded outbox and
// flushed after the next successful reconnect, so a gateway blip loses no
// completed work.
package protocol

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/clock"
	"nonrep/internal/id"
	"nonrep/internal/obs"
	"nonrep/internal/transport"
)

// WorkerConfig configures an outbound worker link.
type WorkerConfig struct {
	// Gateway is the wire address of the host running the worker gateway.
	Gateway string
}

// Worker link timing and bounds; the link asks for a workerLeaseTTL
// lease.
const (
	// workerHeartbeat is the lease renewal interval.
	workerHeartbeat = workerLeaseTTL / 3
	// workerPollWait is the long-poll wait.
	workerPollWait = 10 * time.Second
	// workerPollMax bounds envelopes fetched per poll.
	workerPollMax = 16
	// workerOutboxCap bounds results buffered across gateway outages; the
	// oldest result is dropped on overflow — its requester will retry and
	// the protocol layers dedup the re-execution.
	workerOutboxCap = 256
	// workerReconnectBase and workerReconnectMax bound the reconnect
	// backoff.
	workerReconnectBase = 50 * time.Millisecond
	workerReconnectMax  = 2 * time.Second
)

// ConnectWorker starts a coordinator for svc.Party that serves behind the
// worker gateway at cfg.Gateway instead of running a listener. The
// network must support outbound client endpoints (transport.Dialer). The
// returned coordinator is used exactly like a listening one — handlers
// are registered on it, Deliver/DeliverRequest send through it — and
// Close releases the lease and the link.
func ConnectWorker(network transport.Network, cfg WorkerConfig, svc *Services, opts ...Option) (*Coordinator, error) {
	dialer, ok := network.(transport.Dialer)
	if !ok {
		return nil, fmt.Errorf("protocol: network %T cannot dial outbound worker links", network)
	}
	pcfg := config{retry: transport.DefaultRetryPolicy}
	for _, opt := range opts {
		opt(&pcfg)
	}
	pcfg.obs = svc.Obs
	raw, err := dialer.Dial()
	if err != nil {
		return nil, err
	}
	out := wrapEndpoint(raw, pcfg)

	c := &Coordinator{svc: svc, handlers: make(map[string]Handler)}
	link := &WorkerLink{
		svc:       svc,
		out:       out,
		control:   transport.JoinTenantAddr(cfg.Gateway, WorkerControlTenant),
		recv:      transport.NewTenantChain(transport.HandlerFunc(c.handle), svc.Obs),
		pollWait:  workerPollWait,
		outboxCap: workerOutboxCap,
		stop:      make(chan struct{}),
	}
	c.ep = &workerEndpoint{
		link: link,
		out:  out,
		addr: transport.JoinTenantAddr(cfg.Gateway, string(svc.Party)),
	}
	svc.Directory.Register(svc.Party, c.ep.Addr())
	if err := link.start(); err != nil {
		_ = out.Close()
		return nil, err
	}
	return c, nil
}

// workerEndpoint is a worker coordinator's endpoint: sends go out over
// the dialled client endpoint, the advertised address routes peers'
// traffic to the gateway mailbox, and Close tears the link down.
type workerEndpoint struct {
	link *WorkerLink
	out  transport.Endpoint
	addr string

	closeOnce sync.Once
}

var _ transport.Endpoint = (*workerEndpoint)(nil)

func (e *workerEndpoint) Addr() string { return e.addr }

func (e *workerEndpoint) Send(ctx context.Context, to string, env *transport.Envelope) error {
	return e.out.Send(ctx, to, env)
}

func (e *workerEndpoint) Request(ctx context.Context, to string, env *transport.Envelope) (*transport.Envelope, error) {
	return e.out.Request(ctx, to, env)
}

func (e *workerEndpoint) Close() error {
	e.closeOnce.Do(func() {
		e.link.Close()
		_ = e.out.Close()
	})
	return nil
}

// WorkerLink runs the hello/poll/heartbeat loops of one outbound link.
type WorkerLink struct {
	svc     *Services
	out     transport.Endpoint
	control string
	recv    transport.Handler
	// pollWait and outboxCap are workerPollWait and workerOutboxCap;
	// tests shrink them.
	pollWait  time.Duration
	outboxCap int

	mu        sync.Mutex
	lease     string
	connected bool // a hello has succeeded at least once
	outbox    []workerResultBody

	// ctx is cancelled by Close so a blocked long-poll unblocks
	// immediately instead of running out its deadline.
	ctx      context.Context
	cancel   context.CancelFunc
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// start establishes the first lease synchronously — so a successful
// ConnectWorker means the party is already reachable through the gateway —
// then hands reconnection over to the background loops.
func (l *WorkerLink) start() error {
	l.ctx, l.cancel = context.WithCancel(context.Background())
	if err := l.hello(); err != nil {
		l.cancel()
		return fmt.Errorf("protocol: worker hello: %w", err)
	}
	l.wg.Add(2)
	go l.runLoop()
	go l.heartbeatLoop()
	return nil
}

// Close stops the loops and releases the lease with a best-effort bye.
// In-flight job executions are abandoned to their own goroutines — a
// worker being killed mid-execution is exactly the crash the durable
// layer recovers from.
func (l *WorkerLink) Close() {
	l.stopOnce.Do(func() {
		close(l.stop)
		l.cancel()
		l.mu.Lock()
		lease := l.lease
		l.lease = ""
		l.mu.Unlock()
		if lease != "" {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if env, err := controlEnvelope(envWorkerBye, workerByeBody{Lease: lease}); err == nil {
				_, _ = l.out.Request(ctx, l.control, env)
			}
		}
	})
	l.wg.Wait()
}

// stopped reports whether Close has been called.
func (l *WorkerLink) stopped() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// sleep waits d on the services clock, returning early on Close.
func (l *WorkerLink) sleep(d time.Duration) {
	t := clock.NewTimer(l.svc.Clock, d)
	defer t.Stop()
	select {
	case <-t.C():
	case <-l.stop:
	}
}

func controlEnvelope(kind string, body any) (*transport.Envelope, error) {
	raw, err := canon.Marshal(body)
	if err != nil {
		return nil, err
	}
	return transport.NewEnvelope(kind, raw), nil
}

// request performs one control-channel exchange.
func (l *WorkerLink) request(ctx context.Context, kind string, body, reply any) error {
	env, err := controlEnvelope(kind, body)
	if err != nil {
		return err
	}
	got, err := l.out.Request(ctx, l.control, env)
	if err != nil {
		return err
	}
	if reply == nil {
		return nil
	}
	return canon.Unmarshal(got.Body, reply)
}

// hello establishes (or re-establishes) the lease and flushes any results
// buffered during the outage.
func (l *WorkerLink) hello() error {
	ctx, cancel := context.WithTimeout(l.ctx, 10*time.Second)
	defer cancel()
	var lease workerLeaseBody
	err := l.request(ctx, envWorkerHello, workerHelloBody{
		Parties: []id.Party{l.svc.Party},
		TTLMs:   workerLeaseTTL.Milliseconds(),
	}, &lease)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.lease = lease.Lease
	reconnect := l.connected
	l.connected = true
	l.mu.Unlock()
	if reconnect {
		l.svc.Obs.Counter(obs.MWorkerReconnectsTotal).Inc()
	}
	l.flushOutbox()
	return nil
}

// currentLease reads the lease ("" when disconnected).
func (l *WorkerLink) currentLease() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lease
}

// dropLease marks the link disconnected so runLoop re-hellos.
func (l *WorkerLink) dropLease() {
	l.mu.Lock()
	l.lease = ""
	l.mu.Unlock()
}

// runLoop is the link's main loop: hello until leased, then poll and
// execute, reconnecting with capped exponential backoff on any control
// failure.
func (l *WorkerLink) runLoop() {
	defer l.wg.Done()
	backoff := workerReconnectBase
	for !l.stopped() {
		lease := l.currentLease()
		if lease == "" {
			if err := l.hello(); err != nil {
				l.sleep(backoff)
				if backoff *= 2; backoff > workerReconnectMax {
					backoff = workerReconnectMax
				}
				continue
			}
			backoff = workerReconnectBase
			continue
		}
		jobs, err := l.poll(lease)
		if err != nil {
			if l.stopped() {
				return
			}
			l.dropLease()
			continue
		}
		// A successful poll proves the control channel is up again, so any
		// results buffered during a blip that did not cost the lease can be
		// delivered now rather than waiting for a full reconnect.
		l.mu.Lock()
		buffered := len(l.outbox) > 0
		l.mu.Unlock()
		if buffered {
			l.flushOutbox()
		}
		for _, job := range jobs.Jobs {
			job := job
			go l.execute(job)
		}
		if jobs.Draining && len(jobs.Jobs) == 0 {
			// Nothing left and the gateway is winding down: back off so
			// the drain is not spammed with immediate-return polls.
			l.sleep(l.pollWait)
		}
	}
}

// poll fetches the next batch of envelopes under the lease.
func (l *WorkerLink) poll(lease string) (*workerJobsBody, error) {
	// The deadline leaves the gateway's long-poll room plus a grace
	// period for the exchange itself.
	ctx, cancel := context.WithTimeout(l.ctx, l.pollWait+30*time.Second)
	defer cancel()
	var jobs workerJobsBody
	err := l.request(ctx, envWorkerPoll, workerPollBody{
		Lease:  lease,
		Max:    workerPollMax,
		WaitMs: l.pollWait.Milliseconds(),
	}, &jobs)
	if err != nil {
		return nil, err
	}
	return &jobs, nil
}

// execute runs one polled envelope through the coordinator's receive
// chain and reports the outcome.
func (l *WorkerLink) execute(job workerJob) {
	reply, err := l.recv.Handle(l.ctx, job.Env)
	res := workerResultBody{Tenant: job.Tenant, ID: job.Env.ID, Reply: reply}
	if err != nil {
		res.Err = err.Error()
	}
	l.sendResult(res)
}

// sendResult reports one result, buffering it for the post-reconnect
// flush when the gateway is unreachable.
func (l *WorkerLink) sendResult(res workerResultBody) {
	res.Lease = l.currentLease()
	if res.Lease != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := l.request(ctx, envWorkerResult, res, nil)
		cancel()
		if err == nil {
			return
		}
	}
	l.mu.Lock()
	depth := l.keepLocked(append(l.outbox, res))
	l.mu.Unlock()
	l.svc.Obs.Gauge(obs.MWorkerBufferedResults).Set(int64(depth))
}

// keepLocked makes results the outbox, dropping the oldest past the cap,
// and returns its depth.
func (l *WorkerLink) keepLocked(results []workerResultBody) int {
	if over := len(results) - l.outboxCap; over > 0 {
		results = results[over:]
	}
	l.outbox = results
	return len(results)
}

// flushOutbox re-sends results buffered while disconnected. Results that
// fail again go back to the buffer for the next reconnect, ahead of those
// buffered meanwhile and within the same cap.
func (l *WorkerLink) flushOutbox() {
	l.mu.Lock()
	pending := l.outbox
	l.outbox = nil
	lease := l.lease
	l.mu.Unlock()
	for i, res := range pending {
		res.Lease = lease
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := l.request(ctx, envWorkerResult, res, nil)
		cancel()
		if err != nil {
			l.mu.Lock()
			depth := l.keepLocked(append(pending[i:], l.outbox...))
			l.mu.Unlock()
			l.svc.Obs.Gauge(obs.MWorkerBufferedResults).Set(int64(depth))
			return
		}
	}
	l.svc.Obs.Gauge(obs.MWorkerBufferedResults).Set(0)
}

// heartbeatLoop renews the lease between polls.
func (l *WorkerLink) heartbeatLoop() {
	defer l.wg.Done()
	for {
		t := clock.NewTimer(l.svc.Clock, workerHeartbeat)
		select {
		case <-l.stop:
			t.Stop()
			return
		case <-t.C():
		}
		lease := l.currentLease()
		if lease == "" {
			continue
		}
		ctx, cancel := context.WithTimeout(l.ctx, 5*time.Second)
		// A failed heartbeat is not acted on here: the poll loop detects a
		// dead lease on its next cycle and re-hellos.
		_ = l.request(ctx, envWorkerHeartbeat, workerHeartbeatBody{Lease: lease}, nil)
		cancel()
	}
}
