// Envelope coalescing: concurrent outbound envelopes to the same
// counterparty are combined into a single wire envelope, cutting the
// per-message round trips that section 6 of the paper counts among the
// costs of non-repudiation ("the communication overhead of additional
// messages to execute protocols"). The Coalescer mirrors the vault's
// group-commit committer: per destination, a flusher goroutine drains
// whatever is pending into one batch envelope. The receiving BatchOpener
// unpacks sub-envelopes and dispatches each through the normal handler
// chain — outside the replay de-duplication layer, so every sub-envelope
// keeps its own exactly-once processing and a retransmitted or duplicated
// batch behaves exactly like retransmitted singles.
package transport

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/id"
	"nonrep/internal/obs"
)

// Batch envelope kinds.
const (
	// KindBatch is the wire kind of a coalesced envelope batch.
	KindBatch = "b2b-batch"
	// KindBatchReply is the wire kind of a batch's combined reply.
	KindBatchReply = "b2b-batch-reply"
)

// BatchSize reports how many sub-messages a batch or batch-reply envelope
// carries, and 0 for ordinary envelopes. Metering uses it to keep
// message-overhead experiments honest after coalescing.
func BatchSize(env *Envelope) int {
	switch env.Kind {
	case KindBatch, KindBatchReply:
		return len(env.Batch)
	default:
		return 0
	}
}

// CoalesceOptions configures a Coalescer.
type CoalesceOptions struct {
	// Clock is ignored: a flusher drains what is pending without
	// lingering, so no timer runs. It is kept for callers that still set
	// it.
	Clock clock.Clock
	// Obs, when non-nil, records batch occupancy (sub-envelopes per
	// flushed batch) into the telemetry plane.
	Obs *obs.Scope
}

// DefaultMaxCoalesce caps the sub-envelopes in one coalesced batch.
const DefaultMaxCoalesce = 64

// DefaultFlushTimeout bounds one batch's wire exchange. Individual
// callers' contexts cannot bound the shared flusher — a batch serves many
// callers — so this is what keeps an unresponsive peer from wedging a
// destination's queue forever. It exceeds the default server-side
// execution timeout (30s) so a slow-but-legitimate request batch is not
// failed spuriously.
const DefaultFlushTimeout = 60 * time.Second

// Coalescer wraps an Endpoint, combining concurrent Sends and Requests to
// the same destination into single batch envelopes. Wrap it around a
// Reliable endpoint: each flushed batch is then retransmitted as one unit
// and the receiver's per-sub-envelope de-duplication keeps processing
// exactly-once.
type Coalescer struct {
	inner     Endpoint
	occupancy *obs.Histogram

	mu     sync.Mutex
	queues map[string]chan *pendingEnv
	closed bool
	wg     sync.WaitGroup
	quit   chan struct{}
	// done closes once every flusher has exited; waiters use it to
	// detect an envelope that slipped into a queue no flusher will ever
	// drain (the enqueue-versus-Close race).
	done chan struct{}
}

var _ Endpoint = (*Coalescer)(nil)

type pendingEnv struct {
	env       *Envelope
	wantReply bool
	resp      chan flushResult
}

type flushResult struct {
	reply *Envelope
	err   error
}

// NewCoalescer wraps inner with envelope coalescing.
func NewCoalescer(inner Endpoint, opts CoalesceOptions) *Coalescer {
	return &Coalescer{
		inner:     inner,
		occupancy: opts.Obs.Histogram(obs.MCoalesceBatchOccupancy),
		queues:    make(map[string]chan *pendingEnv),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Addr implements Endpoint.
func (c *Coalescer) Addr() string { return c.inner.Addr() }

// maxCoalesceBody is the body size above which an envelope bypasses
// coalescing: batching exists to amortise round trips over small protocol
// messages, and folding large payloads (chunk slices, sealed-segment
// ships) into batches would blow the combined envelope past the wire's
// frame limit while delaying the small messages sharing its flush.
const maxCoalesceBody = 64 << 10

// Send implements Endpoint: the envelope joins the destination's next
// batch. The call returns once the batch carrying it has been handed to
// the underlying endpoint, preserving Send's error fidelity and providing
// backpressure. Large-bodied envelopes skip the batch queue entirely.
func (c *Coalescer) Send(ctx context.Context, to string, env *Envelope) error {
	if len(env.Body) > maxCoalesceBody {
		return c.inner.Send(ctx, to, env)
	}
	_, err := c.enqueue(ctx, to, env, false)
	return err
}

// Request implements Endpoint: the request joins the destination's next
// batch and its reply is extracted from the combined batch reply.
// Large-bodied envelopes skip the batch queue entirely.
func (c *Coalescer) Request(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	if len(env.Body) > maxCoalesceBody {
		return c.inner.Request(ctx, to, env)
	}
	return c.enqueue(ctx, to, env, true)
}

func (c *Coalescer) enqueue(ctx context.Context, to string, env *Envelope, wantReply bool) (*Envelope, error) {
	q, err := c.queue(to)
	if err != nil {
		return nil, err
	}
	p := &pendingEnv{env: env, wantReply: wantReply, resp: make(chan flushResult, 1)}
	select {
	case q <- p:
	case <-c.quit:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case r := <-p.resp:
		return r.reply, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.done:
		// Every flusher has exited. One may still have served this
		// envelope during its final drain; only an unserved one fails.
		select {
		case r := <-p.resp:
			return r.reply, r.err
		default:
			return nil, ErrClosed
		}
	}
}

// queue returns (starting if necessary) the destination's flusher queue.
func (c *Coalescer) queue(to string) (chan *pendingEnv, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	q, ok := c.queues[to]
	if !ok {
		q = make(chan *pendingEnv, 4*DefaultMaxCoalesce)
		c.queues[to] = q
		c.wg.Add(1)
		go c.flusher(to, q)
	}
	return q, nil
}

// flusher is the per-destination group committer: it drains pending
// envelopes into batches and flushes each batch as one wire envelope.
func (c *Coalescer) flusher(to string, q chan *pendingEnv) {
	defer c.wg.Done()
	for {
		select {
		case p := <-q:
			c.flush(to, c.drain(q, p))
		case <-c.quit:
			for {
				select {
				case p := <-q:
					c.flush(to, c.drain(q, p))
				default:
					return
				}
			}
		}
	}
}

func (c *Coalescer) drain(q chan *pendingEnv, first *pendingEnv) []*pendingEnv {
	batch := []*pendingEnv{first}
	yields := 0
	for len(batch) < DefaultMaxCoalesce {
		select {
		case p := <-q:
			batch = append(batch, p)
			continue
		default:
		}
		// Yield so already-runnable senders get to enqueue (channel
		// handoff scheduling would otherwise serialise flushes on small
		// machines), then stop once the queue stays empty.
		if yields >= 2 {
			return batch
		}
		yields++
		runtime.Gosched()
	}
	return batch
}

// flush sends one batch. A single Send travels unwrapped — there is
// nothing to coalesce and nothing to gain from the batch framing. The
// exchange runs under DefaultFlushTimeout rather than any one caller's
// context: a batch serves many callers, and the bound is what keeps a
// dead peer from wedging this destination's flusher (and Close) forever.
func (c *Coalescer) flush(to string, batch []*pendingEnv) {
	c.occupancy.Observe(int64(len(batch)))
	ctx, cancel := context.WithTimeout(context.Background(), DefaultFlushTimeout)
	defer cancel()
	if len(batch) == 1 {
		p := batch[0]
		if p.wantReply {
			reply, err := c.inner.Request(ctx, to, p.env)
			p.resp <- flushResult{reply: reply, err: err}
		} else {
			p.resp <- flushResult{err: c.inner.Send(ctx, to, p.env)}
		}
		return
	}
	items := make([]BatchItem, len(batch))
	for i, p := range batch {
		items[i] = BatchItem{Env: p.env, WantReply: p.wantReply}
	}
	env := &Envelope{ID: id.NewMsg(), Kind: KindBatch, Batch: items}
	// One wire round trip for the whole batch: the combined reply carries
	// every sub-reply and doubles as the delivery acknowledgement for
	// one-way items.
	replyEnv, err := c.inner.Request(ctx, to, env)
	if err != nil {
		c.fail(batch, err)
		return
	}
	if replyEnv == nil || replyEnv.Kind != KindBatchReply || len(replyEnv.Batch) != len(batch) {
		c.fail(batch, fmt.Errorf("transport: malformed batch reply for %d items", len(batch)))
		return
	}
	for i, p := range batch {
		r := replyEnv.Batch[i]
		if r.Err != "" {
			p.resp <- flushResult{err: fmt.Errorf("transport: remote: %s", r.Err)}
			continue
		}
		p.resp <- flushResult{reply: r.Env}
	}
}

func (c *Coalescer) fail(batch []*pendingEnv, err error) {
	for _, p := range batch {
		p.resp <- flushResult{err: err}
	}
}

// Close flushes pending batches and closes the underlying endpoint.
func (c *Coalescer) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return c.inner.Close()
	}
	c.closed = true
	c.mu.Unlock()
	close(c.quit)
	c.wg.Wait()
	close(c.done)
	return c.inner.Close()
}

// BatchOpener wraps a Handler, unpacking batch envelopes and dispatching
// each sub-envelope through the inner handler — concurrently, up to the
// worker bound, so a batch of incoming tokens is verified by parallel
// workers. It must sit OUTSIDE the de-duplication layer: sub-envelopes
// keep their own identifiers, so replay protection applies per
// sub-envelope regardless of how batches were framed, retried or
// duplicated in flight.
type BatchOpener struct {
	inner   Handler
	workers int
}

var _ Handler = (*BatchOpener)(nil)

// DefaultBatchWorkers is the per-batch handler concurrency (or
// GOMAXPROCS when larger). Handlers spend much of a sub-message's life
// blocked — executing the request, appending to the log — so it exceeds
// GOMAXPROCS rather than matching it: concurrent sub-handlers are what
// let one group commit cover many runs.
const DefaultBatchWorkers = 16

// NewBatchOpener wraps inner.
func NewBatchOpener(inner Handler) *BatchOpener {
	return &BatchOpener{inner: inner, workers: max(DefaultBatchWorkers, runtime.GOMAXPROCS(0))}
}

// Handle implements Handler.
func (o *BatchOpener) Handle(ctx context.Context, env *Envelope) (*Envelope, error) {
	if env.Kind != KindBatch {
		return o.inner.Handle(ctx, env)
	}
	replies := make([]BatchItem, len(env.Batch))
	workers := o.workers
	if workers > len(env.Batch) {
		workers = len(env.Batch)
	}
	handle := func(i int) {
		item := env.Batch[i]
		// A malformed batch from an untrusted peer may omit the
		// sub-envelope; answer the item instead of crashing the node.
		if item.Env == nil {
			replies[i] = BatchItem{Err: "transport: batch item missing envelope"}
			return
		}
		// Sub-envelopes inherit the batch's transport framing.
		item.Env.From, item.Env.To = env.From, env.To
		reply, err := o.inner.Handle(ctx, item.Env)
		if err != nil {
			replies[i] = BatchItem{Err: err.Error()}
			return
		}
		if item.WantReply {
			replies[i] = BatchItem{Env: reply}
		}
	}
	if workers <= 1 {
		for i := range env.Batch {
			handle(i)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					handle(i)
				}
			}()
		}
		for i := range env.Batch {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	return &Envelope{ID: id.NewMsg(), Kind: KindBatchReply, Batch: replies}, nil
}
