package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"nonrep/internal/bounded"
	"nonrep/internal/obs"
)

// RetryPolicy controls retransmission.
type RetryPolicy struct {
	// Attempts is the maximum number of tries (not retries); minimum 1.
	Attempts int
	// Backoff is the base delay before the first retry; subsequent
	// retries double it (capped exponential backoff with full jitter).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth. Zero means 64x Backoff.
	MaxBackoff time.Duration
	// NoJitter disables the full-jitter randomisation, making delays
	// deterministic (the capped exponential value itself). Tests that
	// assert timing use it; production senders keep jitter so retry
	// storms from many senders decorrelate.
	NoJitter bool
}

// DefaultRetryPolicy retries enough to mask the bounded transient failures
// of trusted-interceptor assumption 2.
var DefaultRetryPolicy = RetryPolicy{Attempts: 8, Backoff: 5 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}

// Delay computes the sleep before retry n (1-based): capped exponential
// backoff with full jitter (a uniform draw from (0, cap]), the spread that
// keeps simultaneous retriers from re-colliding every round. It is the one
// backoff of the tree: the durable job runtime spaces its attempts with it
// too.
func (p RetryPolicy) Delay(retry int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = math.MaxInt64
		if p.Backoff <= max/64 {
			max = 64 * p.Backoff
		}
	}
	d := p.Backoff
	for i := 1; i < retry && d < max; i++ {
		if d > max/2 {
			// Doubling again would overflow or overshoot; either way the
			// cap is the answer.
			d = max
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	if p.NoJitter {
		return d
	}
	return time.Duration(1 + rand.Int63n(int64(d)))
}

// temporary is the conventional interface errors implement to classify
// themselves for retry purposes.
type temporary interface{ Temporary() bool }

// Permanent reports whether err is not worth retrying at the transport
// layer: the destination does not exist, the endpoint is closed, the
// tenant is unknown, or the error classifies itself via Temporary().
// Unknown errors are treated as temporary — assumption 2 promises only a
// bounded number of TRANSIENT failures, so the retrying layer must mask
// anything it cannot prove permanent.
func Permanent(err error) bool {
	if err == nil {
		return false
	}
	var t temporary
	if errors.As(err, &t) {
		return !t.Temporary()
	}
	return errors.Is(err, ErrUnknownAddress) ||
		errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrUnknownTenant)
}

// answered marks a far handler's error that the receiver's replay cache
// returned: Dedup answers every repeat of the envelope with the same
// error, so the refusal is final and Reliable does not repeat it.
type answered struct{ error }

func (a answered) Unwrap() error { return a.error }

// answeredMark ends the body of a TCP "error" reply that carries an
// answered error. A sender that predates it shows it as part of the
// message; a reply without it stays transient.
const answeredMark = " [answered]"

// isAnswered reports whether err is a far handler's answered refusal.
func isAnswered(err error) bool { return errors.As(err, new(answered)) }

// markAnswered marks a handler's error as answered, unless it is the
// receiver's own context ending, which a repeat may outlive.
func markAnswered(ctx context.Context, err error) error {
	if err == nil || contextEnded(ctx, err) {
		return err
	}
	return answered{err}
}

// contextEnded reports whether a handler's error is a context ending
// rather than its outcome.
func contextEnded(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Reliable wraps an endpoint with retransmission. Paired with Dedup on the
// receiving side, it provides eventual delivery with exactly-once
// processing over a network with a bounded number of transient failures.
// Retries stop early for permanent errors (see Permanent), for a far
// handler's refusal the receiver's Dedup answered, and when the
// context deadline cannot accommodate the next backoff delay, so callers
// with a budget are not left burning it on a destination that cannot
// answer in time.
type Reliable struct {
	inner  Endpoint
	policy RetryPolicy
}

var _ Endpoint = (*Reliable)(nil)

// NewReliable wraps inner with the given retry policy.
func NewReliable(inner Endpoint, policy RetryPolicy) *Reliable {
	if policy.Attempts < 1 {
		policy.Attempts = 1
	}
	return &Reliable{inner: inner, policy: policy}
}

// Addr implements Endpoint.
func (r *Reliable) Addr() string { return r.inner.Addr() }

// Send implements Endpoint with retransmission: a send is an
// acknowledged exchange on every network, so a lost one fails and is
// repeated under the retry policy, as a request is.
func (r *Reliable) Send(ctx context.Context, to string, env *Envelope) error {
	_, err := r.retry(ctx, "send", to, func() (*Envelope, error) {
		return nil, r.inner.Send(ctx, to, env)
	})
	return err
}

// Request implements Endpoint with retransmission.
func (r *Reliable) Request(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	return r.retry(ctx, "request", to, func() (*Envelope, error) {
		return r.inner.Request(ctx, to, env)
	})
}

// retry runs one exchange with the inner endpoint under the retry
// policy. The envelope keeps its message identifier across attempts, so
// the receiver's Dedup absorbs an exchange that was processed although
// its answer was lost.
func (r *Reliable) retry(ctx context.Context, op, to string, exchange func() (*Envelope, error)) (*Envelope, error) {
	var lastErr error
	for attempt := 1; attempt <= r.policy.Attempts; attempt++ {
		reply, err := exchange()
		if err == nil {
			return reply, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if done, err := r.pause(ctx, attempt, lastErr); done {
			if err != nil {
				return nil, err
			}
			break
		}
	}
	return nil, fmt.Errorf("transport: %s to %s gave up: %w", op, to, lastErr)
}

// pause decides whether to retry after a failed attempt and sleeps the
// backoff if so. It reports done=true when the retry loop should stop:
// the attempt budget is spent, the failure is permanent or answered, or
// the context deadline cannot fit the next delay (retrying would only
// convert the caller's specific error into a generic deadline exceeded).
func (r *Reliable) pause(ctx context.Context, attempt int, cause error) (done bool, err error) {
	if attempt >= r.policy.Attempts || Permanent(cause) || isAnswered(cause) {
		return true, nil
	}
	d := r.policy.Delay(attempt)
	if d <= 0 {
		return false, nil
	}
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < d {
		return true, nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return false, nil
	case <-ctx.Done():
		return true, ctx.Err()
	}
}

// Close implements Endpoint.
func (r *Reliable) Close() error { return r.inner.Close() }

// Dedup wraps a handler with idempotent replay: the first result for each
// envelope identifier is cached and returned verbatim for retransmissions,
// so retried requests are processed exactly once. The cache is a window,
// bounded both by entries and by the reply bytes it pins.
type Dedup struct {
	inner Handler
	hits  *obs.Counter

	mu sync.Mutex
	// results is charged with the reply body bytes each result holds. A
	// delivery still in flight may be evicted: its waiters hold the result
	// itself, not the entry.
	results *bounded.Table[string, *dedupResult]
}

// dedupResult is one delivery's outcome. reply and err are written once,
// before done is closed.
type dedupResult struct {
	reply *Envelope
	err   error
	done  chan struct{}
}

var _ Handler = (*Dedup)(nil)

// Bounds of the replay cache: the newest dedupCacheLimit deliveries,
// within dedupCacheBytes of cached reply bodies. Small replies live out
// the whole entry window; bulk replies (a served stream chunk is a
// megabyte) are evicted by bytes long before, which only costs a late
// retransmission of an idempotent fetch a second dispatch.
const (
	dedupCacheLimit = 4096
	dedupCacheBytes = 32 << 20
)

// NewDedupWith wraps inner with a replay cache whose hits are counted in
// the telemetry scope (nil scope means uncounted).
func NewDedupWith(inner Handler, scope *obs.Scope) *Dedup {
	return &Dedup{
		inner:   inner,
		hits:    scope.Counter(obs.MDedupHitsTotal),
		results: bounded.New[string, *dedupResult](dedupCacheLimit, dedupCacheBytes, nil),
	}
}

// Handle implements Handler.
func (d *Dedup) Handle(ctx context.Context, env *Envelope) (*Envelope, error) {
	key := string(env.ID)
	d.mu.Lock()
	if res, ok := d.results.Get(key); ok {
		d.mu.Unlock()
		d.hits.Inc()
		// A concurrent duplicate waits for the first delivery to finish.
		select {
		case <-res.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return res.reply, markAnswered(ctx, res.err)
	}
	res := &dedupResult{done: make(chan struct{})}
	d.results.Put(key, res)
	d.mu.Unlock()

	res.reply, res.err = d.inner.Handle(ctx, env)
	close(res.done)

	ended := res.err != nil && contextEnded(ctx, res.err)
	if ended || (res.reply != nil && len(res.reply.Body) > 0) {
		d.mu.Lock()
		// Only a result still in the window is forgotten or charged, not
		// a redelivery dispatched after it was evicted.
		if cur, ok := d.results.Get(key); ok && cur == res {
			if ended {
				// A handler cut short by a context ending has no outcome
				// to replay: a repeat runs it again.
				d.results.Delete(key)
			} else {
				d.results.Charge(key, int64(len(res.reply.Body)))
			}
		}
		d.mu.Unlock()
	}
	return res.reply, markAnswered(ctx, res.err)
}
