// Batch envelopes: an older sender combined concurrent protocol messages
// to one counterparty into a single b2b-batch wire envelope. Senders no
// longer do — every exchange is its own frame on the one multiplexed
// connection per peer, which a batch's slowest sub-reply would only hold
// up — but receivers still open batches from peers that send them. The
// BatchOpener unpacks sub-envelopes and dispatches each through the
// normal handler chain, outside the replay de-duplication layer, so every
// sub-envelope keeps its own exactly-once processing and a retransmitted
// or duplicated batch behaves exactly like retransmitted singles.
package transport

import (
	"context"
	"runtime"
	"sync"

	"nonrep/internal/clock"
	"nonrep/internal/id"
)

// Batch envelope kinds.
const (
	// KindBatch is the wire kind of a batch envelope.
	KindBatch = "b2b-batch"
	// KindBatchReply is the wire kind of a batch's combined reply.
	KindBatchReply = "b2b-batch-reply"
)

// BatchSize reports how many sub-messages a batch or batch-reply envelope
// carries, and 0 for ordinary envelopes. Metering uses it to count the
// protocol messages inside a batch from an older peer.
func BatchSize(env *Envelope) int {
	switch env.Kind {
	case KindBatch, KindBatchReply:
		return len(env.Batch)
	default:
		return 0
	}
}

// CoalesceOptions is ignored: senders no longer coalesce, so every
// protocol message travels as its own multiplexed frame on the one
// connection per peer. The type stays so that configurations naming it
// still build.
type CoalesceOptions struct {
	// Clock is ignored.
	Clock clock.Clock
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
