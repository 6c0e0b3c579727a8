package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nonrep/internal/durable"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
)

const sharedFeeds = 16

// evidencePlane: invoke_seq's topology with the full production plane
// hanging off the vaults' commit and seal hooks — durable job brackets
// at the client, and at the server asynchronous trailing replication to
// a third organisation's replica store plus 16 shared and one dedicated
// live subscription held by a fourth.
var evidencePlane = invokeWorkload{
	name:    "evidence_plane",
	callers: func(nproc int) int { return min(4*nproc, 16) },
	build: func(t *topo, _ runEnv) (*built, error) {
		const replicaParty, watcherParty = "urn:bench:replica", "urn:bench:watcher"
		replica, err := t.addOrg(orgSpec{party: replicaParty, replicas: true})
		if err != nil {
			return nil, err
		}
		client, server, err := pair(t,
			orgSpec{party: "urn:bench:client", vault: true, durable: true},
			orgSpec{party: "urn:bench:server", vault: true, geoPeers: []id.Party{replicaParty}, feeds: true})
		if err != nil {
			return nil, err
		}
		watcher, err := t.addOrg(orgSpec{party: watcherParty})
		if err != nil {
			return nil, err
		}
		p := &plane{server: server, replica: replica, deliverAt: make(map[uint64]time.Time)}
		t.onClose(p.close)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Feed 0 is the dedicated, timestamped one; the rest share one
		// wire subscription, the shared-informer arrangement.
		for i := 0; i <= sharedFeeds; i++ {
			feed, err := watcher.subCli.Subscribe(ctx, server.party, protocol.WatchConfig{Shared: i > 0})
			if err != nil {
				return nil, fmt.Errorf("subscribe feed %d: %w", i, err)
			}
			p.feeds = append(p.feeds, feed)
			p.consumers.Add(1)
			go p.consume(feed, i == 0)
		}

		b := &built{clients: []*org{client}, servers: []*org{server}, bracketsPerOp: 2, plane: p, calls: new(atomic.Int64)}
		proxy := client.proxy(server.party)
		b.op = func(ctx context.Context, _ int, rng *rand.Rand) (*invoke.Result, error) {
			var blob [echoParamBytes]byte
			rng.Read(blob[:])
			param, err := evidence.ValueParam("arg0", blob[:])
			if err != nil {
				return nil, err
			}
			root := t.tr.start(layerInvoke, "call-async", string(client.party), client.label)
			submit := t.tr.start(layerSubmit, "submit", string(client.party), client.label)
			job, err := proxy.CallAsync(ctx, "Echo", param)
			jobRun := ""
			if j, ok := job.(*durable.Job); ok && err == nil {
				jobRun = string(j.ID()) // a call job's id is its run
			}
			submit.end(jobRun, "")
			if err != nil {
				root.end("", "")
				return nil, err
			}
			res, err := job.Wait(ctx)
			if err != nil {
				root.end("", "")
				return nil, err
			}
			root.end(string(res.Run), "")
			if err := checkResult(res, param.Value); err != nil {
				return nil, err
			}
			b.calls.Add(1)
			return res, nil
		}
		return b, nil
	},
}

// plane is the live part of evidence_plane: subscriber goroutines and
// the replication engine, with what they observed.
type plane struct {
	server, replica *org
	feeds           []*protocol.Feed
	consumers       sync.WaitGroup
	delivered       atomic.Int64 // feed events received, all subscribers
	evicted         atomic.Int64

	mu        sync.Mutex
	deliverAt map[uint64]time.Time // dedicated feed: arrival time by sequence number
	// lagFrom/lagTo bound the sequence numbers whose lag is reported: the
	// records of the first span-free part of the measured interval (all
	// of it in an untraced run).
	lagFrom, lagTo uint64
	deliveredMark  int64
}

func (p *plane) consume(feed *protocol.Feed, stamp bool) {
	defer p.consumers.Done()
	for ev := range feed.Events() {
		p.delivered.Add(1)
		if !stamp || len(ev.Records) == 0 {
			continue
		}
		now := time.Now()
		p.mu.Lock()
		for _, rec := range ev.Records {
			p.deliverAt[rec.Seq] = now
		}
		p.mu.Unlock()
	}
	if errors.Is(feed.Err(), protocol.ErrSubEvicted) {
		p.evicted.Add(1)
	}
}

// drain waits until every subscriber has verified its way to the
// publisher's durable head.
func (p *plane) drain(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		seq, hash := p.server.v.LastPosition()
		behind := 0
		for _, f := range p.feeds {
			if fs, fh := f.Position(); fs != seq || fh != hash {
				behind++
			}
		}
		if behind == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d feeds still behind record %d after 20s", behind, len(p.feeds), seq)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// beginLag and endLag bracket the records whose feed lag is reported.
// Both are called with the subscribers drained.
func (p *plane) beginLag() {
	p.lagFrom, _ = p.server.v.LastPosition()
	p.deliveredMark = p.delivered.Load()
}

func (p *plane) endLag() { p.lagTo, _ = p.server.v.LastPosition() }

// flush runs one synchronous replication pass and reports how long it
// took.
func (p *plane) flush(ctx context.Context) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	start := time.Now()
	err := p.server.geo.Flush(ctx)
	return time.Since(start), err
}

func (p *plane) check(res *result) {
	seq, hash := p.server.v.LastPosition()
	for i, f := range p.feeds {
		if fs, fh := f.Position(); fs != seq || fh != hash {
			res.problemf("feed %d stopped at record %d, vault head is %d", i, fs, seq)
		}
		if err := f.Err(); err != nil {
			res.problemf("feed %d ended: %v", i, err)
		}
	}
	acked, err := p.replica.replicas.AckedSeq(string(p.server.party))
	if err != nil {
		res.problemf("replica watermark: %v", err)
	} else if acked < seq {
		res.problemf("replica acknowledged record %d, vault head is %d", acked, seq)
	}
}

// lags returns, for every record between beginLag and endLag, delivery
// time at the dedicated subscriber minus the time the record's group
// commit became durable at the publisher; a record that never arrived
// counts as a miss.
func (p *plane) lags() latencies {
	var lags []time.Duration
	clock := p.server.stamp
	clock.mu.Lock()
	p.mu.Lock()
	for seq := p.lagFrom + 1; seq <= p.lagTo; seq++ {
		c, okC := clock.at[seq]
		d, okD := p.deliverAt[seq]
		if okC && okD {
			lags = append(lags, max(d.Sub(c), 0))
		}
	}
	p.mu.Unlock()
	clock.mu.Unlock()
	return newLatencies(lags, int(p.lagTo-p.lagFrom)-len(lags))
}

// lagMetrics reports what a live watcher waits for.
func (p *plane) lagMetrics(res *result) {
	lat := p.lags()
	res.set("feed_lag_p50_ms", ms(lat.percentile(50)), lat.count())
	res.set("feed_lag_p99_ms", ms(lat.percentile(99)), lat.count())
	if n := beyond(lat.count(), 99); n < minBeyond {
		res.notef("feed_lag_p99_ms has only %d of %d samples beyond it", n, lat.count())
	}
}

// layerMetrics reports the feed and replication layers over the measured
// interval.
func (p *plane) layerMetrics(res *result, flush time.Duration) {
	lat := p.lags()
	var total time.Duration
	for _, d := range lat.sorted {
		total += d
	}
	res.set("feed.deliver_lag_ms", float64(total)/float64(max(len(lat.sorted), 1))/float64(time.Millisecond), lat.count())
	res.set("feed.events_delivered", float64(p.delivered.Load()-p.deliveredMark), 0)
	res.set("feed.evictions", float64(p.evicted.Load()), 0)
	res.set("georep.flush_ms", float64(flush)/float64(time.Millisecond), 1)
}

// close ends the subscriptions and waits for their consumers.
func (p *plane) close() {
	for _, f := range p.feeds {
		f.Close()
	}
	p.consumers.Wait()
}
