package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"nonrep/internal/container"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
)

// invokeWorkload describes one of the four workloads built around
// Proxy.Call*: how to assemble its trust domain and how many callers
// drive it. The generic runner (run) supplies set-up timing,
// warm-up, the measured closed-loop interval, draining, the correctness
// checks and the metrics.
type invokeWorkload struct {
	name      string
	pipelined bool
	callers   func(nproc int) int
	build     func(t *topo, env runEnv) (*built, error)
}

// built is an assembled workload, ready to be driven.
type built struct {
	// op performs one invocation for one caller and checks its output.
	op opFunc
	// clients and servers are the organisations whose vaults must hold
	// the invocations' evidence, by role.
	clients, servers []*org
	// bracketsPerOp is how many job-* journal records each invocation
	// leaves in the client's vault (durable submissions).
	bracketsPerOp int
	// plane is the production plane hanging off the server's vault
	// (evidence_plane only).
	plane *plane
	// payload is the streamed parameter, which comes back as the streamed
	// result (stream_bulk only).
	payload []byte
	// calls counts successful invocations since the domain was built,
	// warm-up included: the record-count check needs the exact total.
	calls *atomic.Int64
	// inputs digests what the seed generated for the first operation, so
	// two seeds can be seen to drive the program with different inputs.
	inputs string
}

// inputsDigest is a short digest of generated input bytes.
func inputsDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

const echoParamBytes = 64

// checkedCall wraps one Proxy.Call of the echo component with a 64-byte
// seeded parameter and the cheap per-call output checks; signatures of a
// seeded sample are verified after the clock stops (check).
func checkedCall(t *topo, calls *atomic.Int64, pick func(rng *rand.Rand) (client *org, proxy *container.Proxy)) opFunc {
	return func(ctx context.Context, _ int, rng *rand.Rand) (*invoke.Result, error) {
		client, proxy := pick(rng)
		var blob [echoParamBytes]byte
		rng.Read(blob[:])
		param, err := evidence.ValueParam("arg0", blob[:])
		if err != nil {
			return nil, err
		}
		sp := t.tr.start(layerInvoke, "call", string(client.party), client.label)
		res, err := proxy.Call(ctx, "Echo", param)
		if err != nil {
			sp.end("", "")
			return nil, err
		}
		sp.end(string(res.Run), "")
		if err := checkResult(res, param.Value); err != nil {
			return nil, err
		}
		calls.Add(1)
		return res, nil
	}
}

// checkResult is the per-call output check: an OK response echoing the
// parameter, with exactly the four tokens of the exchange, all bound to
// the run.
func checkResult(res *invoke.Result, want []byte) error {
	if res.Status != evidence.StatusOK {
		return fmt.Errorf("run %s: status %s (%s)", res.Run, res.Status, res.Err)
	}
	if want != nil && (len(res.Result) != 1 || !bytes.Equal(res.Result[0].Value, want)) {
		return fmt.Errorf("run %s: echoed value differs from the parameter", res.Run)
	}
	kinds := [4]evidence.Kind{evidence.KindNRO, evidence.KindNRR, evidence.KindNROResp, evidence.KindNRRResp}
	if len(res.Evidence) != len(kinds) {
		return fmt.Errorf("run %s: %d evidence tokens, want 4", res.Run, len(res.Evidence))
	}
	for i, tok := range res.Evidence {
		if tok.Kind != kinds[i] || tok.Run != res.Run {
			return fmt.Errorf("run %s: token %d is %s of run %s", res.Run, i, tok.Kind, tok.Run)
		}
	}
	return nil
}

// invokeSeq: two dedicated organisations, pipelining off.
var invokeSeq = invokeWorkload{
	name: "invoke_seq",
	// Two callers per processor: with one, a processor idles whenever its
	// caller waits on the wire, and the result measures how fast the
	// virtual CPU wakes up rather than what an invocation costs.
	callers: func(nproc int) int { return nproc },
	build: func(t *topo, _ runEnv) (*built, error) {
		client, server, err := pair(t, orgSpec{party: "urn:bench:client", vault: true}, orgSpec{party: "urn:bench:server", vault: true})
		if err != nil {
			return nil, err
		}
		b := &built{clients: []*org{client}, servers: []*org{server}, calls: new(atomic.Int64)}
		proxy := client.proxy(server.party)
		b.op = checkedCall(t, b.calls, func(*rand.Rand) (*org, *container.Proxy) { return client, proxy })
		return b, nil
	},
}

// pair enrols a client and an echo-serving server organisation.
func pair(t *topo, clientSpec, serverSpec orgSpec) (client, server *org, err error) {
	if client, err = t.addOrg(clientSpec); err != nil {
		return nil, nil, err
	}
	if server, err = t.addOrg(serverSpec); err != nil {
		return nil, nil, err
	}
	return client, server, server.serveEcho()
}

const batchedTenants = 8

// invokeBatched: eight tenants on one host calling eight tenants on a
// second host over the pipelined hot path.
var invokeBatched = invokeWorkload{
	name:      "invoke_batched",
	pipelined: true,
	callers:   func(nproc int) int { return min(4*nproc, 16) },
	build: func(t *topo, _ runEnv) (*built, error) {
		hostA, err := t.addHost("host-a")
		if err != nil {
			return nil, err
		}
		hostB, err := t.addHost("host-b")
		if err != nil {
			return nil, err
		}
		b := &built{calls: new(atomic.Int64)}
		for i := 0; i < batchedTenants; i++ {
			c, err := t.addOrg(orgSpec{party: id.Party(fmt.Sprintf("urn:bench:a%d", i)), host: hostA, hostName: "host-a", vault: true})
			if err != nil {
				return nil, err
			}
			s, err := t.addOrg(orgSpec{party: id.Party(fmt.Sprintf("urn:bench:b%d", i)), host: hostB, hostName: "host-b", vault: true})
			if err != nil {
				return nil, err
			}
			if err := s.serveEcho(); err != nil {
				return nil, err
			}
			b.clients, b.servers = append(b.clients, c), append(b.servers, s)
		}
		proxies := make([][]*container.Proxy, batchedTenants)
		for i, c := range b.clients {
			for _, s := range b.servers {
				proxies[i] = append(proxies[i], c.proxy(s.party))
			}
		}
		b.op = checkedCall(t, b.calls, func(rng *rand.Rand) (*org, *container.Proxy) {
			i, j := rng.Intn(batchedTenants), rng.Intn(batchedTenants)
			return b.clients[i], proxies[i][j]
		})
		return b, nil
	},
}

const streamBytes = 8 << 20

// streamBulk: invoke_seq's topology, one caller, an 8 MiB streamed
// parameter echoed back as a streamed result.
var streamBulk = invokeWorkload{
	name:    "stream_bulk",
	callers: func(int) int { return 1 },
	build: func(t *topo, env runEnv) (*built, error) {
		client, server, err := pair(t, orgSpec{party: "urn:bench:client", vault: true}, orgSpec{party: "urn:bench:server", vault: true})
		if err != nil {
			return nil, err
		}
		size := streamBytes
		if env.smoke {
			size = 2 << 20 // still several chunks
		}
		payload := make([]byte, size)
		rand.New(rand.NewSource(env.seed)).Read(payload)
		b := &built{clients: []*org{client}, servers: []*org{server}, calls: new(atomic.Int64),
			payload: payload, inputs: inputsDigest(payload)}
		proxy := client.proxy(server.party)
		echoed := make([]byte, size) // one caller, so one reusable buffer
		b.op = func(ctx context.Context, _ int, _ *rand.Rand) (*invoke.Result, error) {
			sp := t.tr.start(layerInvoke, "call-stream", string(client.party), client.label)
			res, err := proxy.CallStream(ctx, "EchoStream", invoke.StreamParam("doc", bytes.NewReader(payload)))
			if err != nil {
				sp.end("", "")
				return nil, err
			}
			// The round trip ends when the echo has been read: result
			// chunks are fetched and verified lazily.
			rs := res.Stream("stream0")
			if rs == nil {
				sp.end(string(res.Run), "")
				return nil, fmt.Errorf("run %s: no result stream", res.Run)
			}
			n, err := io.ReadFull(rs, echoed)
			sp.end(string(res.Run), "")
			if err != nil {
				return nil, fmt.Errorf("run %s: read echo after %d bytes: %w", res.Run, n, err)
			}
			if extra, _ := rs.Read(make([]byte, 1)); extra != 0 {
				return nil, fmt.Errorf("run %s: echo longer than the payload", res.Run)
			}
			if !bytes.Equal(echoed, payload) {
				return nil, fmt.Errorf("run %s: echoed bytes differ from the payload", res.Run)
			}
			if err := checkResult(res, nil); err != nil {
				return nil, err
			}
			b.calls.Add(1)
			return res, nil
		}
		return b, nil
	},
}

// runEnv is what a workload run is given.
type runEnv struct {
	seed    int64
	seconds float64
	traced  bool
	scratch string // directory for vaults; removed by the run
	spanOut string // where a traced run writes its spans ("" = nowhere)
	// smoke shrinks fixed sizes (stream payload, audit vault) so the test
	// suite can run every workload in about a second each.
	smoke bool
	// cache, when set, lets audit_read keep its built vault for a later
	// run of the same seed and size (-selfcheck's second set).
	cache *vaultCache
}

func (e runEnv) measure() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// warmup is how long callers run before anything is measured: long
// enough for listeners, goroutine pools and caches to settle.
func (e runEnv) warmup() time.Duration { return min(time.Second, e.measure()/4) }

// assemble builds the workload's domain under a fresh directory and
// completes its first operation.
func (w invokeWorkload) assemble(ctx context.Context, env runEnv) (*topo, *built, error) {
	root, err := os.MkdirTemp(env.scratch, w.name+"-*")
	if err != nil {
		return nil, nil, err
	}
	t, err := newTopo(root, env.seed, w.pipelined)
	if err != nil {
		os.RemoveAll(root)
		return nil, nil, err
	}
	b, err := w.build(t, env)
	if err == nil {
		if b.inputs == "" {
			// The first operation's parameter, as the first caller draws it.
			var blob [echoParamBytes]byte
			rand.New(rand.NewSource(env.seed)).Read(blob[:])
			b.inputs = inputsDigest(blob[:])
		}
		_, err = b.op(ctx, 0, rand.New(rand.NewSource(env.seed)))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, errors.Join(err, t.destroy()))
	}
	return t, b, nil
}

// settledBytes seals every vault's active segment, so that index and
// manifest bytes for everything written so far are on disk, has the
// replication engine ship those seals, and sums the evidence
// directories. Called with nothing in flight.
func settledBytes(ctx context.Context, t *topo, b *built) (int64, error) {
	if err := t.sealAll(); err != nil {
		return 0, err
	}
	if b.plane != nil {
		if _, err := b.plane.flush(ctx); err != nil {
			return 0, fmt.Errorf("georep flush: %w", err)
		}
	}
	return dirBytes(t.evidenceDirs()...)
}

func (w invokeWorkload) run(ctx context.Context, env runEnv) (res *result, err error) {
	begun := time.Now()
	res = newResult(w.name, env.traced)
	t, b, err := w.assemble(ctx, env)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, t.destroy()) }()

	callers := w.callers(runtime.NumCPU())
	runSession(ctx, callers, env.warmup(), env.seed+1, b.op)
	if b.plane != nil {
		if err := b.plane.drain(ctx); err != nil {
			return nil, err
		}
	}

	// Quiesced boundary: nothing is in flight, so record counts, byte
	// counters and directory sizes are exact.
	bytes0, err := settledBytes(ctx, t, b)
	if err != nil {
		return nil, err
	}
	first := t.mark()
	if b.plane != nil {
		b.plane.beginLag()
	}
	setup := time.Since(begun)

	// An untraced run measures one interval with spans off. A traced run
	// splits it: untraced quarter, traced half, untraced quarter, so that
	// a slow drift over the interval weighs on both kinds alike; the
	// difference between the two is the tracing overhead. The diagnostic
	// end-to-end metrics come from the span-free part either way.
	plainFor := env.measure()
	if env.traced {
		plainFor /= 4
	}
	plain := runSession(ctx, callers, plainFor, env.seed+2, b.op)
	if b.plane != nil {
		if err := b.plane.drain(ctx); err != nil {
			res.problemf("drain: %v", err)
		}
		b.plane.endLag()
	}
	var traced *session
	var from, to layerMark
	if env.traced {
		from = t.mark()
		t.tr.on.Store(true)
		traced = runSession(ctx, callers, env.measure()/2, env.seed+3, b.op)
		t.tr.on.Store(false)
		to = t.mark()
		plain.merge(runSession(ctx, callers, env.measure()/4, env.seed+4, b.op))
	}

	flush := time.Duration(0)
	if b.plane != nil {
		if err := b.plane.drain(ctx); err != nil {
			res.problemf("drain: %v", err)
		}
		if flush, err = b.plane.flush(ctx); err != nil {
			res.problemf("georep flush: %v", err)
		}
	}
	last := t.mark()
	bytes1, err := settledBytes(ctx, t, b)
	if err != nil {
		return nil, err
	}

	sessions := []*session{plain}
	if traced != nil {
		sessions = append(sessions, traced)
	}
	var ok int
	for _, s := range sessions {
		res.Attempted += int64(s.attempted())
		res.Failed += int64(s.failed)
		ok += len(s.ok)
		for _, e := range s.errs {
			res.notef("failed operation: %v", e)
		}
	}

	w.check(res, t, b, sessions, env)

	// The issue's end-to-end names, from the span-free part of the run.
	lat := newLatencies(plain.ok, plain.failed)
	if len(b.payload) > 0 {
		res.set("stream_mib_s", plain.opsPerSec()*2*float64(len(b.payload))/(1<<20), len(plain.ok))
		res.set("stream_p50_ms", ms(lat.percentile(50)), lat.count())
	} else {
		res.set("invoke_ops_s", plain.opsPerSec(), len(plain.ok))
		res.set("invoke_p50_ms", ms(lat.percentile(50)), lat.count())
		res.set("invoke_p99_ms", ms(lat.percentile(99)), lat.count())
		if n := beyond(lat.count(), 99); n < minBeyond {
			res.notef("invoke_p99_ms has only %d of %d samples beyond it", n, lat.count())
		}
	}
	wire := last.wire.sub(first.wire)
	res.set("wire_bytes_per_invocation", float64(wire.bytes)/float64(max(ok, 1)), ok)
	res.set("peak_rss_mib", peakRSSMiB(), 0)
	if b.plane != nil {
		b.plane.lagMetrics(res)
	}
	res.notef("callers=%d closed loop; set-up %.3fs of which warm-up %.3fs; first input %s", callers, setup.Seconds(), env.warmup().Seconds(), b.inputs)

	if !env.traced {
		res.set("setup_s", setup.Seconds(), 1)
		res.set("evidence_bytes_per_invocation", float64(bytes1-bytes0)/float64(max(ok, 1)), ok)
	} else {
		spans := t.tr.take()
		if env.spanOut != "" {
			if err := writeSpans(env.spanOut, spans); err != nil {
				return nil, err
			}
			res.notef("%d spans written to %s", len(spans), env.spanOut)
		}
		layerMetrics(res, t, b, spans, from, to, plain, traced)
		if b.plane != nil {
			b.plane.layerMetrics(res, flush)
		}
		probeLayers(res, t, b, sessions)
		res.notef("%d operations with spans off (first and last quarter), %d traced (middle half)", len(plain.ok), len(traced.ok))
	}

	// Close the domain, then check that every acknowledged append is
	// still there when the vaults are opened again.
	heads := vaultHeads(t)
	if err := t.close(); err != nil {
		res.problemf("close: %v", err)
	}
	checkReopen(res, heads)
	res.finish()
	return res, nil
}
