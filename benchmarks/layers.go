package main

import (
	"time"
)

// layerMark is a snapshot of the counters the traced half is measured
// between.
type layerMark struct {
	wire    wireSnapshot
	commits commitSnapshot
	seqs    map[*org]uint64 // each vault's head sequence number
}

func (t *topo) mark() layerMark {
	m := layerMark{wire: t.wire.snapshot(), commits: t.commits.snapshot(), seqs: make(map[*org]uint64)}
	for _, o := range t.vaults() {
		m.seqs[o], _ = o.v.LastPosition()
	}
	return m
}

// layerMetrics turns the traced half's spans and counters into the
// per-layer metrics. Times are per successful invocation of the traced
// half unless the unit says otherwise.
func layerMetrics(res *result, t *topo, b *built, spans []span, from, to layerMark, plain, traced *session) {
	ops := float64(max(len(traced.ok), 1))
	perOp := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) / ops }

	self := selfTimes(spans)
	count := make(map[string]int)
	busy := make(map[string]int64)
	selfSum := make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		count[s.Layer]++
		busy[s.Layer] += s.dur()
		selfSum[s.Layer] += self[s.ID]
	}
	wire := to.wire.sub(from.wire)
	commits := to.commits.sub(from.commits)

	res.set("sig.sign_calls", float64(count[layerSig]), 0)
	res.set("sig.sign_busy_ms", perOp(busy[layerSig]), count[layerSig])
	if count[layerSig] > 0 {
		res.set("evidence.tokens_per_signature", float64(commits.generated)/float64(count[layerSig]), count[layerSig])
	}
	res.set("vault.append_calls", float64(count[layerVault]), 0)
	res.set("vault.append_wait_ms", perOp(busy[layerVault]), count[layerVault])
	res.set("vault.commits", float64(commits.commits), 0)
	if commits.commits > 0 {
		res.set("vault.records_per_commit", float64(commits.records)/float64(commits.commits), int(commits.commits))
	}
	res.set("vault.seals", float64(commits.seals), 0)

	var records uint64
	var vaultDirs []string
	for _, o := range t.vaults() {
		n, _ := o.v.LastPosition()
		records += n
		vaultDirs = append(vaultDirs, o.vdir)
	}
	if size, err := dirBytes(vaultDirs...); err == nil && records > 0 {
		res.set("vault.disk_bytes_per_record", float64(size)/float64(records), int(records))
	}

	res.set("transport.envelopes_per_invocation", float64(wire.envelopes)/ops, int(wire.envelopes))
	if wire.envelopes > 0 {
		res.set("transport.submsgs_per_envelope", float64(wire.submsgs)/float64(wire.envelopes), int(wire.envelopes))
	}
	res.set("transport.request_self_ms", perOp(selfSum[layerRequest]), count[layerRequest])
	if len(b.payload) > 0 && traced.elapsed > 0 {
		res.set("transport.chunks_per_call", float64(wire.chunkEnvs)/ops, int(wire.chunkEnvs))
		res.set("transport.chunk_mib_s", float64(wire.chunkBytes)/(1<<20)/traced.elapsed.Seconds(), int(wire.chunkEnvs))
	}
	res.set("protocol.handle_calls", float64(count[layerHandle]), 0)
	res.set("protocol.handle_self_ms", perOp(selfSum[layerHandle]), count[layerHandle])
	res.set("invoke.client_self_ms", perOp(selfSum[layerInvoke]), count[layerInvoke])
	res.set("container.execute_busy_ms", perOp(busy[layerContainer]), count[layerContainer])

	if b.plane != nil {
		res.set("durable.bracket_records_per_job", float64(commits.brackets)/ops, int(commits.brackets))
		res.set("durable.submit_self_ms", perOp(selfSum[layerSubmit]), count[layerSubmit])
		res.set("georep.pushes", float64(wire.geoPushes), 0)
		if wire.geoPushes > 0 {
			shipped := to.seqs[b.plane.server] - from.seqs[b.plane.server]
			res.set("georep.records_per_push", float64(shipped)/float64(wire.geoPushes), int(wire.geoPushes))
		}
	}
	if base := plain.opsPerSec(); base > 0 {
		res.set("obs.trace_overhead_pct", (base-traced.opsPerSec())/base*100, len(traced.ok))
	}
}
