package main

import (
	"path/filepath"
	"sync/atomic"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/clock"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/transport"
	"nonrep/internal/vault"
)

// Probes time the layers that have no wrappable seam on the hot path:
// after the run, inputs captured from the workload are replayed through
// the layer's public functions, single-threaded, with nothing else
// running. They say what a layer costs per call in isolation; the spans
// say how much of an invocation it accounted for.

const probeMinOps = 2000

// timeLoop calls fn over items round-robin until at least probeMinOps
// calls were made, and returns the mean time per call.
func timeLoop(n int, fn func(i int)) (perOp time.Duration, calls int) {
	if n == 0 {
		return 0, 0
	}
	start := time.Now()
	for calls < probeMinOps {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return time.Since(start) / time.Duration(calls), calls
}

// countingKeys resolves keys like the credential store it wraps but
// counts public-key operations, which is how a verify-cache hit is told
// from a miss from outside the verifier.
type countingKeys struct {
	inner evidence.KeyResolver
	ops   atomic.Int64
}

func (k *countingKeys) PublicKey(keyID string) (sig.PublicKey, error) {
	key, err := k.inner.PublicKey(keyID)
	if err != nil {
		return nil, err
	}
	return countingKey{key, &k.ops}, nil
}

func (k *countingKeys) Party(keyID string) (id.Party, error) { return k.inner.Party(keyID) }

type countingKey struct {
	sig.PublicKey
	ops *atomic.Int64
}

func (k countingKey) Verify(d sig.Digest, s sig.Signature) error {
	k.ops.Add(1)
	return k.PublicKey.Verify(d, s)
}

// probeTokens times signature and token verification over tokens.
func probeTokens(res *result, keys evidence.KeyResolver, tokens []*evidence.Token) {
	if len(tokens) == 0 {
		return
	}
	// Raw public-key verification of each token's signed digest.
	type prepared struct {
		key sig.PublicKey
		tbs sig.Digest
		sg  sig.Signature
	}
	prep := make([]prepared, 0, len(tokens))
	for _, tok := range tokens {
		key, err := keys.PublicKey(tok.Signature.KeyID)
		if err != nil {
			continue
		}
		tbs, err := tok.TBSDigest()
		if err != nil {
			continue
		}
		prep = append(prep, prepared{key, tbs, tok.Signature})
	}
	perOp, calls := timeLoop(len(prep), func(i int) { _ = sig.VerifyDigest(prep[i].key, prep[i].tbs, prep[i].sg) })
	res.set("sig.verify_us_op", float64(perOp)/float64(time.Microsecond), calls)

	// Token verification, first pass (nothing cached, digests not yet
	// memoised: tokens are copied so they look freshly decoded) and second
	// pass over the same tokens through the same cache.
	fresh := make([]*evidence.Token, len(tokens))
	for i, tok := range tokens {
		clone := *tok
		fresh[i] = &clone
	}
	counted := &countingKeys{inner: keys}
	verifier := &evidence.Verifier{Keys: counted, Cache: evidence.NewVerifyCache(0)}
	pass := func() time.Duration {
		start := time.Now()
		for _, tok := range fresh {
			_ = verifier.Verify(tok)
		}
		return time.Since(start) / time.Duration(len(fresh))
	}
	cold := pass()
	coldOps := counted.ops.Load()
	warm := pass()
	warmOps := counted.ops.Load() - coldOps
	res.set("evidence.verify_cold_us_op", float64(cold)/float64(time.Microsecond), len(fresh))
	res.set("evidence.verify_warm_us_op", float64(warm)/float64(time.Microsecond), len(fresh))
	res.set("evidence.verify_cache_hit_ratio", 1-float64(warmOps)/float64(len(fresh)), len(fresh))
}

// timingSigner accumulates the time spent inside Sign.
type timingSigner struct {
	sig.Signer
	busy time.Duration
}

func (s *timingSigner) Sign(d sig.Digest) (sig.Signature, error) {
	start := time.Now()
	out, err := s.Signer.Sign(d)
	s.busy += time.Since(start)
	return out, err
}

// probeIssue times Issuer.Issue and subtracts the signature: what is
// left is token assembly, nonce, canonical digest.
func probeIssue(res *result, signer sig.Signer) {
	ts := &timingSigner{Signer: signer}
	issuer := &evidence.Issuer{Party: "urn:bench:probe", Signer: ts, Clock: clock.Real{}}
	digest := sig.Sum([]byte("probe"))
	run := id.NewRun()
	perOp, calls := timeLoop(1, func(int) { _, _ = issuer.Issue(evidence.KindNRO, run, 1, digest) })
	self := perOp - ts.busy/time.Duration(calls)
	res.set("evidence.issue_self_ms", float64(self)/float64(time.Millisecond), calls)
}

// probeFsync times single synchronous appends to a scratch vault under
// the default flush policy (fsync per group commit), one caller, nothing
// else running: what one uncontended append costs on this disk, to set
// beside the vault.append_wait_ms the workload's callers saw.
func probeFsync(res *result, dir string, signer sig.Signer) {
	const appends = 200
	v, err := vault.Open(filepath.Join(dir, "fsync-probe"), nil)
	if err != nil {
		return
	}
	defer v.Close()
	issuer := &evidence.Issuer{Party: "urn:bench:probe", Signer: signer, Clock: clock.Real{}}
	tok, err := issuer.Issue(evidence.KindNRO, id.NewRun(), 1, sig.Sum([]byte("probe")))
	if err != nil {
		return
	}
	start := time.Now()
	for i := 0; i < appends; i++ {
		if _, err := v.Append(store.Generated, tok, ""); err != nil {
			return
		}
	}
	res.set("vault.append_fsync_ms", float64(time.Since(start))/float64(time.Millisecond)/appends, appends)
}

// probeCanon times the canonical digest over captured request snapshots.
func probeCanon(res *result, snaps []*evidence.RequestSnapshot) {
	perOp, calls := timeLoop(len(snaps), func(i int) { _, _ = canon.Sum256(snaps[i]) })
	if calls > 0 {
		res.set("canon.sum_ns_op", float64(perOp), calls)
	}
}

// probeStore times the binary record codec over records read back from a
// vault.
func probeStore(res *result, records []*store.Record) {
	if len(records) == 0 {
		return
	}
	var buf []byte
	perOp, calls := timeLoop(len(records), func(i int) {
		buf, _ = store.AppendRecordBinary(buf[:0], records[i])
	})
	res.set("store.encode_ns_rec", float64(perOp), calls)

	header := store.SegmentHeader()
	segment := append([]byte(nil), header[:]...)
	for _, rec := range records {
		segment, _ = store.AppendRecordBinary(segment, rec)
	}
	res.set("store.bytes_per_record", float64(len(segment)-len(header))/float64(len(records)), len(records))
	decoded := 0
	start := time.Now()
	for decoded < probeMinOps {
		_, _, _, _ = store.DecodeSegmentData(segment, func(*store.Record, int64) error { decoded++; return nil })
	}
	res.set("store.decode_ns_rec", float64(time.Since(start))/float64(decoded), decoded)
}

// probeTransport times the binary envelope codec over captured
// envelopes.
func probeTransport(res *result, envs []*transport.Envelope) {
	if len(envs) == 0 {
		return
	}
	frames := make([][]byte, len(envs))
	perOp, calls := timeLoop(len(envs), func(i int) {
		frames[i], _ = transport.MarshalEnvelope(envs[i], transport.WireBinary)
	})
	res.set("transport.marshal_ns_op", float64(perOp), calls)
	// Decoding aliases the frame buffer, so each call gets its own copy,
	// made outside the clock.
	copies := make([][]byte, 0, probeMinOps+len(frames))
	for len(copies) < probeMinOps {
		for _, f := range frames {
			copies = append(copies, append([]byte(nil), f...))
		}
	}
	start := time.Now()
	for _, c := range copies {
		_, _ = transport.UnmarshalEnvelope(c)
	}
	res.set("transport.unmarshal_ns_op", float64(time.Since(start))/float64(len(copies)), len(copies))
}

// probeStreamDigest times the chunk-digest chain over the stream payload.
func probeStreamDigest(res *result, payload []byte) {
	if len(payload) == 0 {
		return
	}
	const rounds = 4
	start := time.Now()
	for r := 0; r < rounds; r++ {
		dig := evidence.NewStreamDigester(invoke.DefaultStreamChunk)
		for off := 0; off < len(payload); off += invoke.DefaultStreamChunk {
			_ = dig.Add(payload[off:min(off+invoke.DefaultStreamChunk, len(payload))])
		}
	}
	mib := float64(rounds*len(payload)) / (1 << 20)
	res.set("invoke.stream_digest_mib_s", mib/time.Since(start).Seconds(), rounds)
}

// probeLayers replays what an invocation workload pushed through the
// seams.
func probeLayers(res *result, t *topo, b *built, sessions []*session) {
	var tokens []*evidence.Token
	for _, s := range sessions {
		for _, r := range s.sample {
			tokens = append(tokens, r.Evidence...)
		}
	}
	probeTokens(res, t.creds, tokens[:min(len(tokens), 1024)])
	probeIssue(res, t.key("urn:bench:probe"))
	probeFsync(res, t.root, t.key("urn:bench:probe"))

	t.cap.mu.Lock()
	snaps, envs := t.cap.snapshots, t.cap.envelopes
	t.cap.mu.Unlock()
	probeCanon(res, snaps)
	probeTransport(res, envs)

	var records []*store.Record
	for _, s := range sessions {
		for _, r := range s.sample {
			for _, o := range b.servers {
				if len(records) < 1024 {
					records = append(records, o.v.ByRun(r.Run)...)
				}
			}
		}
	}
	probeStore(res, records)
	probeStreamDigest(res, b.payload)
}
