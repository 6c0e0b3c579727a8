package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nonrep/internal/clock"
	"nonrep/internal/core"
	"nonrep/internal/credential"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/vault"
)

// audit_read uses the vault, store and evidence layers the other way
// round: set-up writes one vault of real records and closes it; the
// measured work list reopens it, audits it end to end from nproc readers,
// looks runs up at random and deep-verifies it. The vault is many times
// larger than the verified-signature cache and all but its tail is in
// sealed segments, so this is the larger-than-cache workload.

const (
	auditClient = id.Party("urn:bench:audit-client")
	auditServer = id.Party("urn:bench:audit-server")
	// The work list is fixed, not timed: the issue's 200 000 records and
	// 20 000 lookups for a 20 s interval, halved with every other workload
	// for the declared 10 s. 100 000 records are 12 times
	// evidence.DefaultVerifyCacheSize.
	auditRecords      = 100000
	auditLookups      = 10000
	smokeAuditRecords = 2000
)

// auditSize returns the record and lookup counts for a run.
func auditSize(env runEnv) (records, lookups int) {
	if env.smoke {
		return smokeAuditRecords, smokeAuditRecords / 10
	}
	return auditRecords, auditLookups
}

// auditPKI is the two-party realm the audit vault's tokens are signed
// under. Keys come from the seed.
type auditPKI struct {
	creds          *credential.Store
	client, server *evidence.Issuer
}

func newAuditPKI(seed int64) (*auditPKI, error) {
	clk := clock.Real{}
	ca, err := credential.NewRootAuthority("urn:bench:ca", seedKey(seed, "urn:bench:ca"), clk)
	if err != nil {
		return nil, err
	}
	creds := credential.NewStore(clk)
	if err := creds.AddRoot(ca.Certificate()); err != nil {
		return nil, err
	}
	issuer := func(p id.Party) (*evidence.Issuer, error) {
		key := seedKey(seed, string(p))
		cert, err := ca.Issue(p, key.KeyID(), key.PublicKey())
		if err != nil {
			return nil, err
		}
		if err := creds.Add(cert); err != nil {
			return nil, err
		}
		return &evidence.Issuer{Party: p, Signer: key, Clock: clk}, nil
	}
	client, err := issuer(auditClient)
	if err != nil {
		return nil, err
	}
	server, err := issuer(auditServer)
	if err != nil {
		return nil, err
	}
	return &auditPKI{creds: creds, client: client, server: server}, nil
}

// auditRun names the i-th run of a seed.
func auditRun(seed int64, i int) id.Run {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(seed))
	binary.BigEndian.PutUint64(b[8:], uint64(i))
	sum := sha256.Sum256(b[:])
	return id.Run("run-" + hex.EncodeToString(sum[:16]))
}

// buildAuditVault writes the server's vault for records/4 runs — NRO
// received, NRR and NROResp generated, NRRResp received — with 4096-record
// segments, all but the tail sealed, and closes it. Signing is spread over
// the processors; appends go in run order through the group committer.
func buildAuditVault(dir string, seed int64, records int, pki *auditPKI) error {
	runs := records / 4
	tokens := make([]*evidence.Token, records)
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < runs; i += workers {
				run := auditRun(seed, i)
				digest := sig.Sum([]byte(run))
				steps := [4]struct {
					kind   evidence.Kind
					issuer *evidence.Issuer
					to     id.Party
				}{
					{evidence.KindNRO, pki.client, auditServer},
					{evidence.KindNRR, pki.server, auditClient},
					{evidence.KindNROResp, pki.server, auditClient},
					{evidence.KindNRRResp, pki.client, auditServer},
				}
				for k, s := range steps {
					tok, err := s.issuer.Issue(s.kind, run, k/2+1, digest, evidence.WithRecipients(s.to))
					if err != nil {
						errs[w] = err
						return
					}
					tokens[4*i+k] = tok
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	v, err := vault.Open(dir, nil, vault.WithSegmentRecords(4096))
	if err != nil {
		return err
	}
	for i, tok := range tokens {
		dir := store.Received
		if tok.Issuer == auditServer {
			dir = store.Generated
		}
		if err := v.AppendAsync(dir, tok, ""); err != nil {
			v.Close()
			return fmt.Errorf("append record %d: %w", i, err)
		}
	}
	if err := v.Sync(); err != nil {
		v.Close()
		return err
	}
	return v.Close()
}

// dirDigest digests a directory's file names and contents.
func dirDigest(dir string) (string, error) {
	var names []string
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() && fi.Name() != "LOCK" {
			names = append(names, path)
		}
		return err
	})
	if err != nil {
		return "", err
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		rel, _ := filepath.Rel(dir, name)
		fmt.Fprintf(h, "%s\n", rel)
		f, err := os.Open(name)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// vaultCache keeps built audit vaults between the sets of one -selfcheck
// process. A cached vault is reused only if its content digest still
// matches the one taken when it was built.
type vaultCache struct {
	dir     string
	digests map[string]string // vault directory → digest at build time
}

func newVaultCache(dir string) *vaultCache {
	return &vaultCache{dir: dir, digests: make(map[string]string)}
}

func (c *vaultCache) path(seed int64, records int) string {
	return filepath.Join(c.dir, fmt.Sprintf("audit-vault-seed%d-%d", seed, records))
}

// auditSetup produces the vault directory for a run and says whether it
// was built or taken from the cache. cleanup removes what the run owns.
func auditSetup(env runEnv, records int, pki *auditPKI) (dir string, reused bool, cleanup func(), err error) {
	if c := env.cache; c != nil {
		dir = c.path(env.seed, records)
		if want, ok := c.digests[dir]; ok {
			if got, derr := dirDigest(dir); derr == nil && got == want {
				return dir, true, func() {}, nil
			}
			os.RemoveAll(dir) // stale or damaged: rebuild
		}
		if err := buildAuditVault(dir, env.seed, records, pki); err != nil {
			os.RemoveAll(dir)
			return "", false, nil, err
		}
		if c.digests[dir], err = dirDigest(dir); err != nil {
			return "", false, nil, err
		}
		return dir, false, func() {}, nil
	}
	dir, err = os.MkdirTemp(env.scratch, "audit_read-*")
	if err != nil {
		return "", false, nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	if err := buildAuditVault(dir, env.seed, records, pki); err != nil {
		cleanup()
		return "", false, nil, err
	}
	return dir, false, cleanup, nil
}

func runAuditRead(ctx context.Context, env runEnv) (res *result, err error) {
	begun := time.Now()
	res = newResult("audit_read", env.traced)
	records, lookups := auditSize(env)
	runs := records / 4

	pki, err := newAuditPKI(env.seed)
	if err != nil {
		return nil, err
	}
	dir, reused, cleanup, err := auditSetup(env, records, pki)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	res.SetupReused = reused
	setup := time.Since(begun)

	// Reopen: what a restart costs.
	start := time.Now()
	v, err := vault.Open(dir, nil, vault.WithSegmentRecords(4096))
	if err != nil {
		return nil, err
	}
	reopen := time.Since(start)
	defer func() { err = errors.Join(err, v.Close()) }()
	if n := v.Len(); n != records {
		res.problemf("reopened vault holds %d records, want %d", n, records)
	}
	vaultBytes, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	var commits atomic.Int64
	defer v.OnCommit(func([]*store.Record) { commits.Add(1) })()
	head, _ := v.LastPosition()

	// Full audits: every record chain-checked and signature-verified, from
	// nproc concurrent readers.
	readers := runtime.NumCPU()
	adj := core.NewAdjudicator(pki.creds)
	reports := make([]*core.LogReport, readers)
	start = time.Now()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			reports[r] = adj.AuditStream(v.Query(vault.Query{}))
		}(r)
	}
	wg.Wait()
	scan := time.Since(start)
	audited := 0
	for r, rep := range reports {
		audited += rep.Records
		res.Attempted += int64(records)
		res.Failed += int64(len(rep.Faults))
		if !rep.Clean() || rep.Records != records {
			res.problemf("reader %d: audit of %d records not clean (chain ok %v: %s; %d faults)",
				r, rep.Records, rep.ChainOK, rep.ChainError, len(rep.Faults))
		}
	}

	lat := timeLookups(ctx, res, v, env.seed, runs, lookups)

	start = time.Now()
	if err := v.DeepVerify(); err != nil {
		res.problemf("deep verify: %v", err)
	}
	deep := time.Since(start)

	us := func(d time.Duration) float64 { return 1000 * ms(d) }
	res.set("audit_records_s", float64(audited)/scan.Seconds(), audited)
	res.set("lookup_p50_us", us(lat.percentile(50)), lat.count())
	res.set("lookup_p99_us", us(lat.percentile(99)), lat.count())
	if n := beyond(lat.count(), 99); n < minBeyond {
		res.notef("lookup_p99_us has only %d of %d samples beyond it", n, lat.count())
	}
	res.set("reopen_s", reopen.Seconds(), 1)
	res.set("peak_rss_mib", peakRSSMiB(), 0)
	how := "built"
	if reused {
		how = "reused from the selfcheck cache (digest matched), not built"
	}
	first := rand.New(rand.NewSource(env.seed * 31)).Intn(runs)
	res.notef("vault of %d records %s in %.3fs; %d readers; %d lookups, first %s",
		records, how, setup.Seconds(), readers, lat.count(), inputsDigest([]byte(auditRun(env.seed, first))))

	if !env.traced {
		res.set("setup_s", setup.Seconds(), 1)
		res.set("evidence_bytes_per_invocation", float64(vaultBytes)/float64(runs), runs)
	} else {
		// The vault layer alone, timed call by call. No seam carries spans
		// on this workload's path, so there is no tracing to switch on.
		res.set("vault.open_ms", float64(reopen)/float64(time.Millisecond), 1)
		start = time.Now()
		scanned := 0
		var sample []*store.Record
		it := v.Query(vault.Query{})
		for it.Next() {
			if scanned%max(records/1024, 1) == 0 && len(sample) < 1024 {
				sample = append(sample, it.Record())
			}
			scanned++
		}
		if err := it.Err(); err != nil || scanned != records {
			res.problemf("scan read %d of %d records: %v", scanned, records, err)
		}
		res.set("vault.scan_records_s", float64(scanned)/time.Since(start).Seconds(), scanned)
		var total time.Duration
		for _, d := range lat.sorted {
			total += d
		}
		res.set("vault.query_us_op", float64(total)/float64(max(len(lat.sorted), 1))/float64(time.Microsecond), len(lat.sorted))
		res.set("vault.deepverify_s", deep.Seconds(), 1)
		res.set("vault.disk_bytes_per_record", float64(vaultBytes)/float64(records), records)

		tokens := make([]*evidence.Token, len(sample))
		for i, rec := range sample {
			tokens[i] = rec.Token
		}
		probeTokens(res, pki.creds, tokens)
		probeIssue(res, pki.server.Signer)
		probeFsync(res, env.scratch, pki.server.Signer)
		probeStore(res, sample)
	}
	// Nothing may have been appended while the vault was being read.
	now, _ := v.LastPosition()
	if now != head || commits.Load() != 0 {
		res.problemf("%d records appended in %d commits during the read-only interval", now-head, commits.Load())
	}
	if env.traced {
		res.set("vault.append_calls", float64(now-head), 0)
		res.set("vault.commits", float64(commits.Load()), 0)
	}
	res.finish()
	return res, nil
}

// timeLookups looks up seeded, uniformly chosen runs one after another
// with Vault.ByRun — an adjudicator asking about one run at a time — and
// checks every answer. All but the last few runs sit in sealed segments
// that the build evicted, so the lookups take the mmap path.
func timeLookups(ctx context.Context, res *result, v *vault.Vault, seed int64, runs, lookups int) latencies {
	rng := rand.New(rand.NewSource(seed * 31))
	ok := make([]time.Duration, 0, lookups)
	failed := 0
	for i := 0; i < lookups && ctx.Err() == nil; i++ {
		run := auditRun(seed, rng.Intn(runs))
		t0 := time.Now()
		recs := v.ByRun(run)
		d := time.Since(t0)
		if len(recs) != 4 || recs[0].Token.Run != run {
			failed++
			continue
		}
		ok = append(ok, d)
	}
	res.Attempted += int64(len(ok) + failed)
	res.Failed += int64(failed)
	if failed > 0 {
		res.problemf("%d of %d run lookups did not return the run's four records", failed, len(ok)+failed)
	}
	return newLatencies(ok, failed)
}
