package main

import (
	"math/rand"
	"sort"

	"nonrep/internal/core"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/sig"
	"nonrep/internal/vault"
)

// Correctness checks of the invocation workloads. The per-call checks
// (status, echoed value, four tokens bound to the run) ran inline; these
// run after the clock stopped. Any failure is recorded as a problem, and
// a workload with a problem reports every operation as failed.

const sampledRuns = 64

// check verifies the evidence the run left behind.
func (w invokeWorkload) check(res *result, t *topo, b *built, sessions []*session, env runEnv) {
	verifier := &evidence.Verifier{Keys: t.creds}
	rng := rand.New(rand.NewSource(env.seed + 99))

	// Signatures on the tokens the callers were handed: a seeded sample
	// of calls, all four tokens each.
	var sample []*invoke.Result
	var runs []id.Run
	for _, s := range sessions {
		sample = append(sample, s.sample...)
		runs = append(runs, s.runs...)
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i].Run < sample[j].Run })
	rng.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	for _, r := range sample[:min(len(sample), 4*sampledRuns)] {
		for _, tok := range r.Evidence {
			if err := verifier.Verify(tok); err != nil {
				res.problemf("run %s: %s token handed to the caller does not verify: %v", r.Run, tok.Kind, err)
			}
		}
	}

	// Every vault verifies end to end and holds exactly the expected
	// records: four per invocation at each party, plus job brackets.
	calls := int(b.calls.Load())
	wantKinds := map[evidence.Kind]int{
		evidence.KindNRO: calls, evidence.KindNRR: calls, evidence.KindNROResp: calls, evidence.KindNRRResp: calls,
	}
	for role, group := range map[string][]*org{"client": b.clients, "server": b.servers} {
		got := make(map[evidence.Kind]int)
		for _, o := range group {
			if err := o.v.DeepVerify(); err != nil {
				res.problemf("%s vault %s: deep verify: %v", role, o.party, err)
			}
			it := o.v.Query(vault.Query{})
			for it.Next() {
				got[it.Record().Token.Kind]++
			}
			if err := it.Err(); err != nil {
				res.problemf("%s vault %s: scan: %v", role, o.party, err)
			}
		}
		for kind, want := range wantKinds {
			if got[kind] != want {
				res.problemf("%s vaults hold %d %s records, want %d", role, got[kind], kind, want)
			}
		}
		brackets := got[evidence.KindJobEnqueued] + got[evidence.KindJobDone] + got[evidence.KindJobAttempt]
		wantBrackets := 0
		if role == "client" {
			wantBrackets = b.bracketsPerOp * calls
		}
		if brackets != wantBrackets {
			res.problemf("%s vaults hold %d job bracket records, want %d", role, brackets, wantBrackets)
		}
	}

	// A seeded sample of runs adjudicates as complete from the client's
	// vault and from the server's vault, independently.
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	adj := core.NewAdjudicator(t.creds)
	for _, run := range runs[:min(len(runs), sampledRuns)] {
		complete := 0
		for _, o := range t.vaults() {
			report, err := adj.AuditRunStream(o.v.Query(vault.Query{Run: run}), run)
			if err != nil {
				res.problemf("audit run %s at %s: %v", run, o.party, err)
			}
			if len(report.Faults) > 0 {
				res.problemf("audit run %s at %s: %d faulty tokens", run, o.party, len(report.Faults))
			}
			if report.Complete() {
				complete++
			}
		}
		if complete != 2 {
			res.problemf("run %s adjudicates complete at %d parties, want 2", run, complete)
		}
	}

	if b.plane != nil {
		b.plane.check(res)
	}
}

// vaultHead is a vault's durable head just before it was closed.
type vaultHead struct {
	party id.Party
	dir   string
	seq   uint64
	hash  sig.Digest
}

func vaultHeads(t *topo) []vaultHead {
	var out []vaultHead
	for _, o := range t.vaults() {
		seq, hash := o.v.LastPosition()
		out = append(out, vaultHead{o.party, o.vdir, seq, hash})
	}
	return out
}

// checkReopen opens each closed vault again, read-only, and checks that
// its head is where the last acknowledged append left it.
func checkReopen(res *result, heads []vaultHead) {
	for _, h := range heads {
		v, err := vault.Open(h.dir, nil, vault.WithReadOnly())
		if err != nil {
			res.problemf("reopen %s: %v", h.party, err)
			continue
		}
		seq, hash := v.LastPosition()
		if seq != h.seq || hash != h.hash {
			res.problemf("reopen %s: head is record %d, was %d before close", h.party, seq, h.seq)
		}
		if n := v.Len(); uint64(n) != h.seq {
			res.problemf("reopen %s: %d records, want %d", h.party, n, h.seq)
		}
		if err := v.Close(); err != nil {
			res.problemf("reopen %s: close: %v", h.party, err)
		}
	}
}
