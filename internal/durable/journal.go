package durable

import (
	"fmt"
	"time"

	"nonrep/internal/canon"
	"nonrep/internal/clock"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// JobType distinguishes durable job flavours.
type JobType string

// Job types.
const (
	// JobCall is a resumable non-repudiable invocation.
	JobCall JobType = "call"
	// JobAbort is a fair-protocol abort that failed to reach the TTP and
	// is retried until the TTP answers.
	JobAbort JobType = "abort"
)

// JobSpec describes a job — everything needed to execute it from scratch
// after a crash. For call jobs, Job doubles as the invocation's run
// identifier, which is what makes recovery exactly-once by evidence: the
// resumed execution reuses the run, and the run's journaled tokens tell
// it which protocol steps already happened. Abort jobs get their own job
// identifier; the aborted run is inside Request. An abort job's
// job-enqueued note is its spec; a call job's is its run's request
// snapshot, from which Pending rebuilds the spec — or, journaled by a
// build that wrote the job before its NRO, the spec itself.
type JobSpec struct {
	Job       id.Run                    `json:"job"`
	Type      JobType                   `json:"type"`
	Server    id.Party                  `json:"server,omitempty"`
	Service   id.Service                `json:"service,omitempty"`
	Operation string                    `json:"operation,omitempty"`
	Params    []evidence.Param          `json:"params,omitempty"`
	Txn       id.Txn                    `json:"txn,omitempty"`
	TTP       id.Party                  `json:"ttp,omitempty"`
	Request   *evidence.RequestSnapshot `json:"request,omitempty"`
	NRO       *evidence.Token           `json:"nro,omitempty"`
	Enqueued  time.Time                 `json:"enqueued"`
}

// attemptNote is the journaled content of one failed attempt.
type attemptNote struct {
	Job     id.Run `json:"job"`
	Attempt int    `json:"attempt"`
	Cause   string `json:"cause"`
}

// doneNote is the journaled terminal outcome of a job.
type doneNote struct {
	Job      id.Run `json:"job"`
	Attempts int    `json:"attempts"`
	Failure  string `json:"failure,omitempty"`
}

// Journal persists job state in the organisation's evidence store. Job
// records are signed tokens like all evidence: the spec (or attempt, or
// outcome) is canonical JSON in the record note, and the token's digest
// covers it, so a tampered journal entry is rejected at recovery instead
// of resurrecting a forged job.
type Journal struct {
	party  id.Party
	issuer evidence.TokenIssuer
	log    store.Log
	clk    clock.Clock
}

// NewJournal builds a journal over the organisation's evidence log. The
// pending-job and run-state scans are queries the log answers from its
// kind and run indexes. Appends go through the log itself, so a gated
// log's durability policy covers journal writes too.
func NewJournal(party id.Party, issuer evidence.TokenIssuer, log store.Log, clk clock.Clock) *Journal {
	return &Journal{party: party, issuer: issuer, log: log, clk: clk}
}

// issue signs one job record: the token over the canonical JSON of body,
// which is the record's note.
func (j *Journal) issue(kind evidence.Kind, job id.Run, step int, body any) (*evidence.Token, string, error) {
	raw, err := canon.Marshal(body)
	if err != nil {
		return nil, "", err
	}
	tok, err := j.issuer.Issue(kind, job, step, sig.Sum(raw))
	return tok, string(raw), err
}

// appendAsync journals one job record without waiting for its fsync: it
// enqueues the record to ride the next group commit (usually the one
// already carrying the run's evidence tokens), eliminating a dedicated
// fsync per bracket record. Callers needing the durability barrier
// (process shutdown) call Sync.
func (j *Journal) appendAsync(kind evidence.Kind, job id.Run, step int, body any) error {
	tok, note, err := j.issue(kind, job, step, body)
	if err != nil {
		return err
	}
	return j.log.AppendAsync(store.Generated, tok, note)
}

// Sync waits until every appendAsync record is committed and durable.
func (j *Journal) Sync() error { return j.log.Sync() }

// Enqueue journals a job before its first execution, in a commit of its
// own, with the spec as the record's note. Call jobs are journaled in
// their run's NRO commit instead (callEntry).
func (j *Journal) Enqueue(spec *JobSpec) error {
	tok, note, err := j.issue(evidence.KindJobEnqueued, spec.Job, 0, spec)
	if err != nil {
		return err
	}
	_, err = j.log.Append(store.Generated, tok, note)
	return err
}

// callEntry is the job-enqueued entry of the call job run, whose request
// snapshot is snap, canonical JSON with the given digest: the snapshot is
// its note and the digest its token's, the digest of the run's NRO, whose
// commit it rides (invoke.Client.Originate).
func (j *Journal) callEntry(run id.Run, snap []byte, digest sig.Digest) (store.Entry, error) {
	tok, err := j.issuer.Issue(evidence.KindJobEnqueued, run, 0, digest)
	return store.Entry{Dir: store.Generated, Token: tok, Note: string(snap)}, err
}

// Attempt journals one failed attempt. The record rides the next group
// commit: a crash that loses it loses only an attempt count, and the
// retry that follows re-journals one.
func (j *Journal) Attempt(job id.Run, attempt int, cause string) error {
	return j.appendAsync(evidence.KindJobAttempt, job, attempt, attemptNote{Job: job, Attempt: attempt, Cause: cause})
}

// Done journals a job's terminal outcome (failure empty on success). The
// record rides the next group commit rather than forcing its own fsync:
// the run's own evidence tokens make recovery exactly-once, so a crash
// that loses an un-synced job-done merely re-runs a job whose journaled
// tokens say every step already happened. Runtime.Close syncs the
// journal, so a clean shutdown never loses outcomes.
func (j *Journal) Done(job id.Run, attempts int, failure string) error {
	return j.appendAsync(evidence.KindJobDone, job, 0, doneNote{Job: job, Attempts: attempts, Failure: failure})
}

// records of one kind, via the log's kind index.
func (j *Journal) byKind(kind evidence.Kind) ([]*store.Record, error) {
	return j.log.QueryAll(store.Query{Kind: kind})
}

// Pending returns the jobs enqueued but not done, in enqueue order —
// the crash-recovery work list. A note is trusted only under the
// journal's own job-enqueued token, which v verifies: issued by the
// journal's party, over the note's digest, its signature valid. A note
// whose digest matches a token proves nothing by itself — whoever edits
// the note can edit the digest beside it, and a vault may derive the
// digest from the note.
func (j *Journal) Pending(v *evidence.Verifier) ([]*JobSpec, []int, error) {
	enqueued, err := j.byKind(evidence.KindJobEnqueued)
	if err != nil {
		return nil, nil, err
	}
	if len(enqueued) == 0 {
		return nil, nil, nil
	}
	dones, err := j.byKind(evidence.KindJobDone)
	if err != nil {
		return nil, nil, err
	}
	done := make(map[id.Run]bool, len(dones))
	for _, r := range dones {
		done[r.Token.Run] = true
	}
	attempts, err := j.byKind(evidence.KindJobAttempt)
	if err != nil {
		return nil, nil, err
	}
	tried := make(map[id.Run]int, len(attempts))
	for _, r := range attempts {
		if r.Token.Step > tried[r.Token.Run] {
			tried[r.Token.Run] = r.Token.Step
		}
	}
	var specs []*JobSpec
	var counts []int
	for _, r := range enqueued {
		if done[r.Token.Run] {
			continue
		}
		if err := v.Expect(r.Token, evidence.KindJobEnqueued, r.Token.Run, j.party, sig.Sum([]byte(r.Note))); err != nil {
			return nil, nil, fmt.Errorf("durable: job %s spec is not the one the journal signed: %w", r.Token.Run, err)
		}
		spec, err := j.spec(r.Token, []byte(r.Note))
		if err != nil {
			return nil, nil, fmt.Errorf("durable: job %s spec: %w", r.Token.Run, err)
		}
		specs = append(specs, spec)
		counts = append(counts, tried[r.Token.Run])
	}
	return specs, counts, nil
}

// spec reads the verified note of the job-enqueued token tok: a spec, or
// a call's request snapshot — its run the token's and its client the
// journal's party — which names the job by the token's run and dates it
// by the token's issue.
func (j *Journal) spec(tok *evidence.Token, note []byte) (*JobSpec, error) {
	var spec JobSpec
	if err := canon.Unmarshal(note, &spec); err != nil || spec.Type != "" {
		return &spec, err
	}
	var snap evidence.RequestSnapshot
	if err := canon.Unmarshal(note, &snap); err != nil {
		return nil, err
	}
	if snap.Run != tok.Run || snap.Client != j.party {
		return nil, fmt.Errorf("request snapshot of run %s by %s", snap.Run, snap.Client)
	}
	return &JobSpec{Job: tok.Run, Type: JobCall, Server: snap.Server, Service: snap.Service, Operation: snap.Operation,
		Params: snap.Params, Txn: snap.Txn, Enqueued: tok.IssuedAt}, nil
}

// RunState recovers the evidence the journal holds for a run being
// resumed: the client-issued NRO and NRRResp, the server's NRR and
// NROResp, and — from the NROResp record's note, where the client
// journals the canonical response snapshot — the response payload
// itself. Resume re-verifies the snapshot against the token's digest, so
// a tampered note cannot smuggle in a forged response.
func (j *Journal) RunState(run id.Run) (invoke.RunState, error) {
	recs, err := j.log.QueryAll(store.Query{Run: run})
	if err != nil {
		return invoke.RunState{}, err
	}
	var st invoke.RunState
	for _, r := range recs {
		switch r.Token.Kind {
		case evidence.KindNRO:
			st.NRO = r.Token
		case evidence.KindNRR:
			st.NRR = r.Token
		case evidence.KindNROResp:
			st.NROResp = r.Token
			if r.Note != "" {
				var snap evidence.ResponseSnapshot
				if err := canon.Unmarshal([]byte(r.Note), &snap); err == nil {
					st.Response = &snap
				}
			}
		case evidence.KindNRRResp:
			st.NRRResp = r.Token
		}
	}
	return st, nil
}
