// Package durable turns non-repudiable invocations into crash-resilient
// jobs. A job is journaled in the organisation's own evidence store —
// under the job-* token kinds, riding the same tamper-evident hash chain
// as the run's non-repudiation evidence — before anything is sent,
// retried under a per-organisation policy while it fails temporarily,
// and recovered after a process crash by scanning the journal for jobs
// enqueued but not done. A call job is journaled in one group commit
// with its run's NRO: the NRO, then the job-enqueued record, whose note
// is the request snapshot the NRO covers and whose token shares the NRO's
// digest. Recovery resumes each such job under its original run
// identifier with whatever evidence the vault already holds
// (invoke.Client.Resume), so a run crossed by any number of crashes
// still ends with exactly one NRO/NRR pair: exactly-once by evidence, not
// by delivery.
//
// The journal keeps no state of its own about what was sent. A journaled
// NRO whose request never left is resumed as a first send; one whose
// request reached the server before the crash is re-sent too, and only
// the server's at-most-once window keeps the run to one execution. Call
// jobs journaled by a build that wrote the job record alone, its spec as
// the note and no NRO, still recover: their NRO is issued at the first
// attempt. An older build misreads a snapshot note, so a vault holding
// pending call jobs of this form must not be recovered by one.
package durable

import (
	"errors"
	"time"

	"nonrep/internal/invoke"
	"nonrep/internal/transport"
)

// RetryPolicy governs how a job's attempts are spaced and bounded.
type RetryPolicy struct {
	// MaxAttempts bounds executions of one job, including the first
	// (default 5; values below 1 mean the default).
	MaxAttempts int
	// Backoff is the base delay before the second attempt; subsequent
	// delays double (default 100ms).
	Backoff time.Duration
	// MaxBackoff caps the delay (default 60×Backoff).
	MaxBackoff time.Duration
	// Deadline bounds a job's total wall-clock life from enqueue; once
	// past it the job fails instead of retrying (0 = no deadline).
	Deadline time.Duration
	// AttemptTimeout bounds one execution attempt (default 60s).
	AttemptTimeout time.Duration
	// NoJitter disables the full jitter applied to each delay
	// (deterministic tests).
	NoJitter bool
}

// DefaultRetryPolicy suits in-domain traffic: five attempts over roughly
// a second and a half.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts:    5,
	Backoff:        100 * time.Millisecond,
	AttemptTimeout: 60 * time.Second,
}

func (p RetryPolicy) fill() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = DefaultRetryPolicy.Backoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 60 * p.Backoff
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = DefaultRetryPolicy.AttemptTimeout
	}
	return p
}

// delay computes the wait before retry number retry (1-based), with full
// jitter unless disabled: transport's backoff over the job policy.
func (p RetryPolicy) delay(retry int) time.Duration {
	return transport.RetryPolicy{Backoff: p.Backoff, MaxBackoff: p.MaxBackoff, NoJitter: p.NoJitter}.Delay(retry)
}

// permanent classifies an execution error. The conservative default is
// temporary — over TCP, error identity flattens to strings, and retrying
// a failure that would not have recurred costs little next to dropping a
// job that would have succeeded. Permanent verdicts are reserved for
// errors that retrying cannot change: evidence that failed verification,
// a run the TTP has aborted, an abort the TTP can no longer grant, and
// addressing errors.
func permanent(err error) bool {
	switch {
	case errors.Is(err, invoke.ErrEvidenceInvalid),
		errors.Is(err, invoke.ErrAborted),
		errors.Is(err, invoke.ErrAlreadyResolved):
		return true
	case errors.Is(err, invoke.ErrAbortPending):
		// The abort is journaled as its own job; the submission failure
		// itself is settled — do not retry the call.
		return true
	}
	return transport.Permanent(err)
}
