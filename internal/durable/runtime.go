package durable

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"nonrep/internal/clock"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/obs"
)

// JobState is a job's lifecycle position.
type JobState string

// Job states.
const (
	StatePending   JobState = "pending"
	StateRunning   JobState = "running"
	StateSucceeded JobState = "succeeded"
	StateFailed    JobState = "failed"
)

// ErrQueueFull is returned by Submit when the runtime's dispatch queue
// is saturated; the job was NOT journaled. A Submit whose context
// carries a deadline or cancellation waits for a slot instead of
// failing outright and sees ErrQueueFull only when the context expires
// first.
var ErrQueueFull = errors.New("durable: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("durable: runtime closed")

// Job is a handle to one durable invocation.
type Job struct {
	spec *JobSpec

	mu       sync.Mutex
	state    JobState
	attempts int
	result   *invoke.Result
	err      error
	done     chan struct{}
}

// ID returns the job identifier (for call jobs, also the run).
func (jb *Job) ID() id.Run { return jb.spec.Job }

// Type returns the job type.
func (jb *Job) Type() JobType { return jb.spec.Type }

// State returns the job's current state.
func (jb *Job) State() JobState {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.state
}

// Attempts returns how many executions have started.
func (jb *Job) Attempts() int {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.attempts
}

// Wait blocks until the job reaches a terminal state (or ctx expires)
// and returns its result. A failed job returns its last error.
func (jb *Job) Wait(ctx context.Context) (*invoke.Result, error) {
	select {
	case <-jb.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.result, jb.err
}

// Info is a point-in-time job snapshot for introspection surfaces.
type Info struct {
	Job      id.Run   `json:"job"`
	Type     JobType  `json:"type"`
	State    JobState `json:"state"`
	Attempts int      `json:"attempts"`
	Error    string   `json:"error,omitempty"`
}

// Info snapshots the job.
func (jb *Job) Info() Info {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	inf := Info{Job: jb.spec.Job, Type: jb.spec.Type, State: jb.state, Attempts: jb.attempts}
	if jb.err != nil {
		inf.Error = jb.err.Error()
	}
	return inf
}

// Config configures a Runtime.
type Config struct {
	// Retry is the per-organisation retry policy.
	Retry RetryPolicy
	// Clock paces retries (default the client coordinator's clock).
	Clock clock.Clock
	// Obs homes the runtime's instruments; nil disables them.
	Obs *obs.Scope
}

// Runtime executes journaled jobs: Submit journals then runs, Recover
// re-runs whatever an earlier process journaled but did not finish, and
// the retry loop spaces attempts under the policy, journaling every
// failed attempt and the terminal outcome. It also implements
// invoke.AbortJournal, so a client wired with WithAbortJournal turns
// undeliverable fair-protocol aborts into retried jobs.
type Runtime struct {
	cli    *invoke.Client
	j      *Journal
	policy RetryPolicy
	clk    clock.Clock
	scope  *obs.Scope

	queue chan *Job
	// slots mirrors the queue's capacity: a slot is reserved before the
	// journal write and released when a worker dequeues the job, so a
	// saturated runtime rejects a Submit BEFORE journaling — ErrQueueFull
	// can promise the job does not exist.
	slots chan struct{}
	stop  chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[id.Run]*Job
	closed bool

	// crashHook simulates a process crash between journal writes in
	// tests; see the named points in runJob.
	crashHook func(point string) error
}

var _ invoke.AbortJournal = (*Runtime)(nil)

// A runtime executes up to execWidth jobs at once and accepts up to
// queueCap more that wait for a worker.
const (
	execWidth = 4
	queueCap  = 1024
)

// New starts a runtime executing jobs through cli and journaling them in
// j. Call Recover to resume jobs from an earlier process.
func New(cli *invoke.Client, j *Journal, cfg Config) *Runtime {
	return newRuntime(cli, j, cfg, execWidth, queueCap)
}

func newRuntime(cli *invoke.Client, j *Journal, cfg Config, width, queue int) *Runtime {
	if cfg.Clock == nil {
		cfg.Clock = j.clk
	}
	r := &Runtime{
		cli:    cli,
		j:      j,
		policy: cfg.Retry.fill(),
		clk:    cfg.Clock,
		scope:  cfg.Obs,
		queue:  make(chan *Job, queue),
		slots:  make(chan struct{}, queue),
		stop:   make(chan struct{}),
		jobs:   make(map[id.Run]*Job),
	}
	for i := 0; i < width; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// SetCrashHook installs a fault-injection hook called at named points of
// the job lifecycle ("pre-enqueue-append", "post-enqueue-append",
// "pre-done-append"). A non-nil return abandons the job mid-flight as a
// crash would. Test instrumentation only.
func (r *Runtime) SetCrashHook(fn func(point string) error) { r.crashHook = fn }

func (r *Runtime) crash(point string) error {
	if r.crashHook == nil {
		return nil
	}
	return r.crashHook(point)
}

func (r *Runtime) counter(name string) *obs.Counter { return r.scope.Counter(name) }

func (r *Runtime) depth() {
	r.scope.Gauge(obs.MJobQueueDepth).Set(int64(len(r.queue)))
}

// Submit journals an invocation of req on server as a durable job and
// queues it for execution. The job is journaled before anything is sent,
// in one group commit with the run's NRO: the NRO first, then the
// job-enqueued record, whose note is the request snapshot the NRO covers.
// A crash after Submit returns can no longer lose the job, and the worker
// resumes the run with the journaled NRO instead of issuing one.
func (r *Runtime) Submit(ctx context.Context, server id.Party, req invoke.Request) (*Job, error) {
	spec := &JobSpec{
		Job:       id.NewRun(),
		Type:      JobCall,
		Server:    server,
		Service:   req.Service,
		Operation: req.Operation,
		Params:    req.Params,
		Txn:       req.Txn,
		Enqueued:  r.clk.Now(),
	}
	return r.submit(ctx, spec, func() error {
		return r.cli.Originate(ctx, server, req, spec.Job, r.j.callEntry)
	})
}

// JournalAbort implements invoke.AbortJournal: an abort that could not
// reach the TTP becomes a durable job retried until the TTP answers.
func (r *Runtime) JournalAbort(ctx context.Context, ttp id.Party, snap evidence.RequestSnapshot, nro *evidence.Token) error {
	spec := &JobSpec{
		Job:      id.NewRun(),
		Type:     JobAbort,
		TTP:      ttp,
		Request:  &snap,
		NRO:      nro,
		Enqueued: r.clk.Now(),
	}
	_, err := r.submit(ctx, spec, func() error { return r.j.Enqueue(spec) })
	return err
}

// submit admits spec, journals it with journal and queues it.
func (r *Runtime) submit(ctx context.Context, spec *JobSpec, journal func() error) (*Job, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	r.mu.Unlock()
	// Reserve the queue slot before the journal write: admission control
	// must happen before the durable append, or a rejected job would
	// nonetheless exist in the journal and resurface at the next Recover.
	if err := r.reserve(ctx, spec); err != nil {
		return nil, err
	}
	if err := r.crash("pre-enqueue-append"); err != nil {
		r.release()
		return nil, err
	}
	if err := journal(); err != nil {
		r.release()
		return nil, err
	}
	if err := r.crash("post-enqueue-append"); err != nil {
		// The job IS journaled — this is the crash-after-append point —
		// but this process abandons it; the slot goes back.
		r.release()
		return nil, err
	}
	r.counter(obs.MJobsEnqueuedTotal).Inc()
	jb, err := r.enqueueTracked(spec, 0)
	if err != nil {
		r.release()
	}
	return jb, err
}

// reserve takes one queue slot. A context that can expire buys bounded
// queueing: the caller waits for a slot until its deadline, so a
// producer burst rides out momentary saturation instead of shedding
// jobs. A context that cannot expire (context.Background()) keeps the
// old contract — a saturated queue rejects immediately, and a
// fire-and-forget submitter never hangs.
func (r *Runtime) reserve(ctx context.Context, spec *JobSpec) error {
	select {
	case r.slots <- struct{}{}:
		return nil
	default:
	}
	if ctx == nil || ctx.Done() == nil {
		return fmt.Errorf("%w: job %s", ErrQueueFull, spec.Job)
	}
	select {
	case r.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: job %s: %v", ErrQueueFull, spec.Job, context.Cause(ctx))
	case <-r.stop:
		return ErrClosed
	}
}

// release returns a reserved queue slot.
func (r *Runtime) release() { <-r.slots }

// track reserves a slot, registers a job handle and queues it — the entry
// point for jobs whose journal record already exists (Recover).
func (r *Runtime) track(spec *JobSpec, priorAttempts int) (*Job, error) {
	if err := r.reserve(context.Background(), spec); err != nil {
		return nil, err
	}
	jb, err := r.enqueueTracked(spec, priorAttempts)
	if err != nil {
		r.release()
	}
	return jb, err
}

// enqueueTracked registers a job handle and queues it. The caller holds a
// queue slot, so the send cannot block: queue occupancy is always at most
// the number of held slots, and this job's own slot has no queue element
// yet.
func (r *Runtime) enqueueTracked(spec *JobSpec, priorAttempts int) (*Job, error) {
	jb := &Job{spec: spec, state: StatePending, attempts: priorAttempts, done: make(chan struct{})}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	r.jobs[spec.Job] = jb
	r.mu.Unlock()
	r.queue <- jb
	r.depth()
	return jb, nil
}

// Recover scans the journal for jobs an earlier process enqueued but
// never finished and queues them for execution, resuming call jobs under
// their original run identifiers. It returns the recovered handles.
func (r *Runtime) Recover() ([]*Job, error) {
	specs, attempts, err := r.j.Pending(r.cli.Verifier())
	if err != nil {
		return nil, err
	}
	var out []*Job
	for i, spec := range specs {
		jb, err := r.track(spec, attempts[i])
		if err != nil {
			return out, err
		}
		r.counter(obs.MJobsRecoveredTotal).Inc()
		out = append(out, jb)
	}
	return out, nil
}

// Job returns a tracked job handle.
func (r *Runtime) Job(job id.Run) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	jb, ok := r.jobs[job]
	return jb, ok
}

// Jobs snapshots every tracked job.
func (r *Runtime) Jobs() []Info {
	r.mu.Lock()
	jobs := make([]*Job, 0, len(r.jobs))
	for _, jb := range r.jobs {
		jobs = append(jobs, jb)
	}
	r.mu.Unlock()
	out := make([]Info, 0, len(jobs))
	for _, jb := range jobs {
		out = append(out, jb.Info())
	}
	return out
}

// Close stops the workers. Jobs not yet terminal stay journaled as
// pending; the next process's Recover picks them up — Close is the
// orderly form of the crash the journal exists for.
func (r *Runtime) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	r.wg.Wait()
	// Outcome records ride group commits (Journal.Done); barrier them so
	// a clean shutdown leaves no journaled job looking unfinished.
	return r.j.Sync()
}

// Sync barriers the journal: every attempt and outcome journaled before
// the call is committed and durable when it returns. Jobs' terminal
// records ride group commits rather than forcing their own fsync, so a
// caller auditing the journal of a still-running runtime syncs first.
func (r *Runtime) Sync() error { return r.j.Sync() }

func (r *Runtime) worker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case jb := <-r.queue:
			r.release()
			r.depth()
			r.runJob(jb)
		}
	}
}

// finish moves a job to a terminal state.
func (r *Runtime) finish(jb *Job, res *invoke.Result, err error) {
	jb.mu.Lock()
	if err != nil {
		jb.state = StateFailed
	} else {
		jb.state = StateSucceeded
	}
	jb.result, jb.err = res, err
	jb.mu.Unlock()
	close(jb.done)
	if err != nil {
		r.counter(obs.MJobsFailedTotal).Inc()
	} else {
		r.counter(obs.MJobsCompletedTotal).Inc()
	}
}

// abandon leaves a job non-terminal (journal still pending) — the
// in-process analogue of crashing mid-job. Waiters are released with the
// sentinel error so tests do not hang.
func (r *Runtime) abandon(jb *Job, err error) {
	jb.mu.Lock()
	jb.state = StatePending
	jb.err = err
	jb.mu.Unlock()
	close(jb.done)
}

// runJob drives one job to a terminal state: execute, classify, journal
// the failed attempt, back off on the runtime clock, repeat; then
// journal the outcome.
func (r *Runtime) runJob(jb *Job) {
	jb.mu.Lock()
	jb.state = StateRunning
	jb.mu.Unlock()
	var deadline bool
	for {
		jb.mu.Lock()
		jb.attempts++
		attempt := jb.attempts
		jb.mu.Unlock()
		res, err := r.executeOnce(jb.spec)
		if err == nil {
			if herr := r.crash("pre-done-append"); herr != nil {
				r.abandon(jb, herr)
				return
			}
			if jerr := r.j.Done(jb.spec.Job, attempt, ""); jerr != nil {
				r.finish(jb, res, jerr)
				return
			}
			r.finish(jb, res, nil)
			return
		}
		if r.policy.Deadline > 0 && r.clk.Now().Sub(jb.spec.Enqueued) >= r.policy.Deadline {
			deadline = true
		}
		if permanent(err) || attempt >= r.policy.MaxAttempts || deadline {
			cause := err.Error()
			if deadline {
				cause = "deadline exceeded: " + cause
			}
			if jerr := r.j.Done(jb.spec.Job, attempt, cause); jerr != nil {
				err = errors.Join(err, jerr)
			}
			r.finish(jb, nil, err)
			return
		}
		if jerr := r.j.Attempt(jb.spec.Job, attempt, err.Error()); jerr != nil {
			r.finish(jb, nil, errors.Join(err, jerr))
			return
		}
		r.counter(obs.MJobRetriesTotal).Inc()
		t := clock.NewTimer(r.clk, r.policy.delay(attempt))
		select {
		case <-t.C():
		case <-r.stop:
			t.Stop()
			r.abandon(jb, ErrClosed)
			return
		}
	}
}

// executeOnce runs one attempt. Call jobs recover the run's journaled
// evidence first, so every attempt — first or post-crash — goes through
// the same resumable path and only ever issues the missing tokens.
func (r *Runtime) executeOnce(spec *JobSpec) (*invoke.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.policy.AttemptTimeout)
	defer cancel()
	switch spec.Type {
	case JobCall:
		st, err := r.j.RunState(spec.Job)
		if err != nil {
			return nil, err
		}
		req := invoke.Request{
			Service:   spec.Service,
			Operation: spec.Operation,
			Params:    spec.Params,
			Txn:       spec.Txn,
		}
		return r.cli.Resume(ctx, spec.Server, req, spec.Job, st)
	case JobAbort:
		if spec.Request == nil || spec.NRO == nil {
			return nil, fmt.Errorf("durable: abort job %s missing request or NRO", spec.Job)
		}
		return nil, r.cli.Abort(ctx, spec.TTP, *spec.Request, spec.NRO)
	default:
		return nil, fmt.Errorf("durable: unknown job type %q", spec.Type)
	}
}
