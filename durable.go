package nonrep

import (
	"context"
	"fmt"

	"nonrep/internal/container"
	"nonrep/internal/durable"
	"nonrep/internal/evidence"
	"nonrep/internal/invoke"
	"nonrep/internal/protocol"
)

// Durable-invocation surface: CallAsync turns a non-repudiable invocation
// into a journaled job that survives the calling process. The job spec is
// appended to the organisation's own evidence store — under the job-*
// token kinds, on the same tamper-evident hash chain as the run's
// non-repudiation evidence — before anything is sent; a crash at any
// later point leaves a journal from which the run resumes under its
// original identifier, reusing whatever tokens were already exchanged.
// The net guarantee is exactly-once by evidence: however many crashes and
// retries a run crosses, adjudication finds exactly one NRO/NRR pair.
type (
	// Job is a handle to one durable invocation.
	Job = durable.Job
	// JobInfo is a point-in-time job snapshot.
	JobInfo = durable.Info
	// JobState is a job's lifecycle position.
	JobState = durable.JobState
	// JobRetryPolicy governs attempt spacing and bounds for an
	// organisation's durable jobs.
	JobRetryPolicy = durable.RetryPolicy
	// DurableRuntime executes an organisation's journaled jobs.
	DurableRuntime = durable.Runtime
)

// Job states.
const (
	JobPending   = durable.StatePending
	JobRunning   = durable.StateRunning
	JobSucceeded = durable.StateSucceeded
	JobFailed    = durable.StateFailed
)

// WithDurable equips the organisation with a durable-invocation runtime:
// Proxy.CallAsync journals calls as crash-resilient jobs, failed
// fair-protocol aborts are journaled and retried until the TTP answers,
// and jobs left unfinished by a previous process over the same vault are
// recovered and resumed at enrolment.
func WithDurable() OrgOption {
	return func(c *orgConfig) { c.durable = true }
}

// WithDurableRetry sets the organisation's job retry policy (implies
// WithDurable).
func WithDurableRetry(p JobRetryPolicy) OrgOption {
	return func(c *orgConfig) {
		c.durable = true
		c.durableRetry = &p
	}
}

// Durable returns the organisation's durable-job runtime, or nil when the
// organisation was not enrolled with WithDurable.
func (o *Org) Durable() *DurableRuntime { return o.durable }

// Jobs snapshots the organisation's tracked durable jobs (nil without
// WithDurable).
func (o *Org) Jobs() []JobInfo {
	if o.durable == nil {
		return nil
	}
	return o.durable.Jobs()
}

// Jobs snapshots every organisation's tracked durable jobs, keyed by
// party. Organisations without WithDurable are omitted.
func (d *Domain) Jobs() map[Party][]JobInfo {
	d.mu.Lock()
	orgs := make([]*Org, 0, len(d.orgs))
	for _, o := range d.orgs {
		orgs = append(orgs, o)
	}
	d.mu.Unlock()
	out := make(map[Party][]JobInfo)
	for _, o := range orgs {
		if o.durable != nil {
			out[o.Party()] = o.durable.Jobs()
		}
	}
	return out
}

// asyncRuntime adapts the durable runtime to the container's async
// submitter interface, bridging the concrete *durable.Job to the
// container.AsyncJob the proxy hands back.
type asyncRuntime struct{ r *durable.Runtime }

func (a asyncRuntime) SubmitAsync(ctx context.Context, server Party, req invoke.Request) (container.AsyncJob, error) {
	jb, err := a.r.Submit(ctx, server, req)
	if err != nil {
		return nil, err
	}
	return jb, nil
}

// AddWorkerOrg enrols an organisation as an outbound worker behind a
// host's worker gateway: instead of listening, the organisation dials the
// host once, says a signed hello, and is served down that connection —
// suitable for parties behind NAT or egress-only network policy. The host's
// gateway is enabled on first use. The organisation is otherwise a full
// peer: it keeps isolated evidence services and may serve components,
// answer audits and submit durable jobs.
func (d *Domain) AddWorkerOrg(h *Host, p Party, opts ...OrgOption) (*Org, error) {
	if h == nil || h.domain != d {
		return nil, fmt.Errorf("nonrep: host does not belong to this domain")
	}
	if _, err := h.EnableWorkers(); err != nil {
		return nil, err
	}
	return d.addOrg(p, nil, append(opts, func(c *orgConfig) { c.gateway = h.Addr() })...)
}

// EnableWorkers enables the host's worker gateway (idempotently),
// allowing organisations to enrol behind it with Domain.AddWorkerOrg. The
// gateway queues inbound traffic per worker, forwards it round-robin
// down the workers' connections, and rejects new work past its equal
// per-tenant admission caps.
func (h *Host) EnableWorkers() (*protocol.WorkerGateway, error) {
	if gw := h.inner.WorkerGateway(); gw != nil {
		return gw, nil
	}
	d := h.domain
	cfg := protocol.GatewayConfig{Verifier: &evidence.Verifier{Keys: d.creds}}
	if d.tel != nil {
		cfg.Obs = d.tel.Scope("host:" + h.Addr())
	}
	gw, err := h.inner.EnableWorkerGateway(cfg)
	if err != nil {
		// A concurrent EnableWorkers may have won the race; use its
		// gateway rather than surfacing the duplicate registration.
		if gw := h.inner.WorkerGateway(); gw != nil {
			return gw, nil
		}
		return nil, err
	}
	if d.tel != nil {
		d.tel.SetHealth("worker-gateway:"+h.Addr(), func() any { return gw.Status() })
	}
	return gw, nil
}

// Gateway returns the host's worker gateway, nil before EnableWorkers.
// Use it for draining before shutdown (Drain) and status (Status).
func (h *Host) Gateway() *protocol.WorkerGateway { return h.inner.WorkerGateway() }
