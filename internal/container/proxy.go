package container

import (
	"context"
	"fmt"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
)

// Proxy is the client-side dynamic proxy of section 4.2: "the client's
// reference to the remote bean is a dynamic proxy generated by the server.
// This proxy contains client-side interceptors." Here the one client-side
// interceptor is the non-repudiation client itself: calls go straight into
// it, so the NR machinery sits first on the outgoing path and last on the
// return path.
type Proxy struct {
	cli     *invoke.Client
	server  id.Party
	service id.Service
	txn     id.Txn
	async   AsyncSubmitter
}

// AsyncJob is a handle to a durably submitted invocation. The concrete
// type is durable.Job; the indirection keeps the container layer free of
// a dependency on the durable runtime.
type AsyncJob interface {
	// Wait blocks until the job reaches a terminal state and returns its
	// result, or fails when ctx expires first.
	Wait(ctx context.Context) (*invoke.Result, error)
}

// AsyncSubmitter journals and executes invocations as durable jobs.
// Implemented by durable.Runtime (via the nonrep package's adapter).
type AsyncSubmitter interface {
	SubmitAsync(ctx context.Context, server id.Party, req invoke.Request) (AsyncJob, error)
}

// ProxyOption configures a proxy.
type ProxyOption func(*Proxy)

// WithTxn links every call through this proxy to a business transaction.
func WithTxn(txn id.Txn) ProxyOption {
	return func(p *Proxy) { p.txn = txn }
}

// WithAsync enables CallAsync by providing the durable submitter that
// journals and executes the job.
func WithAsync(s AsyncSubmitter) ProxyOption {
	return func(p *Proxy) { p.async = s }
}

// NewProxy creates a client proxy for a remote service.
func NewProxy(cli *invoke.Client, server id.Party, service id.Service, opts ...ProxyOption) *Proxy {
	p := &Proxy{cli: cli, server: server, service: service}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Call invokes a method on the remote component. Arguments are resolved to
// their agreed evidence representation per section 3.4: id.Service values
// become service references, evidence.SharedRef values become shared-
// information references, evidence.Param values pass through, and
// everything else is resolved as a value type.
func (p *Proxy) Call(ctx context.Context, method string, args ...any) (*invoke.Result, error) {
	return p.call(ctx, method, args)
}

// CallStream is Call for invocations with streamed payloads: invoke.Stream
// arguments (from nonrep.StreamParam) travel as hash-chained chunk streams
// of unbounded size, resolved in the evidence to chunk-digest chains whose
// roots the run's tokens sign. Streamed results come back through
// Result.Stream. Internally Call is the no-stream case of the same path.
func (p *Proxy) CallStream(ctx context.Context, method string, args ...any) (*invoke.Result, error) {
	return p.call(ctx, method, args)
}

// CallAsync submits the invocation as a durable job instead of executing
// it inline: the job is journaled in the organisation's vault before
// anything is sent, survives process crashes, and is retried under the
// organisation's policy. The returned handle's Wait yields the same
// *invoke.Result Call would have. Requires WithAsync; streamed arguments
// are not journalable and are rejected.
func (p *Proxy) CallAsync(ctx context.Context, method string, args ...any) (AsyncJob, error) {
	if p.async == nil {
		return nil, fmt.Errorf("container: proxy for %s has no async submitter (WithAsync)", p.service)
	}
	params, streams, err := resolveArgs(args)
	if err != nil {
		return nil, err
	}
	if len(streams) > 0 {
		return nil, fmt.Errorf("container: CallAsync cannot journal streamed arguments")
	}
	req := invoke.Request{
		Service:   p.service,
		Operation: method,
		Params:    params,
		Txn:       p.txn,
	}
	return p.async.SubmitAsync(ctx, p.server, req)
}

// resolveArgs maps Go arguments to their agreed evidence representation.
func resolveArgs(args []any) ([]evidence.Param, []invoke.Stream, error) {
	params := make([]evidence.Param, 0, len(args))
	var streams []invoke.Stream
	for i, a := range args {
		name := fmt.Sprintf("arg%d", i)
		switch v := a.(type) {
		case evidence.Param:
			params = append(params, v)
		case id.Service:
			params = append(params, evidence.ServiceRefParam(name, v))
		case evidence.SharedRef:
			params = append(params, evidence.SharedRefParam(name, v))
		case invoke.Stream:
			if v.Name == "" {
				v.Name = name
			}
			// A placeholder holds the stream's argument position; the
			// client fills in the digest chain as it ships the payload.
			params = append(params, evidence.Param{Kind: evidence.ParamStream, Name: v.Name})
			streams = append(streams, v)
		default:
			param, err := evidence.ValueParam(name, v)
			if err != nil {
				return nil, nil, err
			}
			params = append(params, param)
		}
	}
	return params, streams, nil
}

func (p *Proxy) call(ctx context.Context, method string, args []any) (*invoke.Result, error) {
	params, streams, err := resolveArgs(args)
	if err != nil {
		return nil, err
	}
	req := invoke.Request{
		Service:   p.service,
		Operation: method,
		Params:    params,
		Streams:   streams,
		Txn:       p.txn,
	}
	return p.cli.Invoke(ctx, p.server, req)
}

// CallValue invokes a method and decodes the first result into out,
// returning an error for any non-OK response status.
func (p *Proxy) CallValue(ctx context.Context, out any, method string, args ...any) (*invoke.Result, error) {
	res, err := p.Call(ctx, method, args...)
	if err != nil {
		return nil, err
	}
	if res.Status != evidence.StatusOK {
		return res, fmt.Errorf("container: %s.%s: %s (%s)", p.service, method, res.Status, res.Err)
	}
	if out != nil {
		if len(res.Result) == 0 {
			return res, fmt.Errorf("container: %s.%s returned no result", p.service, method)
		}
		if err := jsonUnmarshal(res.Result[0].Value, out); err != nil {
			return res, err
		}
	}
	return res, nil
}
