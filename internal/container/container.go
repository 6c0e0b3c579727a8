// Package container is the component-middleware substrate of section 4 —
// the Go analogue of the paper's J2EE/JBoss prototype. Components
// (business-logic objects) are deployed into a container with a deployment
// descriptor; the container intercepts invocations and runs them through a
// chain of interceptors providing non-functional services (access control,
// transactions, persistence, shared-object coordination), exactly as
// "an application-level invocation passes through a chain of interceptors,
// each interceptor completing some task before passing the invocation to
// the next interceptor in the chain" (section 4).
//
// Reflection gives the container "access to the application-level method
// called, the method parameters, the target bean and its deployment
// descriptor", mirroring JBoss (section 4). Remote invocations arrive
// through the non-repudiation middleware (package invoke), for which the
// container is the Executor: the request reaches the component only after
// the NR interceptor has verified the client's evidence.
//
// The deployment descriptor is the one invocation policy: each method's
// MethodPolicy names the protocols it runs under and the roles its caller
// must hold, and the built-in access-control interceptor, first in every
// chain, refuses any other invocation as received but not executed.
package container

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"

	"nonrep/internal/access"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
)

// Errors reported by the container.
var (
	// ErrUnknownService is returned for invocations on undeployed
	// services.
	ErrUnknownService = errors.New("container: unknown service")
	// ErrUnknownMethod is returned for invocations of undeclared
	// methods.
	ErrUnknownMethod = errors.New("container: unknown method")
	// ErrBadSignature is returned when a component method has an
	// unsupported signature.
	ErrBadSignature = errors.New("container: unsupported method signature")
	// ErrArgumentMismatch is returned when invocation arguments do not
	// match the method parameters.
	ErrArgumentMismatch = errors.New("container: argument mismatch")
)

// MethodPolicy is the per-method part of a deployment descriptor: "the
// application programmer on the server side is responsible for
// identifying, in a bean's deployment descriptor, when non-repudiation is
// required and for identifying the platform and protocol" (section 4.2).
// It is the one statement of who may invoke the method and how; the
// container's access-control interceptor enforces it before the component
// runs.
type MethodPolicy struct {
	// NonRepudiation is ignored: every remote invocation arrives through
	// a non-repudiation protocol.
	NonRepudiation bool
	// Protocols lists the invocation protocols the method runs under, by
	// the name the request's signed snapshot carries; a run relayed by
	// inline TTPs is invoke.ProtocolInline. Empty means
	// invoke.ProtocolDirect alone.
	Protocols []string
	// Roles lists roles permitted to invoke the method (any-of), checked
	// against the caller's active roles; empty means open.
	Roles []access.Role
}

// protocols returns the protocols the method runs under.
func (p MethodPolicy) protocols() []string {
	if len(p.Protocols) == 0 {
		return []string{invoke.ProtocolDirect}
	}
	return p.Protocols
}

// Descriptor is a component's deployment descriptor.
type Descriptor struct {
	// Service is the URI the component is deployed at.
	Service id.Service
	// Methods maps exported method names to their policies. Methods not
	// listed are not invocable remotely.
	Methods map[string]MethodPolicy
}

// Invocation is the container-level view of a call (the JBoss Invocation
// object analogue).
type Invocation struct {
	Caller  id.Party
	Service id.Service
	Method  string
	// Args carry the canonical encodings of the arguments. A streamed
	// parameter's slot carries its name; the payload is read from Streams.
	Args []json.RawMessage
	// Meta carries propagated context.
	Meta map[string]string
	// Streams exposes an io.Reader per streamed parameter, keyed by
	// parameter name — the payloads whose chunk-digest chains the run's
	// evidence binds. Nil for non-streamed invocations.
	Streams map[string]io.Reader
	// Results collects streamed results; writes are chunked, digested and
	// bound by the response evidence before any chunk travels. Nil when
	// the invocation cannot stream results.
	Results *invoke.ResultStreams
}

// ResultWriter returns a writer for a named streamed result, or nil when
// the invocation cannot stream results. The client reads it back with
// Result.Stream(name).
func (inv *Invocation) ResultWriter(name string) io.Writer {
	if inv.Results == nil {
		return nil
	}
	return inv.Results.Writer(name)
}

// Invoker is the downstream target of an interceptor.
type Invoker interface {
	Invoke(ctx context.Context, inv *Invocation) (any, error)
}

// InvokerFunc adapts a function to the Invoker interface.
type InvokerFunc func(ctx context.Context, inv *Invocation) (any, error)

// Invoke implements Invoker.
func (f InvokerFunc) Invoke(ctx context.Context, inv *Invocation) (any, error) {
	return f(ctx, inv)
}

// Interceptor is one element of an invocation-path chain.
type Interceptor interface {
	// Name identifies the interceptor in diagnostics.
	Name() string
	// Invoke processes the invocation and (usually) delegates to next.
	Invoke(ctx context.Context, inv *Invocation, next Invoker) (any, error)
}

// Chain composes interceptors around a terminal invoker.
func Chain(terminal Invoker, interceptors ...Interceptor) Invoker {
	next := terminal
	for i := len(interceptors) - 1; i >= 0; i-- {
		ic := interceptors[i]
		downstream := next
		next = InvokerFunc(func(ctx context.Context, inv *Invocation) (any, error) {
			return ic.Invoke(ctx, inv, downstream)
		})
	}
	return next
}

// hosted is a deployed component.
type hosted struct {
	desc    Descriptor
	recv    reflect.Value
	methods map[string]reflect.Method
}

// policy returns the descriptor's policy for method, if h is deployed
// and declares it.
func (h *hosted) policy(method string) (MethodPolicy, bool) {
	if h == nil {
		return MethodPolicy{}, false
	}
	p, ok := h.desc.Methods[method]
	return p, ok
}

// Container hosts components and dispatches verified invocations to them.
type Container struct {
	acl          *access.Manager
	interceptors []Interceptor

	mu         sync.RWMutex
	components map[id.Service]*hosted
}

var _ invoke.Executor = (*Container)(nil)

// Option configures a container.
type Option func(*Container)

// WithInterceptors installs additional server-side interceptors, run in
// order after the container's built-in access-control interceptor.
func WithInterceptors(ics ...Interceptor) Option {
	return func(c *Container) { c.interceptors = append(c.interceptors, ics...) }
}

// New creates a container whose callers' active roles acl holds.
func New(acl *access.Manager, opts ...Option) *Container {
	c := &Container{acl: acl, components: make(map[id.Service]*hosted)}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

var (
	ctxType    = reflect.TypeOf((*context.Context)(nil)).Elem()
	errType    = reflect.TypeOf((*error)(nil)).Elem()
	readerType = reflect.TypeOf((*io.Reader)(nil)).Elem()
	writerType = reflect.TypeOf((*io.Writer)(nil)).Elem()
)

// Deploy installs a component at its descriptor's service URI. Every
// declared method must exist on the component with signature
// func(ctx context.Context, args...) (results..., error), and its policy
// may name only invocation protocols and non-empty roles.
func (c *Container) Deploy(desc Descriptor, component any) error {
	recv := reflect.ValueOf(component)
	t := recv.Type()
	methods := make(map[string]reflect.Method, len(desc.Methods))
	for name := range desc.Methods {
		m, ok := t.MethodByName(name)
		if !ok {
			return fmt.Errorf("%w: %s has no method %s", ErrUnknownMethod, t, name)
		}
		mt := m.Type
		if mt.NumIn() < 2 || mt.In(1) != ctxType {
			return fmt.Errorf("%w: %s.%s must take context.Context first", ErrBadSignature, t, name)
		}
		if mt.NumOut() < 1 || mt.Out(mt.NumOut()-1) != errType {
			return fmt.Errorf("%w: %s.%s must return error last", ErrBadSignature, t, name)
		}
		methods[name] = m
		p := desc.Methods[name]
		for _, proto := range p.Protocols {
			if !invoke.KnownProtocol(proto) {
				return fmt.Errorf("container: %s.%s: %q is not an invocation protocol", desc.Service, name, proto)
			}
		}
		if slices.Contains(p.Roles, "") {
			return fmt.Errorf("container: %s.%s: empty role name", desc.Service, name)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.components[desc.Service]; ok {
		return fmt.Errorf("container: service %s already deployed", desc.Service)
	}
	c.components[desc.Service] = &hosted{desc: desc, recv: recv, methods: methods}
	return nil
}

// Execute implements invoke.Executor: it is the point where "the client's
// request is actually passed through the interceptor chain to the EJB
// component for execution" (section 4.2).
func (c *Container) Execute(ctx context.Context, req *evidence.RequestSnapshot) ([]evidence.Param, error) {
	return c.ExecuteStream(ctx, req, nil, nil)
}

var _ invoke.StreamExecutor = (*Container)(nil)

// ExecuteStream implements invoke.StreamExecutor: Execute with streamed
// parameters exposed to the component as io.Reader arguments and io.Writer
// arguments collected as streamed results.
func (c *Container) ExecuteStream(ctx context.Context, req *evidence.RequestSnapshot, streams map[string]io.Reader, results *invoke.ResultStreams) ([]evidence.Param, error) {
	inv := &Invocation{
		Caller:  req.Client,
		Service: req.Service,
		Method:  req.Operation,
		Meta:    map[string]string{"run": string(req.Run), "protocol": req.Protocol},
		Streams: streams,
		Results: results,
	}
	for _, p := range req.Params {
		switch p.Kind {
		case evidence.ParamValue:
			inv.Args = append(inv.Args, p.Value)
		case evidence.ParamServiceRef:
			raw, err := json.Marshal(p.URI)
			if err != nil {
				return nil, err
			}
			inv.Args = append(inv.Args, raw)
		case evidence.ParamSharedRef:
			raw, err := json.Marshal(p.Ref)
			if err != nil {
				return nil, err
			}
			inv.Args = append(inv.Args, raw)
		case evidence.ParamStream:
			// The slot names the stream; dispatch resolves it to the
			// verified reader.
			raw, err := json.Marshal(p.Name)
			if err != nil {
				return nil, err
			}
			inv.Args = append(inv.Args, raw)
		default:
			return nil, fmt.Errorf("%w: parameter kind %q", ErrArgumentMismatch, p.Kind)
		}
	}
	chain := Chain(InvokerFunc(c.dispatch), append([]Interceptor{&aclInterceptor{c: c}}, c.interceptors...)...)
	out, err := chain.Invoke(ctx, inv)
	if err != nil {
		return nil, err
	}
	params, ok := out.([]evidence.Param)
	if !ok {
		return nil, fmt.Errorf("container: dispatch returned %T", out)
	}
	return params, nil
}

// dispatch is the terminal invoker: reflective method invocation on the
// deployed component. Beyond JSON-decoded value arguments, io.Reader
// parameters consume a streamed parameter (their argument slot names it)
// and io.Writer parameters are injected as streamed result writers named
// "stream0", "stream1", ... in declaration order.
func (c *Container) dispatch(ctx context.Context, inv *Invocation) (any, error) {
	c.mu.RLock()
	h, ok := c.components[inv.Service]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownService, inv.Service)
	}
	m, ok := h.methods[inv.Method]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrUnknownMethod, inv.Method, inv.Service)
	}
	mt := m.Type
	wantArgs := 0
	for i := 2; i < mt.NumIn(); i++ { // receiver + ctx first
		if mt.In(i) != writerType {
			wantArgs++
		}
	}
	if len(inv.Args) != wantArgs {
		return nil, fmt.Errorf("%w: %s.%s takes %d args, got %d",
			ErrArgumentMismatch, inv.Service, inv.Method, wantArgs, len(inv.Args))
	}
	callArgs := make([]reflect.Value, 0, mt.NumIn())
	callArgs = append(callArgs, h.recv, reflect.ValueOf(ctx))
	argIdx, writerIdx := 0, 0
	for i := 2; i < mt.NumIn(); i++ {
		pt := mt.In(i)
		switch pt {
		case writerType:
			w := inv.ResultWriter(fmt.Sprintf("stream%d", writerIdx))
			if w == nil {
				return nil, fmt.Errorf("%w: %s.%s streams results, which this protocol run cannot carry",
					ErrArgumentMismatch, inv.Service, inv.Method)
			}
			writerIdx++
			callArgs = append(callArgs, reflect.ValueOf(w))
		case readerType:
			var name string
			if err := json.Unmarshal(inv.Args[argIdx], &name); err != nil {
				return nil, fmt.Errorf("%w: arg %d of %s.%s expects a streamed parameter",
					ErrArgumentMismatch, argIdx, inv.Service, inv.Method)
			}
			r, ok := inv.Streams[name]
			if !ok {
				return nil, fmt.Errorf("%w: arg %d of %s.%s: no streamed parameter %q",
					ErrArgumentMismatch, argIdx, inv.Service, inv.Method, name)
			}
			argIdx++
			callArgs = append(callArgs, reflect.ValueOf(r))
		default:
			pv := reflect.New(pt)
			if err := json.Unmarshal(inv.Args[argIdx], pv.Interface()); err != nil {
				return nil, fmt.Errorf("%w: arg %d of %s.%s: %v", ErrArgumentMismatch, argIdx, inv.Service, inv.Method, err)
			}
			argIdx++
			callArgs = append(callArgs, pv.Elem())
		}
	}
	outs := m.Func.Call(callArgs)
	if errV := outs[len(outs)-1]; !errV.IsNil() {
		return nil, errV.Interface().(error)
	}
	results := make([]evidence.Param, 0, len(outs)-1)
	for i, o := range outs[:len(outs)-1] {
		p, err := evidence.ValueParam(fmt.Sprintf("result%d", i), o.Interface())
		if err != nil {
			return nil, err
		}
		results = append(results, p)
	}
	return results, nil
}

// aclInterceptor enforces each method's deployment descriptor — the
// protocols it runs under and the roles its caller must hold — turning a
// refusal into received-but-not-executed evidence upstream (section 3.2).
// The refusal names the protocols the method does run under, which is how
// a client re-negotiates (section 4.2). An undeployed service or method
// passes on, for dispatch to report.
type aclInterceptor struct {
	c *Container
}

// Name implements Interceptor.
func (a *aclInterceptor) Name() string { return "access-control" }

// Invoke implements Interceptor.
func (a *aclInterceptor) Invoke(ctx context.Context, inv *Invocation, next Invoker) (any, error) {
	a.c.mu.RLock()
	h := a.c.components[inv.Service]
	a.c.mu.RUnlock()
	if p, ok := h.policy(inv.Method); ok {
		if proto := inv.Meta["protocol"]; !slices.Contains(p.protocols(), proto) {
			return nil, fmt.Errorf("%w: %s.%s is not offered under %s, only under %v",
				invoke.ErrNotExecuted, inv.Service, inv.Method, proto, p.protocols())
		}
		if err := a.c.acl.Authorize(inv.Caller, p.Roles...); err != nil {
			return nil, fmt.Errorf("%w: %s.%s: %v", invoke.ErrNotExecuted, inv.Service, inv.Method, err)
		}
	}
	return next.Invoke(ctx, inv)
}
