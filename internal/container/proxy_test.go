package container_test

import (
	"context"
	"encoding/json"
	"testing"

	"nonrep/internal/access"
	"nonrep/internal/container"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

// Negotiator is a component whose method takes all three section-3.4
// parameter categories.
type Negotiator struct{}

// Inspect accepts a value, a service reference and a shared-information
// reference (the three parameter categories of paper section 3.4).
func (n *Negotiator) Inspect(_ context.Context, spec map[string]string, supplier string, ref evidence.SharedRef) (string, error) {
	return spec["model"] + " via " + supplier + " @v" + itoa(ref.Version), nil
}

func itoa(v uint64) string {
	data, _ := json.Marshal(v)
	return string(data)
}

// TestProxyResolvesParamKinds verifies section 3.4's resolution rules:
// value types to canonical state, service references to URIs, shared
// information to (state digest, mechanism) pairs — all inside the signed
// request snapshot.
func TestProxyResolvesParamKinds(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(dealer, manufacturer)
	t.Cleanup(d.Close)
	cont := container.New(access.NewManager())
	comp := &Negotiator{}
	if err := cont.Deploy(container.Descriptor{
		Service: "urn:org:manufacturer/negotiate",
		Methods: map[string]container.MethodPolicy{"Inspect": {NonRepudiation: true}},
	}, comp); err != nil {
		t.Fatal(err)
	}
	srv := invoke.NewServer(d.Node(manufacturer).Coordinator(), cont)
	t.Cleanup(func() { _ = srv.Close() })

	cli := invoke.NewClient(d.Node(dealer).Coordinator())
	proxy := container.NewProxy(cli, manufacturer, "urn:org:manufacturer/negotiate")

	sharedRef := evidence.SharedRef{
		Object:      "car-spec",
		Version:     4,
		StateDigest: sig.Sum([]byte("agreed state v4")),
		Mechanism:   "urn:org:dealer/b2b",
	}
	var result string
	res, err := proxy.CallValue(context.Background(), &result, "Inspect",
		map[string]string{"model": "roadster"}, // value type
		id.Service("urn:org:supplier-a/parts"), // service reference
		sharedRef,                              // shared information
	)
	if err != nil {
		t.Fatal(err)
	}
	if result != `roadster via urn:org:supplier-a/parts @v4` {
		t.Fatalf("result = %q", result)
	}
	// The NRO token's digest covers a snapshot carrying all three
	// resolved kinds; reconstruct what was signed from the run's
	// evidence by checking token digests are consistent across parties.
	clientRecords := testpki.Query(t, d.Node(dealer).Log(), store.Query{Run: res.Run})
	serverRecords := testpki.Query(t, d.Node(manufacturer).Log(), store.Query{Run: res.Run})
	if len(clientRecords) == 0 || len(serverRecords) == 0 {
		t.Fatal("missing evidence")
	}
	var clientNRO, serverNRO sig.Digest
	for _, rec := range clientRecords {
		if rec.Token.Kind == evidence.KindNRO {
			clientNRO = rec.Token.Digest
		}
	}
	for _, rec := range serverRecords {
		if rec.Token.Kind == evidence.KindNRO {
			serverNRO = rec.Token.Digest
		}
	}
	if clientNRO.IsZero() || clientNRO != serverNRO {
		t.Fatal("request snapshot digests disagree between parties")
	}
}

// TestProxyPassthroughParam verifies pre-resolved evidence.Param values
// pass through unchanged.
func TestProxyPassthroughParam(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(dealer, manufacturer)
	t.Cleanup(d.Close)
	exec := invoke.ExecutorFunc(func(_ context.Context, req *evidence.RequestSnapshot) ([]evidence.Param, error) {
		if len(req.Params) != 1 || req.Params[0].Kind != evidence.ParamServiceRef {
			return nil, invoke.ErrNotExecuted
		}
		out, err := evidence.ValueParam("ok", true)
		return []evidence.Param{out}, err
	})
	srv := invoke.NewServer(d.Node(manufacturer).Coordinator(), exec)
	t.Cleanup(func() { _ = srv.Close() })
	cli := invoke.NewClient(d.Node(dealer).Coordinator())
	proxy := container.NewProxy(cli, manufacturer, "urn:org:manufacturer/x")
	pre := evidence.ServiceRefParam("target", "urn:org:b/svc")
	res, err := proxy.Call(context.Background(), "Check", pre)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != evidence.StatusOK {
		t.Fatalf("status = %v (%s)", res.Status, res.Err)
	}
}

// TestCallValueErrors covers the decode error paths.
func TestCallValueErrors(t *testing.T) {
	t.Parallel()
	d := testpki.MustDomain(dealer, manufacturer)
	t.Cleanup(d.Close)
	exec := invoke.ExecutorFunc(func(context.Context, *evidence.RequestSnapshot) ([]evidence.Param, error) {
		return nil, nil // success with no result
	})
	srv := invoke.NewServer(d.Node(manufacturer).Coordinator(), exec)
	t.Cleanup(func() { _ = srv.Close() })
	cli := invoke.NewClient(d.Node(dealer).Coordinator())
	proxy := container.NewProxy(cli, manufacturer, "urn:org:manufacturer/x")
	var out string
	if _, err := proxy.CallValue(context.Background(), &out, "NoResult"); err == nil {
		t.Fatal("CallValue with no result succeeded")
	}
	// nil out skips decoding.
	if _, err := proxy.CallValue(context.Background(), nil, "NoResult"); err != nil {
		t.Fatal(err)
	}
}
