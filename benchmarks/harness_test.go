package main

import (
	"context"
	"math"
	"testing"
	"time"

	"nonrep/internal/transport"
)

// Unit tests for the harness's own arithmetic: percentiles,
// failed operations as percentile misses, span self time and the byte
// counters of the Network decorator.

func TestSamplesBeyondAPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{0, 99, 0}, {37, 99, 0}, {100, 99, 1}, {999, 99, 9}, {1000, 99, 10}, {50000, 99, 500}, {37, 50, 18}, {40, 75, 10},
	} {
		if got := beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
	// The count agrees with the percentile the harness reports: exactly
	// that many samples are strictly slower.
	var ok []time.Duration
	for i := 1; i <= 1234; i++ {
		ok = append(ok, time.Duration(i)*time.Microsecond)
	}
	lat := newLatencies(ok, 0)
	p99 := lat.percentile(99)
	slower := 0
	for _, d := range ok {
		if d > p99 {
			slower++
		}
	}
	if slower != beyond(len(ok), 99) {
		t.Errorf("%d samples above p99, beyond() says %d", slower, beyond(len(ok), 99))
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var ok []time.Duration
	for i := 100; i >= 1; i-- { // unsorted on purpose
		ok = append(ok, time.Duration(i)*time.Millisecond)
	}
	lat := newLatencies(ok, 0)
	for _, tc := range []struct{ p, wantMs float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {75, 75}} {
		if got := ms(lat.percentile(tc.p)); got != tc.wantMs {
			t.Errorf("p%g = %g ms, want %g", tc.p, got, tc.wantMs)
		}
	}
}

func TestFailedOperationsMissEveryPercentile(t *testing.T) {
	// 90 successes of 1..90 ms and 10 failures: the failures sort above
	// every success, so p90 is the slowest success and anything higher is
	// a miss.
	var ok []time.Duration
	for i := 1; i <= 90; i++ {
		ok = append(ok, time.Duration(i)*time.Millisecond)
	}
	lat := newLatencies(ok, 10)
	if lat.count() != 100 {
		t.Fatalf("count = %d, want 100 (failures are samples)", lat.count())
	}
	if got := ms(lat.percentile(50)); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := ms(lat.percentile(90)); got != 90 {
		t.Errorf("p90 = %g, want 90", got)
	}
	if got := ms(lat.percentile(91)); !math.IsInf(got, 1) {
		t.Errorf("p91 = %g, want +Inf: the rank falls on a failed operation", got)
	}
	if got := ms(newLatencies(nil, 0).percentile(50)); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %g, want NaN", got)
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	// A handler of 100 units with three children: [10,40] and [30,60]
	// overlap (a union of 50) and [70,80] stands alone.
	spans := []span{
		{Layer: layerRequest, Node: "c", Msg: "m1", Start: 0, End: 120},
		{Layer: layerHandle, Node: "s", Msg: "m1", Start: 0, End: 100},
		{Layer: layerSig, Node: "s", Start: 10, End: 40},
		{Layer: layerVault, Node: "s", Start: 30, End: 60, Run: "r1"},
		{Layer: layerContainer, Node: "s", Start: 70, End: 80},
	}
	linkSpans(spans)
	byLayer := make(map[string]*span)
	for i := range spans {
		byLayer[spans[i].Layer] = &spans[i]
	}
	handle, request := byLayer[layerHandle], byLayer[layerRequest]
	if handle.Parent != request.ID {
		t.Fatalf("handle span's parent = %d, want the request span %d (same envelope id)", handle.Parent, request.ID)
	}
	for _, l := range []string{layerSig, layerVault, layerContainer} {
		if byLayer[l].Parent != handle.ID {
			t.Errorf("%s span's parent = %d, want the handle span %d", l, byLayer[l].Parent, handle.ID)
		}
	}
	self := selfTimes(spans)
	if got := self[handle.ID]; got != 100-50-10 {
		t.Errorf("handle self time = %d, want 40 (100 minus a union of 50 minus 10)", got)
	}
	if got := self[request.ID]; got != 20 {
		t.Errorf("request self time = %d, want 20 (round trip minus handling)", got)
	}
	// The run known to the append reaches the rest of the tree.
	for i := range spans {
		if spans[i].Run != "r1" {
			t.Errorf("%s span has run %q, want r1", spans[i].Layer, spans[i].Run)
		}
	}
	if got := covered([][2]int64{{-5, 10}, {90, 130}}, 0, 100); got != 20 {
		t.Errorf("covered clips to the parent: got %d, want 20", got)
	}
}

func TestLinkPrefersParentOfSameRun(t *testing.T) {
	// Two callers overlap on one node; each append goes to the root of its
	// own run even though the other root is the more recently started.
	spans := []span{
		{Layer: layerInvoke, Node: "c", Run: "a", Start: 0, End: 100},
		{Layer: layerInvoke, Node: "c", Run: "b", Start: 5, End: 90},
		{Layer: layerVault, Node: "c", Run: "a", Start: 10, End: 20},
		{Layer: layerVault, Node: "c", Run: "b", Start: 12, End: 22},
	}
	linkSpans(spans)
	for i := range spans {
		if spans[i].Layer != layerVault {
			continue
		}
		if parent := spans[spans[i].Parent-1]; parent.Run != spans[i].Run {
			t.Errorf("append of run %s linked to root of run %s", spans[i].Run, parent.Run)
		}
	}
}

// echoNetwork is an in-memory transport.Network whose endpoints deliver
// straight to the handler registered at the destination.
type echoNetwork struct{ handlers map[string]transport.Handler }

func (n *echoNetwork) Register(addr string, h transport.Handler) (transport.Endpoint, error) {
	n.handlers[addr] = h
	return &echoEndpoint{net: n, addr: addr}, nil
}

type echoEndpoint struct {
	net  *echoNetwork
	addr string
}

func (e *echoEndpoint) Addr() string { return e.addr }
func (e *echoEndpoint) Close() error { return nil }
func (e *echoEndpoint) Send(ctx context.Context, to string, env *transport.Envelope) error {
	_, err := e.net.handlers[to].Handle(ctx, env)
	return err
}
func (e *echoEndpoint) Request(ctx context.Context, to string, env *transport.Envelope) (*transport.Envelope, error) {
	return e.net.handlers[to].Handle(ctx, env)
}

func TestNetworkDecoratorCountsHandBuiltEnvelopes(t *testing.T) {
	plain := &transport.Envelope{ID: "msg-1", From: "a:1", To: "b:2", Kind: "deliver", Tenant: "t", Body: make([]byte, 100)}
	wantPlain := int64(len("msg-1") + len("a:1") + len("b:2") + len("deliver") + len("t") + 100)
	if got := envelopeBytes(plain); got != wantPlain {
		t.Fatalf("envelopeBytes(plain) = %d, want %d", got, wantPlain)
	}
	sub1 := &transport.Envelope{ID: "s1", Kind: "deliver", Body: make([]byte, 10)}
	sub2 := &transport.Envelope{ID: "s2", Kind: "deliver", Body: make([]byte, 20)}
	batch := &transport.Envelope{ID: "b", Kind: transport.KindBatch, Batch: []transport.BatchItem{{Env: sub1}, {Env: sub2}, {Err: "boom"}}}
	wantBatch := int64(len("b")+len(transport.KindBatch)) + int64(2+7+10) + int64(2+7+20) + int64(len("boom"))
	if got := envelopeBytes(batch); got != wantBatch {
		t.Fatalf("envelopeBytes(batch) = %d, want %d", got, wantBatch)
	}

	wire := &wireStats{}
	tr := newTracer()
	inner := &echoNetwork{handlers: make(map[string]transport.Handler)}
	net := &meteredNetwork{inner: inner, tr: tr, wire: wire, cap: &capture{}}
	reply := &transport.Envelope{ID: "r", Kind: "reply", Body: make([]byte, 7)}
	if _, err := net.at("server").Register("b:2", transport.HandlerFunc(func(context.Context, *transport.Envelope) (*transport.Envelope, error) {
		return reply, nil
	})); err != nil {
		t.Fatal(err)
	}
	client, err := net.at("client").Register("a:1", transport.HandlerFunc(func(context.Context, *transport.Envelope) (*transport.Envelope, error) {
		return nil, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.Request(ctx, "b:2", plain); err != nil {
		t.Fatal(err)
	}
	if err := client.Send(ctx, "b:2", batch); err != nil {
		t.Fatal(err)
	}
	got := wire.snapshot()
	// One request, its reply, one one-way batch: three envelopes, and the
	// batch carries three protocol messages.
	if got.envelopes != 3 || got.submsgs != 1+1+3 {
		t.Errorf("envelopes = %d, sub-messages = %d, want 3 and 5", got.envelopes, got.submsgs)
	}
	if want := wantPlain + envelopeBytes(reply) + wantBatch; got.bytes != want {
		t.Errorf("bytes = %d, want %d", got.bytes, want)
	}
	if spans := tr.take(); len(spans) != 0 {
		t.Errorf("%d spans recorded with the tracer off", len(spans))
	}

	// With the tracer on, each exchange leaves a client span and a server
	// span tied by the envelope id.
	tr.on.Store(true)
	if _, err := client.Request(ctx, "b:2", plain); err != nil {
		t.Fatal(err)
	}
	tr.on.Store(false)
	spans := tr.take()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want a request span and a handle span", len(spans))
	}
	for _, s := range spans {
		if s.Layer == layerHandle && (s.Parent == 0 || spans[s.Parent-1].Layer != layerRequest) {
			t.Errorf("handle span not linked to its request span: %+v", s)
		}
	}
}
