package nonrep

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"nonrep/internal/evidence"
	"nonrep/internal/store"
	"nonrep/internal/transport"
)

// parkingNetwork parks one-way sends while parking is on, so a test fixes
// when a receipt reaches its server.
type parkingNetwork struct {
	transport.Network

	mu      sync.Mutex
	parking bool
	parked  []func()
}

func (n *parkingNetwork) Register(addr string, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.Network.Register(addr, h)
	if err != nil {
		return nil, err
	}
	return &parkingEndpoint{Endpoint: ep, net: n}, nil
}

// release sends what was parked and stops parking.
func (n *parkingNetwork) release() int {
	n.mu.Lock()
	parked := n.parked
	n.parking, n.parked = false, nil
	n.mu.Unlock()
	for _, send := range parked {
		send()
	}
	return len(parked)
}

type parkingEndpoint struct {
	transport.Endpoint
	net *parkingNetwork
}

func (e *parkingEndpoint) Send(ctx context.Context, to string, env *transport.Envelope) error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if e.net.parking {
		e.net.parked = append(e.net.parked, func() { _ = e.Endpoint.Send(context.Background(), to, env) })
		return nil
	}
	return e.Endpoint.Send(ctx, to, env)
}

type placer struct{}

func (placer) Place(_ context.Context, model string) (string, error) { return "ok-" + model, nil }

// TestFlushPrecedesLateReceipt fixes the schedule behind a quorum status
// that once read "target AckedSeq 45 trails local seq 46 after Flush":
// a client's receipt (NRRResp) that reaches the server late — this
// network parks it, as a slow link would — is committed after
// Georep().Flush has read the vault. Flush covers everything committed before it; the late receipt
// is acknowledged by the next pass, so the quorum invariant holds, and a
// status read between its commit and that pass shows the record as local
// and not yet acknowledged.
func TestFlushPrecedesLateReceipt(t *testing.T) {
	t.Parallel()
	domain, err := NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	net := &parkingNetwork{Network: domain.network}
	domain.network = net

	if _, err := domain.AddOrg("urn:org:late-backup", WithReplicaStore(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	primary, err := domain.AddOrg("urn:org:late-primary",
		WithVault(t.TempDir(), VaultSegmentRecords(4)),
		WithQuorum(1, "urn:org:late-backup"))
	if err != nil {
		t.Fatal(err)
	}
	const svc = "urn:org:late-primary/orders"
	if err := primary.Deploy(Descriptor{Service: svc, Methods: map[string]MethodPolicy{
		"Place": {NonRepudiation: true, Protocols: []string{ProtocolDirect}},
	}}, placer{}); err != nil {
		t.Fatal(err)
	}
	srv := primary.Serve()
	defer srv.Close()
	caller, err := domain.AddOrg("urn:org:late-caller")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	proxy := caller.Proxy("urn:org:late-primary", svc, nil)
	// holds waits until the primary holds n records.
	holds := func(n int) {
		t.Helper()
		for primary.Vault().Len() < n {
			if ctx.Err() != nil {
				t.Fatalf("the primary holds %d records, want %d", primary.Vault().Len(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	const calls = 12
	for i := 1; i < calls; i++ {
		if _, err := proxy.Call(ctx, "Place", fmt.Sprintf("m-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	holds(4 * (calls - 1))
	net.mu.Lock()
	net.parking = true
	net.mu.Unlock()
	last, err := proxy.Call(ctx, "Place", "m-last")
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Georep().Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := primary.Durability()
	if st.LocalSeq != 4*calls-1 || st.Targets[0].AckedSeq != st.LocalSeq || st.QuorumSeq != st.LocalSeq {
		t.Fatalf("after Flush with the last receipt in flight: %+v, want local, acked and quorum at %d", st, 4*calls-1)
	}

	// The receipt lands after Flush: it is the record the status counts
	// as local and the Flush before it could not have acknowledged.
	if n := net.release(); n != 1 {
		t.Fatalf("%d one-way sends parked during the last call, want its receipt alone", n)
	}
	holds(4 * calls)
	recs, err := primary.Vault().QueryAll(store.Query{AfterSeq: 4*calls - 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Token.Kind != evidence.KindNRRResp || recs[0].Token.Run != last.Run {
		t.Fatalf("records after the Flush: %v, want the last call's NRRResp", recs)
	}
	if err := primary.Georep().Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := primary.Durability(); st.LocalSeq != 4*calls || st.Targets[0].AckedSeq != st.LocalSeq || st.QuorumSeq != st.LocalSeq {
		t.Fatalf("after the receipt and a second Flush: %+v, want local, acked and quorum at %d", st, 4*calls)
	}
}
