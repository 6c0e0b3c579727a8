package nonrep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"nonrep/internal/evidence"
	"nonrep/internal/invoke"
	"nonrep/internal/store"
	"nonrep/internal/transport"
)

// connPair is a WithTCP domain with a client and a server org, the
// server answering every call through exec.
func connPair(t *testing.T, exec invoke.ExecutorFunc) (*Domain, *Org, *Org) {
	t.Helper()
	d, err := NewDomain(WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	client, err := d.AddOrg("urn:org:conn-client")
	if err != nil {
		t.Fatal(err)
	}
	server, err := d.AddOrg("urn:org:conn-server")
	if err != nil {
		t.Fatal(err)
	}
	server.ServeExecutor(exec)
	return d, client, server
}

func connEcho(_ context.Context, req *evidence.RequestSnapshot) ([]evidence.Param, error) {
	p, err := evidence.ValueParam("echo", req.Operation)
	return []evidence.Param{p}, err
}

var connRequest = Request{Service: "urn:org:conn-server/svc", Operation: "Do"}

// TestTCPDirectCallsDialOncePerDirection: sequential direct calls
// between two orgs share their connections — one dial per direction at
// most, whatever the number of calls.
func TestTCPDirectCallsDialOncePerDirection(t *testing.T) {
	t.Parallel()
	d, client, server := connPair(t, connEcho)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 50; i++ {
		res, err := client.Invoke(ctx, server.Party(), connRequest)
		if err != nil || res.Status != evidence.StatusOK {
			t.Fatalf("call %d: %v (%+v)", i, err, res)
		}
	}
	st := d.tcpNet.Stats()
	t.Logf("50 direct calls: %+v", st)
	if st.Dials > 2 {
		t.Fatalf("50 direct calls dialled %d times, want at most one per direction", st.Dials)
	}
}

// TestTCPConnKilledMidCallExecutesOnce: the server's connection to its
// client dies while the component executes. The client's retry reaches
// the server on a new connection, the call succeeds, the component ran
// once, and each vault holds one evidence set for the run.
func TestTCPConnKilledMidCallExecutesOnce(t *testing.T) {
	t.Parallel()
	var runs atomic.Int64
	_, client, server := connPair(t, func(ctx context.Context, req *evidence.RequestSnapshot) ([]evidence.Param, error) {
		if runs.Add(1) == 1 {
			conn := transport.CallerConn(ctx)
			if conn == nil {
				return nil, errors.New("no connection to kill")
			}
			_ = conn.Close()
		}
		return connEcho(ctx, req)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := client.Invoke(ctx, server.Party(), connRequest)
	if err != nil || res.Status != evidence.StatusOK {
		t.Fatalf("call over a killed connection: %v (%+v)", err, res)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("the component ran %d times, want 1", n)
	}
	kinds := []evidence.Kind{evidence.KindNRO, evidence.KindNRR, evidence.KindNROResp, evidence.KindNRRResp}
	for _, org := range []*Org{client, server} {
		var recs []*store.Record
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			recs = org.Vault().ByRun(res.Run)
			if len(recs) >= len(kinds) || time.Now().After(deadline) {
				break
			}
		}
		count := map[evidence.Kind]int{}
		for _, r := range recs {
			count[r.Token.Kind]++
		}
		for _, k := range kinds {
			if count[k] != 1 {
				t.Fatalf("%s holds %v for the run, want one of each of %v", org.Party(), count, kinds)
			}
		}
		if len(recs) != len(kinds) {
			t.Fatalf("%s holds %d records for the run, want %d", org.Party(), len(recs), len(kinds))
		}
	}
}
