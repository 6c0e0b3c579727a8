package nonrep_test

import (
	"context"
	"testing"
	"time"

	"nonrep"
)

// TestReceiptTakenWhenCallReturns: on the in-process network a one-way
// delivery is an acknowledged exchange, as over TCP, so by the time the
// caller's call returns the server has logged the client's receipt —
// a server called directly, one behind an inline relay, and one serving
// as a worker behind a gateway. Nothing waits for the receipt.
func TestReceiptTakenWhenCallReturns(t *testing.T) {
	t.Parallel()
	for _, path := range []string{"direct", "relayed", "worker"} {
		t.Run(path, func(t *testing.T) {
			t.Parallel()
			domain, err := nonrep.NewDomain()
			if err != nil {
				t.Fatal(err)
			}
			defer domain.Close()
			client, err := domain.AddOrg(dealer)
			if err != nil {
				t.Fatal(err)
			}
			var server *nonrep.Org
			if path == "worker" {
				host, herr := nonrep.NewHost(domain)
				if herr != nil {
					t.Fatal(herr)
				}
				server, err = domain.AddWorkerOrg(host, manufacturer)
			} else {
				server, err = domain.AddOrg(manufacturer)
			}
			if err != nil {
				t.Fatal(err)
			}
			desc := ordersDescriptor()
			var via []nonrep.ClientOption
			if path == "relayed" {
				relay, err := domain.AddOrg(relayTTP)
				if err != nil {
					t.Fatal(err)
				}
				relay.EnableRelay(nil)
				desc.Methods["Place"] = nonrep.MethodPolicy{NonRepudiation: true, Protocols: []string{nonrep.ProtocolInline}}
				via = []nonrep.ClientOption{nonrep.Via(relayTTP)}
			}
			if err := server.Deploy(desc, &Orders{}); err != nil {
				t.Fatal(err)
			}
			srv := server.Serve()
			proxy := client.Proxy(manufacturer, ordersURI, via)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < 20; i++ {
				res, err := proxy.Call(ctx, "Place", "roadster")
				if err != nil || res.Status != nonrep.StatusOK {
					t.Fatalf("call %d: %v (%+v)", i, err, res)
				}
				if received, _, err := srv.ReceiptState(res.Run); err != nil || !received {
					t.Fatalf("call %d: ReceiptState = %v, %v when the call returned; want the receipt taken", i, received, err)
				}
				recs, err := server.Vault().QueryAll(nonrep.VaultQuery{Run: res.Run})
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != 4 {
					t.Fatalf("call %d: the server logged %d records of the run when the call returned, want NRO, NRR, NROResp and NRRResp", i, len(recs))
				}
			}
		})
	}
}
