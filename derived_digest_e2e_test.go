package nonrep_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"nonrep"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/store"
)

// digestForms counts how org's vault stores its tokens' digests, and has
// an adjudicator judge, from that vault alone, every run complete and
// without fault and the vault's log clean.
func digestForms(t *testing.T, domain *nonrep.Domain, org *nonrep.Org, runs []id.Run) [4]int {
	t.Helper()
	sizes, err := org.Vault().Sizes()
	if err != nil {
		t.Fatal(err)
	}
	var count store.FrameCount
	for _, s := range sizes {
		count.Add(s.FrameCount)
	}
	adj := domain.Adjudicator()
	if report := adj.AuditStream(org.Vault().Query(nonrep.VaultQuery{})); !report.Clean() {
		t.Fatalf("%s's vault: %+v", org.Party(), report)
	}
	for _, run := range runs {
		report, err := adj.AuditRunStream(org.Vault().Query(nonrep.VaultQuery{Run: run}), run)
		if err != nil || !report.Complete() || len(report.Faults) != 0 {
			t.Fatalf("%s's vault alone: run %s judged %+v (%v)", org.Party(), run, report, err)
		}
	}
	return count.Digests
}

// TestCallDigestsDerivedInTheVaults: a vault stores no digest it can
// rebuild from the records beside it. After N direct calls each of the two
// vaults holds N receipts whose digests are rebuilt from the response
// origin of their run; after N durable calls the client's vault holds 2N
// records whose digests are rebuilt from their notes — each job's outcome
// and its journaled response — and 2N that borrow their request origin's:
// each job's journal record, whose note is the request the origin covers,
// and its request receipt. Every run still proves complete from either
// vault alone.
func TestCallDigestsDerivedInTheVaults(t *testing.T) {
	t.Parallel()
	const calls = 12
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			domain, err := nonrep.NewDomain()
			if err != nil {
				t.Fatal(err)
			}
			defer domain.Close()
			const clientParty, serverParty = nonrep.Party("urn:org:client"), nonrep.Party("urn:org:server")
			const svc = nonrep.Service("urn:org:server/echo")
			opts := []nonrep.OrgOption{nonrep.WithVault(t.TempDir())}
			if durable {
				opts = append(opts, nonrep.WithDurable())
			}
			client, err := domain.AddOrg(clientParty, opts...)
			if err != nil {
				t.Fatal(err)
			}
			server, err := domain.AddOrg(serverParty, nonrep.WithVault(t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			desc := nonrep.Descriptor{Service: svc, Methods: map[string]nonrep.MethodPolicy{"Echo": {NonRepudiation: true}}}
			if err := server.Deploy(desc, blobEcho{}); err != nil {
				t.Fatal(err)
			}
			server.Serve()
			proxy := client.Proxy(serverParty, svc, nil)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			runs := make([]id.Run, calls)
			for i := range runs {
				param, err := evidence.ValueParam("arg0", []byte(fmt.Sprintf("call %d", i)))
				if err != nil {
					t.Fatal(err)
				}
				var res *nonrep.Result
				if durable {
					job, err := proxy.CallAsync(ctx, "Echo", param)
					if err != nil {
						t.Fatal(err)
					}
					res, err = job.Wait(ctx)
				} else {
					res, err = proxy.Call(ctx, "Echo", param)
				}
				if err != nil || res.Status != evidence.StatusOK {
					t.Fatalf("call %d: %v (%+v)", i, err, res)
				}
				runs[i] = res.Run
			}
			if durable {
				if err := client.Durable().Sync(); err != nil {
					t.Fatal(err)
				}
			}
			// Each call returned after the server took its receipt.
			if n := server.Vault().Len(); n != 4*calls {
				t.Fatalf("the server holds %d records after %d calls, want %d", n, calls, 4*calls)
			}
			clientForms, serverForms := digestForms(t, domain, client, runs), digestForms(t, domain, server, runs)
			switch {
			case serverForms[store.DigestReceipt] != calls || serverForms[store.DigestNote] != 0:
				t.Fatalf("the server's vault derives digests %v after %d calls, want %d receipts", serverForms, calls, calls)
			case !durable && (clientForms[store.DigestReceipt] != calls || clientForms[store.DigestNote] != 0):
				t.Fatalf("the client's vault derives digests %v after %d calls, want %d receipts", clientForms, calls, calls)
			case durable && (clientForms[store.DigestNote] != 2*calls || clientForms[store.DigestLent] != 2*calls):
				t.Fatalf("the durable client's vault derives digests %v after %d calls, want %d from notes and %d lent", clientForms, calls, 2*calls, 2*calls)
			}
		})
	}
}
