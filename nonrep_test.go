package nonrep_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nonrep"
)

const (
	dealer       = nonrep.Party("urn:org:dealer")
	manufacturer = nonrep.Party("urn:org:manufacturer")
	supplierA    = nonrep.Party("urn:org:supplier-a")
	relayTTP     = nonrep.Party("urn:ttp:relay")
	ordersURI    = nonrep.Service("urn:org:manufacturer/orders")
)

// Orders is a demo component.
type Orders struct {
	mu     sync.Mutex
	placed []string
}

// Place records an order and returns a confirmation number.
func (o *Orders) Place(_ context.Context, model string) (string, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.placed = append(o.placed, model)
	return fmt.Sprintf("conf-%d", len(o.placed)), nil
}

func ordersDescriptor() nonrep.Descriptor {
	return nonrep.Descriptor{
		Service: ordersURI,
		Methods: map[string]nonrep.MethodPolicy{
			"Place": {NonRepudiation: true, Protocol: nonrep.ProtocolDirect},
		},
	}
}

func TestDomainEndToEnd(t *testing.T) {
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
	server, err := domain.AddOrg(manufacturer)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Deploy(ordersDescriptor(), &Orders{}); err != nil {
		t.Fatal(err)
	}
	srv := server.Serve()

	proxy := client.Proxy(manufacturer, ordersURI, nil)
	var conf string
	res, err := proxy.CallValue(context.Background(), &conf, "Place", "roadster")
	if err != nil {
		t.Fatal(err)
	}
	if conf != "conf-1" {
		t.Fatalf("confirmation = %q", conf)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.WaitReceipt(ctx, res.Run); err != nil {
		t.Fatal(err)
	}

	// Adjudication from the server's log alone proves the full exchange.
	adj := domain.Adjudicator()
	report, _ := adj.AuditRunStream(server.Vault().Query(nonrep.VaultQuery{}), res.Run)
	if !report.Complete() {
		t.Fatalf("run report incomplete: %+v", report)
	}
	logReport := adj.AuditStream(client.Vault().Query(nonrep.VaultQuery{}))
	if !logReport.Clean() {
		t.Fatalf("client log audit: %+v", logReport)
	}
}

func TestDomainWithVault(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()

	vaultDir := t.TempDir()
	client, err := domain.AddOrg(dealer, nonrep.WithVault(vaultDir, nonrep.VaultSegmentRecords(2)))
	if err != nil {
		t.Fatal(err)
	}
	server, err := domain.AddOrg(manufacturer)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Deploy(ordersDescriptor(), &Orders{}); err != nil {
		t.Fatal(err)
	}
	server.Serve()

	proxy := client.Proxy(manufacturer, ordersURI, nil)
	var runs []nonrep.Run
	for i := 0; i < 3; i++ {
		var conf string
		res, err := proxy.CallValue(context.Background(), &conf, "Place", "roadster")
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res.Run)
	}

	v := client.Vault()
	if v == nil {
		t.Fatal("Org.Vault() = nil for a vault-backed org")
	}
	// Each direct-protocol run leaves two records in the client log (its
	// NRO and the server's NRR/NROResp evidence), so with two-record
	// segments the vault must have sealed at least once.
	if st := v.Stats(); st.Segments == 0 {
		t.Fatalf("no sealed segments after %d runs: %+v", len(runs), st)
	}
	if err := v.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify: %v", err)
	}

	// The indexed query answers run-scoped adjudication without loading
	// the log, and the streaming audit proves the whole log clean.
	adj := domain.Adjudicator()
	byRun, err := v.QueryAll(nonrep.VaultQuery{Run: runs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(byRun) == 0 {
		t.Fatal("vault query found no records for run")
	}
	report, _ := adj.AuditRunStream(nonrep.Records(byRun), runs[0])
	if !report.RequestProven {
		t.Fatalf("run report from vault query: %+v", report)
	}
	stream := adj.AuditStream(v.Query(nonrep.VaultQuery{}))
	if !stream.Clean() {
		t.Fatalf("stream audit: %+v", stream)
	}
	if stream.Records != v.Len() {
		t.Fatalf("stream audited %d records, vault holds %d", stream.Records, v.Len())
	}

	// Evidence survives domain close and reopen of the vault alone.
	if err := domain.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := nonrep.OpenVault(vaultDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != stream.Records {
		t.Fatalf("reopened vault holds %d records, want %d", re.Len(), stream.Records)
	}
	if err := re.DeepVerify(); err != nil {
		t.Fatalf("DeepVerify after reopen: %v", err)
	}
}

// TestOrgWithoutVaultDirRunsOnTemporaryVault: an organisation enrolled
// without WithVault keeps its evidence in a vault of its own, in a
// temporary directory that Domain.Close removes.
func TestOrgWithoutVaultDirRunsOnTemporaryVault(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // not parallel: the temporary vaults land here
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	client, err := domain.AddOrg(dealer)
	if err != nil {
		t.Fatal(err)
	}
	server, err := domain.AddOrg(manufacturer)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Deploy(ordersDescriptor(), &Orders{}); err != nil {
		t.Fatal(err)
	}
	server.Serve()
	var conf string
	if _, err := client.Proxy(manufacturer, ordersURI, nil).CallValue(context.Background(), &conf, "Place", "roadster"); err != nil {
		t.Fatal(err)
	}
	if v := client.Vault(); v == nil || v.Len() == 0 {
		t.Fatalf("client vault = %v, want one holding the call's evidence", v)
	}
	vaults := func() []string {
		dirs, err := filepath.Glob(filepath.Join(tmp, "nonrep-vault-*"))
		if err != nil {
			t.Fatal(err)
		}
		return dirs
	}
	if got := vaults(); len(got) != 2 {
		t.Fatalf("temporary vault directories = %v, want one per organisation", got)
	}
	if err := domain.Close(); err != nil {
		t.Fatal(err)
	}
	if got := vaults(); len(got) != 0 {
		t.Fatalf("temporary vault directories left after Close: %v", got)
	}
}

// TestExportBundleFailsOnUnreadableLog: a sealed segment that no longer
// reads back fails the export, instead of a bundle that silently lacks
// its records.
func TestExportBundleFailsOnUnreadableLog(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	vaultDir := t.TempDir()
	client, err := domain.AddOrg(dealer, nonrep.WithVault(vaultDir, nonrep.VaultSegmentRecords(4)))
	if err != nil {
		t.Fatal(err)
	}
	server, err := domain.AddOrg(manufacturer)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Deploy(ordersDescriptor(), &Orders{}); err != nil {
		t.Fatal(err)
	}
	server.Serve()
	proxy := client.Proxy(manufacturer, ordersURI, nil)
	for i := 0; i < 4; i++ {
		var conf string
		if _, err := proxy.CallValue(context.Background(), &conf, "Place", "roadster"); err != nil {
			t.Fatal(err)
		}
	}
	if err := domain.ExportBundle(t.TempDir()); err != nil {
		t.Fatalf("export before the damage: %v", err)
	}
	seg := filepath.Join(vaultDir, "seg-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := domain.ExportBundle(t.TempDir()); err == nil {
		t.Fatal("ExportBundle succeeded over a damaged sealed segment")
	}
}

func TestDomainOverTCP(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	client, err := domain.AddOrg(dealer)
	if err != nil {
		t.Fatal(err)
	}
	server, err := domain.AddOrg(manufacturer)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(server.Addr(), ":") {
		t.Fatalf("server addr = %q, want TCP address", server.Addr())
	}
	if err := server.Deploy(ordersDescriptor(), &Orders{}); err != nil {
		t.Fatal(err)
	}
	server.Serve()
	res, err := client.Proxy(manufacturer, ordersURI, nil).Call(context.Background(), "Place", "gt")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != nonrep.StatusOK {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestDomainWithTimestamping(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithTimestamping())
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	client, err := domain.AddOrg(dealer)
	if err != nil {
		t.Fatal(err)
	}
	server, err := domain.AddOrg(manufacturer)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Deploy(ordersDescriptor(), &Orders{}); err != nil {
		t.Fatal(err)
	}
	server.Serve()
	res, err := client.Proxy(manufacturer, ordersURI, nil).Call(context.Background(), "Place", "gt")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range res.Evidence {
		if tok.Issuer == dealer && tok.Timestamp == nil {
			t.Fatalf("token %s not timestamped", tok.Kind)
		}
	}
}

func TestDomainInlineTTPRoute(t *testing.T) {
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
	server, err := domain.AddOrg(manufacturer)
	if err != nil {
		t.Fatal(err)
	}
	relay, err := domain.AddOrg(relayTTP)
	if err != nil {
		t.Fatal(err)
	}
	relay.EnableRelay(nil)
	if err := server.Deploy(ordersDescriptor(), &Orders{}); err != nil {
		t.Fatal(err)
	}
	server.Serve()

	res, err := client.Invoke(context.Background(), manufacturer, nonrep.Request{
		Service:   ordersURI,
		Operation: "Place",
		Params:    mustParam(t, "model", "roadster"),
	}, nonrep.Via(relayTTP))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != nonrep.StatusOK {
		t.Fatalf("status = %v (%s)", res.Status, res.Err)
	}
	// The relay audited the exchange.
	if relay.Log().Len() == 0 {
		t.Fatal("relay log empty")
	}
}

func TestSharedObjectThroughFacade(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	a, err := domain.AddOrg(manufacturer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := domain.AddOrg(supplierA)
	if err != nil {
		t.Fatal(err)
	}
	group := []nonrep.Party{manufacturer, supplierA}
	if err := a.Share("spec", []byte(`v0`), group); err != nil {
		t.Fatal(err)
	}
	if err := b.Share("spec", []byte(`v0`), group); err != nil {
		t.Fatal(err)
	}
	b.Sharing().AddValidator("spec", nonrep.ValidatorFunc(
		func(_ context.Context, ch *nonrep.Change) nonrep.Verdict {
			if strings.Contains(string(ch.NewState), "forbidden") {
				return nonrep.Reject("forbidden content")
			}
			return nonrep.Accept()
		}))
	res, err := a.Sharing().Propose(context.Background(), "spec", []byte(`v1`))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreed {
		t.Fatalf("rejected: %+v", res.Rejections)
	}
	res, err = a.Sharing().Propose(context.Background(), "spec", []byte(`forbidden`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Agreed {
		t.Fatal("forbidden update agreed")
	}
	history, err := b.Sharing().History("spec")
	if err != nil {
		t.Fatal(err)
	}
	if err := nonrep.VerifyHistory(history); err != nil {
		t.Fatal(err)
	}
}

func TestCertRolesActivation(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	client, err := domain.AddOrg(dealer, nonrep.WithCertRoles("dealer"))
	if err != nil {
		t.Fatal(err)
	}
	server, err := domain.AddOrg(manufacturer)
	if err != nil {
		t.Fatal(err)
	}
	server.AccessControl().Require(ordersURI, "Place", "dealer")
	if err := server.Deploy(ordersDescriptor(), &Orders{}); err != nil {
		t.Fatal(err)
	}
	server.Serve()
	proxy := client.Proxy(manufacturer, ordersURI, nil)

	// Before credential exchange: received but not executed.
	res, err := proxy.Call(context.Background(), "Place", "gt")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != nonrep.StatusNotExecuted {
		t.Fatalf("status before activation = %v", res.Status)
	}
	// The server activates the client's certificate roles.
	if err := server.ActivatePeerRoles(dealer); err != nil {
		t.Fatal(err)
	}
	res, err = proxy.Call(context.Background(), "Place", "gt")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != nonrep.StatusOK {
		t.Fatalf("status after activation = %v (%s)", res.Status, res.Err)
	}
}

func TestDuplicateOrgRejected(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	if _, err := domain.AddOrg(dealer); err != nil {
		t.Fatal(err)
	}
	if _, err := domain.AddOrg(dealer); err == nil {
		t.Fatal("duplicate AddOrg succeeded")
	}
	if _, err := domain.Org("urn:org:nobody"); err == nil {
		t.Fatal("Org(unknown) succeeded")
	}
}

func mustParam(t *testing.T, name string, v any) []nonrep.Param {
	t.Helper()
	p, err := nonrep.ValueParam(name, v)
	if err != nil {
		t.Fatal(err)
	}
	return []nonrep.Param{p}
}
