package nonrep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nonrep"
	"nonrep/internal/obs"
)

// fetchJSON GETs a URL from the introspection listener and decodes the
// response into out.
func fetchJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// spanNames flattens a trace forest into the set of span names it holds.
func spanNames(nodes []*nonrep.TraceNode, into map[string]int) {
	for _, n := range nodes {
		into[n.Name]++
		spanNames(n.Children, into)
	}
}

// assertRunTrace fetches one run's trace from /tracez and asserts it is a
// single connected tree rooted at client.invoke whose spans — client,
// transport, server, evidence and vault — all share the run id as trace
// id.
func assertRunTrace(t *testing.T, base string, run nonrep.Run, wantNames ...string) {
	t.Helper()
	var spans []nonrep.SpanRecord
	fetchJSON(t, base+"/tracez?trace="+string(run), &spans)
	if len(spans) == 0 {
		t.Fatalf("no spans recorded for run %s", run)
	}
	for _, sp := range spans {
		if sp.TraceID != string(run) {
			t.Fatalf("span %s has trace id %q, want run id %q", sp.Name, sp.TraceID, run)
		}
	}
	tree := nonrep.BuildTraceTree(spans)
	if len(tree) != 1 {
		t.Fatalf("trace for run %s split into %d roots, want one connected tree", run, len(tree))
	}
	if tree[0].Name != "client.invoke" {
		t.Fatalf("trace root is %q, want client.invoke", tree[0].Name)
	}
	names := make(map[string]int)
	spanNames(tree, names)
	for _, want := range wantNames {
		if names[want] == 0 {
			t.Fatalf("trace for run %s missing span %q (have %v)", run, want, names)
		}
	}
}

// TestTelemetryTraceTreeOverTCP is the telemetry acceptance test: one
// Proxy.Call and one Proxy.CallStream over real TCP, with telemetry
// enabled, each yield a single connected trace tree — client invoke,
// transport, server handling, execution, evidence issuance and vault
// appends sharing the protocol run id as trace id — retrievable from the
// introspection listener's /tracez endpoint.
func TestTelemetryTraceTreeOverTCP(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithTCP(), nonrep.WithTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()

	client, err := domain.AddOrg("urn:org:caller", nonrep.WithVault(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	server, err := domain.AddOrg("urn:org:archive", nonrep.WithVault(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	desc := nonrep.Descriptor{
		Service: "urn:org:archive/docs",
		Methods: map[string]nonrep.MethodPolicy{
			"Stamp": {NonRepudiation: true, Protocols: []string{nonrep.ProtocolDirect}},
		},
	}
	if err := server.Deploy(desc, transformComponent{}); err != nil {
		t.Fatal(err)
	}
	countDesc := nonrep.Descriptor{
		Service: "urn:org:archive/count",
		Methods: map[string]nonrep.MethodPolicy{
			"Bump": {NonRepudiation: true, Protocols: []string{nonrep.ProtocolDirect}},
		},
	}
	if err := server.Deploy(countDesc, counterComponent{}); err != nil {
		t.Fatal(err)
	}
	srv := server.Serve()
	defer srv.Close()

	obsSrv, err := domain.Telemetry().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer obsSrv.Close()
	base := "http://" + obsSrv.Addr()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Plain call: one invocation, one connected trace tree.
	plain := client.Proxy("urn:org:archive", "urn:org:archive/count", nil)
	var out int
	plainRes, err := plain.CallValue(ctx, &out, "Bump", 41)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitReceipt(ctx, plainRes.Run); err != nil {
		t.Fatal(err)
	}
	assertRunTrace(t, base, plainRes.Run,
		"client.invoke", "transport.request", "server.handle",
		"server.execute", "evidence.issue", "vault.append")
	// The trace shows the run's four durability waits and how many
	// records shared each: client NRO, server reply group, client reply
	// group with its receipt, server receipt.
	var plainSpans []nonrep.SpanRecord
	fetchJSON(t, base+"/tracez?trace="+string(plainRes.Run), &plainSpans)
	var widths []string
	for _, sp := range plainSpans {
		if sp.Name == "vault.append" {
			widths = append(widths, sp.Tenant+":"+sp.Attrs["records"])
		}
	}
	sort.Strings(widths)
	if want := "urn:org:archive:1 urn:org:archive:3 urn:org:caller:1 urn:org:caller:3"; strings.Join(widths, " ") != want {
		t.Fatalf("vault.append spans of the run = %v, want %s", widths, want)
	}

	// Streamed call: the chunk legs join the same tree.
	proxy := client.Proxy("urn:org:archive", "urn:org:archive/docs", nil)
	res, err := proxy.CallStream(ctx, "Stamp", nonrep.StreamParam("doc", bytes.NewReader([]byte("tiny"))))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != nonrep.StatusOK {
		t.Fatalf("status %v: %s", res.Status, res.Err)
	}
	if stream := res.Stream("out"); stream != nil {
		if _, err := io.ReadAll(stream); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.WaitReceipt(ctx, res.Run); err != nil {
		t.Fatal(err)
	}
	assertRunTrace(t, base, res.Run,
		"client.invoke", "transport.request", "server.handle",
		"server.execute", "evidence.issue", "vault.append")

	// /metricsz exposes the instruments the run just moved, in both
	// exposition formats.
	var snap nonrep.MetricsSnapshot
	fetchJSON(t, base+"/metricsz?format=json", &snap)
	if got := snap.CounterTotal(obs.MTokensIssuedTotal); got < 4 {
		t.Fatalf("tokens issued = %d, want >= 4", got)
	}
	if snap.Counter(obs.MTokensIssuedTotal, "urn:org:caller") == 0 {
		t.Fatal("no tokens attributed to the calling tenant")
	}
	if snap.HistogramCount(obs.MVaultCommitNs) == 0 {
		t.Fatal("no vault commits observed")
	}
	// Every commit fsyncs once, and the grouped protocol steps make the
	// mean commit wider than one record — visible from /metricsz alone.
	commits, fsyncs := snap.HistogramCount(obs.MVaultCommitBatch), snap.HistogramCount(obs.MVaultFsyncNs)
	if fsyncs == 0 || fsyncs != commits {
		t.Fatalf("%d fsyncs observed over %d commits", fsyncs, commits)
	}
	records := snap.CounterTotal(obs.MVaultRecordsTotal)
	if records < 2*commits-2 {
		t.Fatalf("%d records in %d commits: grouped steps are not committing together", records, commits)
	}
	// What a record costs on disk, from /metricsz alone: bytes written
	// over records written. Nothing sealed yet, so this is frames only —
	// hash-less, vocabulary notes coded, two of each step's three sharing
	// with the first — plus one 4-byte header a vault.
	if perRecord := float64(snap.CounterTotal(obs.MVaultBytesTotal)) / float64(records); perRecord < 100 || perRecord > 185 {
		t.Fatalf("%.1f segment bytes per record, want about 165 (half the frames followers; a version-3 vault reads ~198)", perRecord)
	}
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), obs.MTokensIssuedTotal+`{tenant="urn:org:caller"}`) {
		t.Fatalf("exposition text missing tenant-labelled counter:\n%s", text)
	}

	// /healthz surfaces the vaults' seal-chain state.
	var health struct {
		Status string         `json:"status"`
		Checks map[string]any `json:"checks"`
	}
	fetchJSON(t, base+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("health status %q", health.Status)
	}
	if _, ok := health.Checks["vault:urn:org:archive"]; !ok {
		t.Fatalf("healthz missing vault check, have %v", health.Checks)
	}
}

// TestTelemetryTokensPerSignature reads tokens per signature from the
// metrics alone: per direct call the server issues its receipt and its
// response origin under one signature, and the client signs its request
// origin and its response receipt at two protocol steps.
func TestTelemetryTokensPerSignature(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	client, err := domain.AddOrg("urn:org:caller")
	if err != nil {
		t.Fatal(err)
	}
	server, err := domain.AddOrg("urn:org:counter")
	if err != nil {
		t.Fatal(err)
	}
	desc := nonrep.Descriptor{
		Service: "urn:org:counter/count",
		Methods: map[string]nonrep.MethodPolicy{"Bump": {NonRepudiation: true}},
	}
	if err := server.Deploy(desc, counterComponent{}); err != nil {
		t.Fatal(err)
	}
	srv := server.Serve()
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	proxy := client.Proxy("urn:org:counter", "urn:org:counter/count", nil)
	const calls = 5
	for i := 0; i < calls; i++ {
		var out int
		res, err := proxy.CallValue(ctx, &out, "Bump", i)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.WaitReceipt(ctx, res.Run); err != nil {
			t.Fatal(err)
		}
	}
	snap := domain.Telemetry().Registry().Snapshot()
	for _, want := range []struct {
		tenant             string
		tokens, signatures int64
	}{{"urn:org:counter", 2 * calls, calls}, {"urn:org:caller", 2 * calls, 2 * calls}} {
		tokens, signatures := snap.Counter(obs.MTokensIssuedTotal, want.tenant), snap.Counter(obs.MSignaturesTotal, want.tenant)
		if tokens != want.tokens || signatures != want.signatures {
			t.Errorf("%s: %d tokens issued under %d signatures after %d calls, want %d under %d",
				want.tenant, tokens, signatures, calls, want.tokens, want.signatures)
		}
	}
}

// counterComponent is a trivial hosted demo component.
type counterComponent struct{}

func (counterComponent) Bump(_ context.Context, n int) (int, error) { return n + 1, nil }

// TestHostedTelemetryPerTenantAttribution runs three hosted tenants over
// one shared endpoint and asserts the telemetry plane attributes envelope, token and vault instruments to the
// correct tenant. Run under -race in CI, it also exercises concurrent
// instrument updates across tenants.
func TestHostedTelemetryPerTenantAttribution(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	host, err := nonrep.NewHost(domain)
	if err != nil {
		t.Fatal(err)
	}

	const (
		tenantSrv = nonrep.Party("urn:org:hosted-server")
		tenantA   = nonrep.Party("urn:org:hosted-a")
		tenantB   = nonrep.Party("urn:org:hosted-b")
	)
	server, err := host.AddOrg(tenantSrv, nonrep.WithVault(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	orgA, err := host.AddOrg(tenantA, nonrep.WithVault(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	orgB, err := host.AddOrg(tenantB, nonrep.WithVault(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	desc := nonrep.Descriptor{
		Service: "urn:org:hosted-server/count",
		Methods: map[string]nonrep.MethodPolicy{
			"Bump": {NonRepudiation: true, Protocols: []string{nonrep.ProtocolDirect}},
		},
	}
	if err := server.Deploy(desc, counterComponent{}); err != nil {
		t.Fatal(err)
	}
	srv := server.Serve()
	defer srv.Close()

	// Concurrent runs from both client tenants, so all tenants update
	// instruments at once.
	const runsPerClient = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*runsPerClient)
	for _, org := range []*nonrep.Org{orgA, orgB} {
		proxy := org.Proxy(tenantSrv, "urn:org:hosted-server/count", nil)
		for i := 0; i < runsPerClient; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var out int
				if _, err := proxy.CallValue(context.Background(), &out, "Bump", i); err != nil {
					errs <- fmt.Errorf("bump %d: %w", i, err)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := domain.Telemetry().Registry().Snapshot()
	for _, tenant := range []nonrep.Party{tenantSrv, tenantA, tenantB} {
		if got := snap.Counter(obs.MTokensIssuedTotal, string(tenant)); got == 0 {
			t.Errorf("tenant %s: no issued tokens attributed", tenant)
		}
		if got := snap.Counter(obs.MVaultRecordsTotal, string(tenant)); got == 0 {
			t.Errorf("tenant %s: no vault records attributed", tenant)
		}
	}
	// Clients verify the server's tokens; the server verifies both
	// clients' — verification latency lands on the verifying tenant.
	for _, tenant := range []nonrep.Party{tenantSrv, tenantA, tenantB} {
		if got := snap.Counter(obs.MTokensVerifiedTotal, string(tenant)); got == 0 {
			t.Errorf("tenant %s: no verified tokens attributed", tenant)
		}
	}
	// Inbound protocol envelopes land on the receiving tenant's counters:
	// the server receives every request.
	var serverEnvelopes int64
	for _, p := range snap.Counters {
		if strings.HasPrefix(p.Name, "nonrep_envelopes_") && p.Tenant == string(tenantSrv) {
			serverEnvelopes += p.Value
		}
	}
	if serverEnvelopes < 2*runsPerClient {
		t.Errorf("server tenant envelope count = %d, want >= %d", serverEnvelopes, 2*runsPerClient)
	}
}

// TestReplicationTelemetryStatus drives replication under a quorum
// policy with telemetry on and asserts Durability, the
// nonrep_replication_* instruments and the single health key report
// shipping progress.
func TestReplicationTelemetryStatus(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()

	if _, err := domain.AddOrg("urn:org:backup", nonrep.WithReplicaStore(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	primary, err := domain.AddOrg("urn:org:primary",
		nonrep.WithVault(t.TempDir(), nonrep.VaultSegmentRecords(4)),
		nonrep.WithQuorum(1, "urn:org:backup"))
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Deploy(ordersDescriptor2(), &Orders{}); err != nil {
		t.Fatal(err)
	}
	srv := primary.Serve()
	defer srv.Close()

	caller, err := domain.AddOrg("urn:org:caller-rep")
	if err != nil {
		t.Fatal(err)
	}
	proxy := caller.Proxy("urn:org:primary", "urn:org:primary/orders2", nil)
	const calls = 12
	for i := 0; i < calls; i++ {
		if _, err := proxy.Call(context.Background(), "Place", fmt.Sprintf("m-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Each call returned after the primary took its receipt, so it holds
	// four records a call before the Flush (a receipt committed after a
	// Flush is TestFlushPrecedesLateReceipt's case).
	if n := primary.Vault().Len(); n != 4*calls {
		t.Fatalf("the primary holds %d records after %d calls, want %d", n, calls, 4*calls)
	}
	if err := primary.Georep().Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	st := primary.Durability()
	if st.Mode != "sync" || st.Quorum != 1 || len(st.Targets) != 1 {
		t.Fatalf("durability = %+v, want sync 1-of-1", st)
	}
	if tgt := st.Targets[0]; tgt.LastError != "" || tgt.AckedSeq != st.LocalSeq {
		t.Fatalf("target %+v trails local seq %d after Flush", tgt, st.LocalSeq)
	}
	if st.QuorumSeq != st.LocalSeq {
		t.Fatalf("quorum seq = %d, local seq = %d after Flush", st.QuorumSeq, st.LocalSeq)
	}

	snap := domain.Telemetry().Registry().Snapshot()
	sealed := int64(len(primary.Vault().Manifest()))
	// At least: a Flush racing the pump may deliver a segment twice (the
	// replica acknowledges the duplicate idempotently).
	if got := snap.Counter(obs.MReplShippedTotal, "urn:org:primary"); sealed == 0 || got < sealed {
		t.Fatalf("shipped segments = %d, want at least the %d sealed", got, sealed)
	}
	if got := snap.Counter(obs.MReplErrorsTotal, "urn:org:primary"); got != 0 {
		t.Fatalf("replication errors = %d, want 0", got)
	}
	for _, name := range []string{obs.MReplLagSegments, obs.MReplBacklogSegments} {
		if got := snap.Gauge(name, "urn:org:primary"); got != 0 {
			t.Fatalf("%s = %d after Flush, want 0", name, got)
		}
	}
	health := domain.Telemetry().Health()
	var replKeys []string
	for key := range health {
		if strings.Contains(key, "urn:org:primary") && !strings.HasPrefix(key, "vault:") {
			replKeys = append(replKeys, key)
		}
	}
	if len(replKeys) != 1 || replKeys[0] != "replication:urn:org:primary" {
		t.Fatalf("replication health keys = %v, want exactly replication:urn:org:primary (have %v)", replKeys, health)
	}
}

// ordersDescriptor2 deploys the Orders demo component under the primary
// organisation's namespace.
func ordersDescriptor2() nonrep.Descriptor {
	return nonrep.Descriptor{
		Service: "urn:org:primary/orders2",
		Methods: map[string]nonrep.MethodPolicy{
			"Place": {NonRepudiation: true, Protocols: []string{nonrep.ProtocolDirect}},
		},
	}
}

// TestSubscriptionTelemetry: a publisher counts its subscription plane
// where it pushes. After a live subscription delivers every record of a
// few calls and closes, /metricsz shows each record and seal pushed once,
// no subscriber left, no eviction, and one lag sample per record push.
func TestSubscriptionTelemetry(t *testing.T) {
	t.Parallel()
	domain, err := nonrep.NewDomain(nonrep.WithTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	defer domain.Close()
	const pub = "urn:org:sub-metrics"
	publisher, err := domain.AddOrg(pub, nonrep.WithVault(t.TempDir(), nonrep.VaultSegmentRecords(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := publisher.Deploy(ordersDescriptor(), &Orders{}); err != nil {
		t.Fatal(err)
	}
	srv := publisher.Serve()
	defer srv.Close()
	auditor, err := domain.AddOrg("urn:org:sub-metrics-auditor")
	if err != nil {
		t.Fatal(err)
	}
	caller, err := domain.AddOrg("urn:org:sub-metrics-caller")
	if err != nil {
		t.Fatal(err)
	}
	obsSrv, err := domain.Telemetry().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer obsSrv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	feed, err := auditor.Subscribe(ctx, pub, nonrep.WatchConfig{Seals: true})
	if err != nil {
		t.Fatal(err)
	}
	const calls = 5
	proxy := caller.Proxy(pub, ordersURI, nil)
	for i := 0; i < calls; i++ {
		if _, err := proxy.Call(ctx, "Place", fmt.Sprintf("m-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every call leaves four records at the publisher, the subscription
	// one more (its sub-open token); the receipts land after the calls.
	const records = 4*calls + 1
	var pushes, seals int64
	for seq := uint64(0); seq < records; {
		select {
		case ev, ok := <-feed.Events():
			if !ok {
				t.Fatalf("feed ended at record %d: %v", seq, feed.Err())
			}
			if ev.Seal != nil {
				seals++
				continue
			}
			pushes++
			seq = ev.Records[len(ev.Records)-1].Seq
		case <-ctx.Done():
			t.Fatalf("feed stopped at record %d of %d", seq, records)
		}
	}
	if head, _ := publisher.Vault().LastPosition(); head != records {
		t.Fatalf("publisher holds %d records, want %d", head, records)
	}
	feed.Close()
	for publisher.Subscribers() != 0 {
		if ctx.Err() != nil {
			t.Fatal("the publisher still serves the closed subscription")
		}
		time.Sleep(time.Millisecond)
	}

	var snap obs.Snapshot
	fetchJSON(t, "http://"+obsSrv.Addr()+"/metricsz?format=json", &snap)
	for name, want := range map[string]int64{
		obs.MSubPushedRecords: records,
		obs.MSubPushedSeals:   seals,
		obs.MSubEvictedTotal:  0,
	} {
		if got := snap.Counter(name, pub); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if seals == 0 || seals != int64(len(publisher.Vault().Manifest())) {
		t.Errorf("the feed carried %d seals of the %d made", seals, len(publisher.Vault().Manifest()))
	}
	if got := snap.Gauge(obs.MSubSubscribers, pub); got != 0 {
		t.Errorf("%s = %d after the subscription closed, want 0", obs.MSubSubscribers, got)
	}
	var lag *obs.HistogramPoint
	for i, h := range snap.Histograms {
		if h.Name == obs.MSubLagRecords && h.Tenant == pub {
			lag = &snap.Histograms[i]
		}
	}
	if lag == nil || lag.Count != pushes || lag.Sum < 0 || lag.Sum > pushes*records {
		t.Errorf("%s = %+v, want %d samples of the publisher's lag", obs.MSubLagRecords, lag, pushes)
	}
}
