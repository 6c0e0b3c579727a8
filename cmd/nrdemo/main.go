// Command nrdemo runs the paper's virtual-enterprise scenario (Figure 1)
// end to end over real TCP sockets: non-repudiable quoting, shared
// specification negotiation with validators, a fair exchange recovered
// through a TTP, and finally exports a portable evidence bundle that
// cmd/nrverify can audit offline.
//
// Usage:
//
//	nrdemo [-out DIR] [-inproc] [-telemetry] [-durable]
//
// With -durable the demo adds a crash-resilience scene: the dealer's
// treasury submits a settlement as a durable job to a logistics partner
// that dials out through a worker gateway, the partner is killed
// mid-execution, and the job resumes — to exactly one evidence set —
// once the partner re-enrols.
//
// With -telemetry the domain runs its interaction telemetry plane and the
// demo finishes by printing the trace tree of one quoting invocation —
// client invoke, transport legs, server handling, execution, evidence
// issuance and vault appends, all sharing the protocol run id — plus a
// digest of the per-tenant metrics the scenario moved.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"time"

	"nonrep"
)

const (
	dealer       = nonrep.Party("urn:ve:dealer")
	manufacturer = nonrep.Party("urn:ve:manufacturer")
	supplierA    = nonrep.Party("urn:ve:supplier-a")
	supplierB    = nonrep.Party("urn:ve:supplier-b")
	resolverTTP  = nonrep.Party("urn:ttp:resolver")
)

// Catalog is a supplier component.
type Catalog struct {
	prices map[string]int
}

// Quote prices a part.
func (c *Catalog) Quote(_ context.Context, part string) (int, error) {
	price, ok := c.prices[part]
	if !ok {
		return 0, fmt.Errorf("part %s not stocked", part)
	}
	return price, nil
}

// Spec is the shared car specification.
type Spec struct {
	Model string   `json:"model"`
	Parts []string `json:"parts"`
	Cost  int      `json:"cost"`
}

func main() {
	out := flag.String("out", "", "directory to export the evidence bundle to")
	inproc := flag.Bool("inproc", false, "use the in-process transport instead of TCP")
	telemetry := flag.Bool("telemetry", false, "enable the telemetry plane and print one invocation's trace tree")
	durable := flag.Bool("durable", false, "run the durable-invocation scene: a worker partner is killed mid-call and the job resumes")
	flag.Parse()

	ctx := context.Background()
	var opts []nonrep.DomainOption
	if !*inproc {
		opts = append(opts, nonrep.WithTCP())
	}
	if *telemetry {
		opts = append(opts, nonrep.WithTelemetry())
	}
	domain, err := nonrep.NewDomain(opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer domain.Close()

	orgs := map[nonrep.Party]*nonrep.Org{}
	for _, p := range []nonrep.Party{dealer, manufacturer, supplierA, supplierB, resolverTTP} {
		org, err := domain.AddOrg(p)
		if err != nil {
			log.Fatal(err)
		}
		orgs[p] = org
		fmt.Printf("started %-22s at %s\n", p, org.Addr())
	}
	resolver := orgs[resolverTTP].EnableResolve()
	_ = resolver

	// Suppliers serve non-repudiable part catalogues.
	for supplier, prices := range map[nonrep.Party]map[string]int{
		supplierA: {"gearbox-g5": 4000, "chassis-x1": 12000},
		supplierB: {"gearbox-g5": 4100, "engine-v8": 22000},
	} {
		desc := nonrep.Descriptor{
			Service: nonrep.Service(string(supplier) + "/parts"),
			Methods: map[string]nonrep.MethodPolicy{
				"Quote": {NonRepudiation: true, Protocols: []string{nonrep.ProtocolDirect, nonrep.ProtocolFair}},
			},
		}
		if err := orgs[supplier].Deploy(desc, &Catalog{prices: prices}); err != nil {
			log.Fatal(err)
		}
		orgs[supplier].Serve()
		orgs[supplier].Serve(
			nonrep.ForProtocol(nonrep.ProtocolFair),
			nonrep.WithRecovery(resolverTTP, 100*time.Millisecond),
		)
	}

	// Scene 1: the manufacturer gathers binding quotes over TCP.
	fmt.Println("\n== scene 1: non-repudiable quoting ==")
	var tracedRun nonrep.Run
	for _, supplier := range []nonrep.Party{supplierA, supplierB} {
		proxy := orgs[manufacturer].Proxy(supplier, nonrep.Service(string(supplier)+"/parts"), nil)
		var price int
		res, err := proxy.CallValue(ctx, &price, "Quote", "gearbox-g5")
		if err != nil {
			log.Fatal(err)
		}
		tracedRun = res.Run
		fmt.Printf("  %s quotes gearbox-g5 at %d (evidence logged)\n", supplier, price)
	}

	// Scene 2: shared specification with supplier validation.
	fmt.Println("\n== scene 2: shared specification ==")
	group := []nonrep.Party{manufacturer, supplierA, supplierB}
	initial, _ := json.Marshal(Spec{Model: "roadster"})
	for _, p := range group {
		if err := orgs[p].Share("car-spec", initial, group); err != nil {
			log.Fatal(err)
		}
	}
	orgs[supplierA].Sharing().AddValidator("car-spec", nonrep.ValidatorFunc(
		func(_ context.Context, ch *nonrep.Change) nonrep.Verdict {
			var s Spec
			if json.Unmarshal(ch.NewState, &s) != nil || s.Cost > 50000 {
				return nonrep.Reject("cost cap exceeded")
			}
			return nonrep.Accept()
		}))
	rich, _ := json.Marshal(Spec{Model: "roadster", Parts: []string{"engine-v8", "gold-trim"}, Cost: 90000})
	res, err := orgs[manufacturer].Sharing().Propose(ctx, "car-spec", rich)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  over-budget proposal agreed=%v (%v)\n", res.Agreed, res.Rejections)
	sane, _ := json.Marshal(Spec{Model: "roadster", Parts: []string{"engine-v8", "gearbox-g5"}, Cost: 26100})
	res, err = orgs[manufacturer].Sharing().Propose(ctx, "car-spec", sane)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  compliant proposal agreed=%v version=%d\n", res.Agreed, res.Version.Number)

	// Scene 3: a misbehaving client, recovered through the TTP.
	fmt.Println("\n== scene 3: fair exchange with recovery ==")
	p, _ := nonrep.ValueParam("part", "chassis-x1")
	res3, err := orgs[manufacturer].Invoke(ctx, supplierA, nonrep.Request{
		Service:   nonrep.Service(string(supplierA) + "/parts"),
		Operation: "Quote",
		Params:    []nonrep.Param{p},
	}, nonrep.WithOfflineTTP(resolverTTP), nonrep.WithholdReceipt())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  manufacturer consumed supplier A's answer (%s) and withheld its receipt\n", res3.Status)
	time.Sleep(300 * time.Millisecond) // let the supplier's receipt watch resolve
	report, err := domain.Adjudicator().AuditRunStream(orgs[supplierA].Vault().Query(nonrep.VaultQuery{Run: res3.Run}), res3.Run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  supplier A's evidence: complete=%v via TTP substitute=%v\n",
		report.Complete(), report.Substituted)

	// Scene 4 (optional): a durable job survives its worker being killed.
	if *durable {
		fmt.Println("\n== scene 4: durable invocation across a worker crash ==")
		if err := durableScene(ctx, domain); err != nil {
			log.Fatal(err)
		}
	}

	// Audit + export.
	fmt.Println("\n== audit ==")
	adj := domain.Adjudicator()
	for party, org := range orgs {
		rep := adj.AuditStream(org.Vault().Query(nonrep.VaultQuery{}))
		fmt.Printf("  %-22s %2d records, clean=%v\n", party, rep.Records, rep.Clean())
		if !rep.Clean() {
			os.Exit(1)
		}
	}
	if *out != "" {
		if err := domain.ExportBundle(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nevidence bundle exported to %s (audit it with: nrverify -bundle %s)\n", *out, *out)
	}

	if *telemetry {
		fmt.Println("\n== telemetry ==")
		fmt.Printf("  trace of quoting run %s (trace id = run id):\n", tracedRun)
		for _, node := range nonrep.BuildTraceTree(domain.Telemetry().Tracer().ByTrace(string(tracedRun))) {
			printTrace(node, "    ")
		}
		snap := domain.Telemetry().Registry().Snapshot()
		totals := snap.CounterTotals()
		names := make([]string, 0, len(totals))
		for name := range totals {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("  counters (cross-tenant totals):")
		for _, name := range names {
			fmt.Printf("    %-40s %d\n", name, totals[name])
		}
	}
}

// durableScene journals a settlement call in the treasury's vault,
// kills the serving logistics partner mid-execution behind the worker
// gateway, re-enrols it, and shows the job completing with exactly one
// evidence set for the run.
func durableScene(ctx context.Context, domain *nonrep.Domain) error {
	const (
		treasury  = nonrep.Party("urn:ve:treasury")
		logistics = nonrep.Party("urn:ve:logistics")
	)
	vaultDir, err := os.MkdirTemp("", "nrdemo-durable-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(vaultDir)

	gateway, err := nonrep.NewHost(domain)
	if err != nil {
		return err
	}
	client, err := domain.AddOrg(treasury,
		nonrep.WithVault(vaultDir),
		nonrep.WithDurableRetry(nonrep.JobRetryPolicy{
			MaxAttempts:    20,
			Backoff:        50 * time.Millisecond,
			AttemptTimeout: 2 * time.Second,
		}))
	if err != nil {
		return err
	}

	// First incarnation: enters the call and hangs until it is killed.
	entered := make(chan struct{})
	var once sync.Once
	worker, err := domain.AddWorkerOrg(gateway, logistics)
	if err != nil {
		return err
	}
	worker.ServeExecutor(nonrep.ExecutorFunc(func(c context.Context, _ *nonrep.RequestSnapshot) ([]nonrep.Param, error) {
		once.Do(func() { close(entered) })
		<-c.Done()
		return nil, c.Err()
	}))

	proxy := client.Proxy(logistics, nonrep.Service(string(logistics)+"/shipping"), nil)
	job, err := proxy.CallAsync(ctx, "Settle", "invoice-2004")
	if err != nil {
		return err
	}
	fmt.Printf("  treasury journaled job %s in its vault\n", job.(*nonrep.Job).ID())
	<-entered
	if err := worker.Close(); err != nil {
		return err
	}
	fmt.Println("  logistics partner killed mid-execution; its connection closes and its in-flight work falls back to the gateway")

	worker, err = domain.AddWorkerOrg(gateway, logistics)
	if err != nil {
		return err
	}
	worker.ServeExecutor(nonrep.ExecutorFunc(func(_ context.Context, req *nonrep.RequestSnapshot) ([]nonrep.Param, error) {
		p, err := nonrep.ValueParam("settled", req.Operation)
		return []nonrep.Param{p}, err
	}))
	fmt.Println("  logistics partner re-enrolled through the worker gateway")

	res, err := job.Wait(ctx)
	if err != nil {
		return err
	}
	report, err := domain.Adjudicator().AuditRunStream(client.Vault().Query(nonrep.VaultQuery{Run: res.Run}), res.Run)
	if err != nil {
		return err
	}
	fmt.Printf("  job resumed from the journal: status=%s attempts=%d; run audit complete=%v faults=%d\n",
		res.Status, job.(*nonrep.Job).Attempts(), report.Complete(), len(report.Faults))
	return client.Close()
}

// printTrace renders one trace node and its children as an indented tree.
func printTrace(n *nonrep.TraceNode, indent string) {
	tenant := n.Tenant
	if tenant == "" {
		tenant = "-"
	}
	fmt.Printf("%s%-18s %-22s %.3fms\n", indent, n.Name, tenant, float64(n.DurationNs)/1e6)
	for _, c := range n.Children {
		printTrace(c, indent+"  ")
	}
}
