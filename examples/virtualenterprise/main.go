// Virtual enterprise: the paper's motivating example (Figure 1).
//
// A specialist car dealer, a car manufacturer and three part suppliers
// collaborate to deliver a specialist car. The composite service combines
// both building blocks:
//
//   - NR-Invocation: the dealer orders from the manufacturer; the
//     manufacturer queries suppliers for parts — every cross-organisation
//     call is evidenced.
//   - NR-Sharing: the car specification is shared information, updated
//     under unanimous validation by the manufacturer and suppliers A and B
//     (the negotiation of Figure 1), with supplier budgets enforced by
//     validators.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"strings"

	"nonrep"
)

// Parties of the virtual enterprise.
const (
	dealer       = nonrep.Party("urn:ve:dealer")
	manufacturer = nonrep.Party("urn:ve:manufacturer")
	supplierA    = nonrep.Party("urn:ve:supplier-a")
	supplierB    = nonrep.Party("urn:ve:supplier-b")
	supplierC    = nonrep.Party("urn:ve:supplier-c")
)

// Spec is the shared car specification (the VE's shared information).
type Spec struct {
	Model string   `json:"model"`
	Parts []string `json:"parts"`
	Cost  int      `json:"cost"`
}

func encode(s Spec) []byte {
	data, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return data
}

func decode(data []byte) Spec {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		panic(err)
	}
	return s
}

// PartsCatalog is a supplier's invocable component.
type PartsCatalog struct {
	supplier string
	prices   map[string]int
}

// Quote returns the supplier's price for a part.
func (p *PartsCatalog) Quote(_ context.Context, part string) (int, error) {
	price, ok := p.prices[part]
	if !ok {
		return 0, fmt.Errorf("%s does not stock %s", p.supplier, part)
	}
	return price, nil
}

// CarOrders is the manufacturer's invocable component.
type CarOrders struct {
	received []string
}

// Order books a car against the currently agreed specification.
func (c *CarOrders) Order(_ context.Context, model string) (string, error) {
	c.received = append(c.received, model)
	return "order accepted for " + model, nil
}

func main() {
	ctx := context.Background()
	domain, err := nonrep.NewDomain()
	if err != nil {
		log.Fatal(err)
	}
	defer domain.Close()

	orgs := make(map[nonrep.Party]*orgHandle)
	for _, p := range []nonrep.Party{dealer, manufacturer, supplierA, supplierB, supplierC} {
		org, err := domain.AddOrg(p)
		if err != nil {
			log.Fatal(err)
		}
		orgs[p] = &orgHandle{org: org}
	}

	// ---- NR-Invocation: suppliers expose part catalogues. ----
	catalogues := map[nonrep.Party]map[string]int{
		supplierA: {"chassis-x1": 12000, "gearbox-g5": 4000},
		supplierB: {"engine-v8": 22000, "gearbox-g5": 4100},
		supplierC: {"interior-lux": 8000},
	}
	for supplier, prices := range catalogues {
		svcURI := nonrep.Service(string(supplier) + "/parts")
		desc := nonrep.Descriptor{
			Service: svcURI,
			Methods: map[string]nonrep.MethodPolicy{
				"Quote": {NonRepudiation: true, Protocols: []string{nonrep.ProtocolDirect}},
			},
		}
		if err := orgs[supplier].org.Deploy(desc, &PartsCatalog{supplier: string(supplier), prices: prices}); err != nil {
			log.Fatal(err)
		}
		orgs[supplier].org.Serve()
	}

	// The manufacturer gathers non-repudiable quotes: no supplier can
	// later disavow its price.
	fmt.Println("== quoting phase (NR-Invocation) ==")
	part := "gearbox-g5"
	best := nonrep.Party("")
	bestPrice := 0
	for _, supplier := range []nonrep.Party{supplierA, supplierB} {
		proxy := orgs[manufacturer].org.Proxy(supplier, nonrep.Service(string(supplier)+"/parts"), nil)
		var price int
		if _, err := proxy.CallValue(ctx, &price, "Quote", part); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s quotes %d for %s\n", supplier, price, part)
		if best == "" || price < bestPrice {
			best, bestPrice = supplier, price
		}
	}
	fmt.Printf("  best quote: %s at %d\n", best, bestPrice)

	// ---- NR-Sharing: the car spec is negotiated by manufacturer and
	// suppliers A and B (Figure 1's shared space). ----
	fmt.Println("\n== specification negotiation (NR-Sharing) ==")
	group := []nonrep.Party{manufacturer, supplierA, supplierB}
	initial := encode(Spec{Model: "roadster"})
	for _, p := range group {
		if err := orgs[p].org.Share("car-spec", initial, group); err != nil {
			log.Fatal(err)
		}
	}
	// Suppliers validate updates against their own policies.
	orgs[supplierA].org.Sharing().AddValidator("car-spec", nonrep.ValidatorFunc(
		func(_ context.Context, ch *nonrep.Change) nonrep.Verdict {
			if decode(ch.NewState).Cost > 50000 {
				return nonrep.Reject("supplier A: cost cap 50000 exceeded")
			}
			return nonrep.Accept()
		}))
	orgs[supplierB].org.Sharing().AddValidator("car-spec", nonrep.ValidatorFunc(
		func(_ context.Context, ch *nonrep.Change) nonrep.Verdict {
			for _, p := range decode(ch.NewState).Parts {
				if strings.HasPrefix(p, "gearbox") && p != "gearbox-g5" {
					return nonrep.Reject("supplier B: only gearbox-g5 integrates with engine-v8")
				}
			}
			return nonrep.Accept()
		}))

	mctl := orgs[manufacturer].org.Sharing()
	// Proposal 1: an over-budget spec — vetoed by supplier A.
	overBudget := encode(Spec{Model: "roadster", Parts: []string{"engine-v8", "gearbox-g5", "interior-lux", "chassis-x1"}, Cost: 61000})
	res, err := mctl.Propose(ctx, "car-spec", overBudget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  proposal 1 agreed=%v rejections=%v\n", res.Agreed, res.Rejections)

	// Proposal 2: a compliant spec — unanimously agreed.
	agreedSpec := encode(Spec{Model: "roadster", Parts: []string{"engine-v8", "gearbox-g5", "chassis-x1"}, Cost: 38000})
	res, err = mctl.Propose(ctx, "car-spec", agreedSpec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  proposal 2 agreed=%v version=%d\n", res.Agreed, res.Version.Number)
	if !res.Agreed {
		log.Fatal("compliant spec rejected")
	}

	// Everyone holds the same agreed state and can prove its history.
	for _, p := range group {
		state, v, err := orgs[p].org.Sharing().Get("car-spec")
		if err != nil {
			log.Fatal(err)
		}
		history, err := orgs[p].org.Sharing().History("car-spec")
		if err != nil {
			log.Fatal(err)
		}
		if err := nonrep.VerifyHistory(history); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s version %d, cost %d, history verified\n", p, v.Number, decode(state).Cost)
	}

	// ---- The dealer places the final order (NR-Invocation). ----
	fmt.Println("\n== ordering phase ==")
	ordersDesc := nonrep.Descriptor{
		Service: nonrep.Service(string(manufacturer) + "/orders"),
		Methods: map[string]nonrep.MethodPolicy{
			"Order": {NonRepudiation: true, Protocols: []string{nonrep.ProtocolDirect}},
		},
	}
	carOrders := &CarOrders{}
	if err := orgs[manufacturer].org.Deploy(ordersDesc, carOrders); err != nil {
		log.Fatal(err)
	}
	orgs[manufacturer].org.Serve()
	proxy := orgs[dealer].org.Proxy(manufacturer, nonrep.Service(string(manufacturer)+"/orders"), nil)
	var confirmation string
	orderRes, err := proxy.CallValue(ctx, &confirmation, "Order", "roadster")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  " + confirmation)

	// ---- Audit: every organisation's log is tamper-evident. ----
	fmt.Println("\n== audit ==")
	adj := domain.Adjudicator()
	for p, h := range orgs {
		report := adj.AuditStream(h.org.Vault().Query(nonrep.VaultQuery{}))
		fmt.Printf("  %-22s %2d evidence records, clean=%v\n", p, report.Records, report.Clean())
		if !report.Clean() {
			log.Fatal("audit failed")
		}
	}
	runReport, err := adj.AuditRunStream(orgs[manufacturer].org.Vault().Query(nonrep.VaultQuery{Run: orderRes.Run}), orderRes.Run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  dealer's order: request proven=%v, response proven=%v\n",
		runReport.RequestProven, runReport.ResponseProven)
}

// orgHandle wraps an enrolled organisation.
type orgHandle struct {
	org *nonrep.Org
}
