// Quickstart: two organisations, one non-repudiable invocation.
//
// A dealer invokes PlaceOrder on a manufacturer through the
// non-repudiation middleware. Both sides end up with a tamper-evident
// evidence log proving the exchange: the dealer cannot deny placing the
// order, and the manufacturer cannot deny receiving it or producing the
// response.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"nonrep"
)

// Orders is the manufacturer's business component (the "EJB" of the
// paper's prototype). The middleware never requires components to know
// about evidence or protocols.
type Orders struct {
	next int
}

// Place books an order for a car model and returns a confirmation.
func (o *Orders) Place(_ context.Context, model string, qty int) (string, error) {
	o.next++
	return fmt.Sprintf("confirmation #%d: %d × %s", o.next, qty, model), nil
}

func main() {
	// A trust domain: shared CA, directory and transport.
	domain, err := nonrep.NewDomain()
	if err != nil {
		log.Fatal(err)
	}
	defer domain.Close()

	dealer, err := domain.AddOrg("urn:org:dealer")
	if err != nil {
		log.Fatal(err)
	}
	manufacturer, err := domain.AddOrg("urn:org:manufacturer")
	if err != nil {
		log.Fatal(err)
	}

	// The manufacturer deploys its component with a deployment
	// descriptor declaring that Place requires non-repudiation.
	desc := nonrep.Descriptor{
		Service: "urn:org:manufacturer/orders",
		Methods: map[string]nonrep.MethodPolicy{
			"Place": {NonRepudiation: true, Protocol: nonrep.ProtocolDirect},
		},
	}
	if err := manufacturer.Deploy(desc, &Orders{}); err != nil {
		log.Fatal(err)
	}
	srv := manufacturer.Serve()

	// The dealer calls through a dynamic proxy; the NR interceptor runs
	// first on the outgoing path, so evidence wraps the exact request.
	proxy := dealer.Proxy("urn:org:manufacturer", "urn:org:manufacturer/orders", nil)
	var confirmation string
	res, err := proxy.CallValue(context.Background(), &confirmation, "Place", "roadster", 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("response:", confirmation)
	fmt.Println("status:  ", res.Status)

	// Wait for the dealer's response receipt to land at the server.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.WaitReceipt(ctx, res.Run); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nevidence held by the dealer:")
	for _, tok := range res.Evidence {
		fmt.Printf("  %-10s issued by %-22s digest %s…\n", tok.Kind, tok.Issuer, tok.Digest.String()[:16])
	}

	// Offline adjudication: the manufacturer's log alone proves the
	// complete exchange.
	report, err := domain.Adjudicator().AuditRunStream(manufacturer.Vault().Query(nonrep.VaultQuery{Run: res.Run}), res.Run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nadjudicator's reconstruction from the manufacturer's log:")
	fmt.Printf("  request by %s proven:   %v\n", report.Client, report.RequestProven)
	fmt.Printf("  receipt by %s proven:   %v\n", report.Server, report.ReceiptProven)
	fmt.Printf("  response by %s proven:  %v\n", report.Server, report.ResponseProven)
	fmt.Printf("  response receipt proven: %v\n", report.ResponseReceiptProven)
	fmt.Printf("  exchange complete:       %v\n", report.Complete())
	if !report.Complete() {
		log.Fatal("exchange incomplete")
	}
}
