// Faulty exchange: fairness under misbehaviour and the role of TTPs.
//
// Three scenes:
//
//  1. The voluntary baseline (Wichert et al., paper section 5): the client
//     receives service but no evidence it can hold against the server.
//  2. The fair protocol with a misbehaving client that withholds its
//     response receipt: the server recovers a TTP-signed substitute
//     receipt, so honest parties are not disadvantaged.
//  3. Offline adjudication of both runs from the logs alone.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"nonrep"
)

const (
	client = nonrep.Party("urn:org:client")
	server = nonrep.Party("urn:org:server")
	ttp    = nonrep.Party("urn:ttp:resolver")
	svcURI = nonrep.Service("urn:org:server/quotes")
)

// QuoteService is the server's component.
type QuoteService struct{}

// Quote prices a request.
func (QuoteService) Quote(_ context.Context, item string) (int, error) {
	return len(item) * 100, nil
}

func main() {
	ctx := context.Background()
	domain, err := nonrep.NewDomain()
	if err != nil {
		log.Fatal(err)
	}
	defer domain.Close()

	cli, err := domain.AddOrg(client)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := domain.AddOrg(server)
	if err != nil {
		log.Fatal(err)
	}
	resolver, err := domain.AddOrg(ttp)
	if err != nil {
		log.Fatal(err)
	}
	resolveService := resolver.EnableResolve()

	desc := nonrep.Descriptor{
		Service: svcURI,
		Methods: map[string]nonrep.MethodPolicy{
			"Quote": {NonRepudiation: true, Protocols: []string{nonrep.ProtocolVoluntary, nonrep.ProtocolFair}},
		},
	}
	if err := srv.Deploy(desc, QuoteService{}); err != nil {
		log.Fatal(err)
	}
	// One server for the voluntary baseline, one for the fair protocol
	// with 50 ms receipt recovery.
	srv.Serve(nonrep.ForProtocol(nonrep.ProtocolVoluntary))
	fairServer := srv.Serve(
		nonrep.ForProtocol(nonrep.ProtocolFair),
		nonrep.WithRecovery(ttp, 50*time.Millisecond),
	)

	// Scene 1: the voluntary baseline.
	fmt.Println("== scene 1: voluntary baseline ==")
	res, err := cli.Invoke(ctx, server, quoteRequest(), nonrep.WithProtocol(nonrep.ProtocolVoluntary))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  client got a result (%s) but holds %d token(s) — only its own NRO.\n",
		res.Status, len(res.Evidence))
	fmt.Println("  if the server denies having answered, the client has nothing.")

	// Scene 2: fair protocol against a receipt-withholding client.
	fmt.Println("\n== scene 2: fair protocol, client withholds its receipt ==")
	badClient := cli.Client(nonrep.WithOfflineTTP(ttp), withWithheldReceipt())
	res2, err := badClient.Invoke(ctx, server, quoteRequest())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  client consumed the response (%s) and never acknowledged it.\n", res2.Status)

	// The server's watchdog resolves through the TTP.
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, resolved, err := fairServer.ReceiptState(res2.Run)
		if err != nil {
			log.Fatal(err)
		}
		if resolved {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("server never recovered a substitute receipt")
		}
		time.Sleep(10 * time.Millisecond)
	}
	decided, resolved, err := resolveService.Decision(res2.Run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  TTP decision recorded: decided=%v resolved=%v\n", decided, resolved)
	fmt.Println("  the server now holds a TTP-signed substitute receipt.")

	// Scene 3: adjudication.
	fmt.Println("\n== scene 3: adjudication from logs alone ==")
	adj := domain.Adjudicator()
	report, err := adj.AuditRunStream(srv.Vault().Query(nonrep.VaultQuery{Run: res2.Run}), res2.Run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  request proven:          %v\n", report.RequestProven)
	fmt.Printf("  response proven:         %v\n", report.ResponseProven)
	fmt.Printf("  response receipt proven: %v (TTP substitute: %v)\n",
		report.ResponseReceiptProven, report.Substituted)
	fmt.Printf("  exchange complete:       %v\n", report.Complete())
	if !report.Complete() || !report.Substituted {
		log.Fatal("fair exchange did not complete through recovery")
	}
	fmt.Println("  honest server made whole despite the client's misbehaviour.")
}

func quoteRequest() nonrep.Request {
	p, err := nonrep.ValueParam("item", "chassis-x1")
	if err != nil {
		panic(err)
	}
	return nonrep.Request{Service: svcURI, Operation: "Quote", Params: []nonrep.Param{p}}
}

// withWithheldReceipt exposes the misbehaviour injection option under a
// local name to keep the example focused.
func withWithheldReceipt() nonrep.ClientOption { return nonrep.WithholdReceipt() }
