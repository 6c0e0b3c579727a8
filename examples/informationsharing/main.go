// Information sharing: the Figure 5 flow in full.
//
// Three organisations share a design document. The example walks through
// an agreed update, a vetoed update, roll-up of several local edits into
// one coordination event (section 4.3), admission of a fourth
// organisation with verified replica transfer, and a member's departure —
// all non-repudiably evidenced.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"nonrep"
)

const (
	orgA = nonrep.Party("urn:org:a")
	orgB = nonrep.Party("urn:org:b")
	orgC = nonrep.Party("urn:org:c")
	orgD = nonrep.Party("urn:org:d")
)

const object = "design-doc"

func main() {
	ctx := context.Background()
	domain, err := nonrep.NewDomain()
	if err != nil {
		log.Fatal(err)
	}
	defer domain.Close()

	founders := []nonrep.Party{orgA, orgB, orgC}
	orgs := map[nonrep.Party]*nonrep.Org{}
	for _, p := range append(founders, orgD) {
		org, err := domain.AddOrg(p)
		if err != nil {
			log.Fatal(err)
		}
		orgs[p] = org
	}
	for _, p := range founders {
		if err := orgs[p].Share(object, []byte("design r0"), founders); err != nil {
			log.Fatal(err)
		}
	}

	// B validates: designs must stay under 60 characters (a stand-in for
	// any application-specific validation process).
	orgs[orgB].Sharing().AddValidator(object, nonrep.ValidatorFunc(
		func(_ context.Context, ch *nonrep.Change) nonrep.Verdict {
			if len(ch.NewState) > 60 {
				return nonrep.Reject("design too large")
			}
			return nonrep.Accept()
		}))

	// 1. Agreed update (Figure 5b steps 1–3).
	res, err := orgs[orgA].Sharing().Propose(ctx, object, []byte("design r1: twin exhaust"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update by A: agreed=%v version=%d\n", res.Agreed, res.Version.Number)

	// 2. Vetoed update: nothing changes anywhere.
	res, err = orgs[orgC].Sharing().Propose(ctx, object,
		[]byte("design r2: "+strings.Repeat("chrome ", 12)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update by C: agreed=%v rejections=%v\n", res.Agreed, res.Rejections)
	_, v, err := orgs[orgC].Sharing().Get(object)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  C's replica still at version %d\n", v.Number)

	// 3. Roll-up: five local edits, one coordination event.
	for i := 1; i <= 5; i++ {
		if err := orgs[orgA].Sharing().Stage(object, []byte(fmt.Sprintf("design r2 draft %d", i))); err != nil {
			log.Fatal(err)
		}
	}
	res, err = orgs[orgA].Sharing().Commit(ctx, object)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("roll-up commit: agreed=%v version=%d (5 edits, 1 coordination)\n",
		res.Agreed, res.Version.Number)

	// 4. Connect: D joins; its replica arrives with verifiable history.
	res, err = orgs[orgA].Sharing().Connect(ctx, object, orgD)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connect D: agreed=%v\n", res.Agreed)
	history, err := orgs[orgD].Sharing().History(object)
	if err != nil {
		log.Fatal(err)
	}
	if err := nonrep.VerifyHistory(history); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  D verified a %d-version history on arrival\n", len(history))

	// D participates immediately.
	res, err = orgs[orgD].Sharing().Propose(ctx, object, []byte("design r3: D's tweak"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update by D: agreed=%v version=%d\n", res.Agreed, res.Version.Number)

	// 5. Disconnect: B leaves; the rest continue.
	res, err = orgs[orgB].Sharing().Disconnect(ctx, object, orgB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disconnect B: agreed=%v\n", res.Agreed)
	res, err = orgs[orgA].Sharing().Propose(ctx, object, []byte("design r4: post-B era"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update by A after B left: agreed=%v version=%d\n", res.Agreed, res.Version.Number)

	// Final state: all current members agree, histories verify, and the
	// adjudicator confirms every log.
	fmt.Println("\nfinal replicas:")
	for _, p := range []nonrep.Party{orgA, orgC, orgD} {
		state, v, err := orgs[p].Sharing().Get(object)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s v%d %q\n", p, v.Number, state)
	}
	adj := domain.Adjudicator()
	for p, org := range orgs {
		report := adj.AuditStream(org.Vault().Query(nonrep.VaultQuery{}))
		if !report.Clean() {
			log.Fatalf("%s log audit failed: %+v", p, report)
		}
	}
	fmt.Println("all evidence logs audited clean")
}
