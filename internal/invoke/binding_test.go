package invoke

import (
	"errors"
	"slices"
	"testing"

	"nonrep/internal/core"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

const (
	bindClient = id.Party("urn:org:binding-client")
	bindServer = id.Party("urn:org:binding-server")
	bindTTP    = id.Party("urn:ttp:binding")
	bindRogue  = id.Party("urn:org:binding-rogue")
)

// TestDoorsAndJudgeAgree walks the binding table entry by entry: the door
// that accepts a token of the entry's kind and core.Adjudicator judge it
// alike. An honest token passes the door and proves its fact; a token over
// other content, or from another issuer, is refused by the door as
// ErrEvidenceInvalid and, where the judge holds the anchor, is a fault
// whose fact stays false. The judge knows no TTP, so it leaves a TTP
// token's issuer to the doors; no snapshot is in the records, so it leaves
// the NROResp's digest to them too.
func TestDoorsAndJudgeAgree(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(bindClient, bindServer, bindTTP, bindRogue)
	v := realm.Verifier()
	adj := core.NewAdjudicator(realm.Store)
	run := id.NewRun()
	issue := func(p id.Party, kind evidence.Kind, d sig.Digest, opts ...evidence.IssueOption) *evidence.Token {
		t.Helper()
		tok, err := realm.Party(p).Issuer.Issue(kind, run, 1, d, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	snap := evidence.RequestSnapshot{Run: run, Client: bindClient, Server: bindServer, Service: "urn:org:binding-server/svc",
		Operation: "Do", Protocol: ProtocolFair}
	reqDigest, err := snap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	resp := evidence.ResponseSnapshot{Run: run, Server: bindServer, Status: evidence.StatusOK, RequestDigest: reqDigest}
	respDigest, err := resp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	nro := issue(bindClient, evidence.KindNRO, reqDigest, evidence.WithRecipients(bindServer))
	honest := evidence.Anchors{Run: run, NRO: nro, NRR: issue(bindServer, evidence.KindNRR, reqDigest),
		NROResp: issue(bindServer, evidence.KindNROResp, respDigest), Server: bindServer, TTP: bindTTP}
	note := honest.Receipt(evidence.NotConsumed)
	other := sig.Sum([]byte("other content"))

	decided := func(a evidence.Anchors, tok *evidence.Token) error {
		reply, err := decisionReply(run, tok)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = checkDecision(v, &a, reply)
		return err
	}
	for _, c := range []struct {
		kind    evidence.Kind
		issuer  id.Party
		digest  sig.Digest
		door    func(tok *evidence.Token) error
		fact    func(*core.RunReport) bool
		judged  bool // the judge binds the issuer
		covered bool // the judge binds the digest
	}{
		{evidence.KindNRR, bindServer, reqDigest, func(tok *evidence.Token) error {
			a := honest
			a.NRR = tok
			return checkReply(v, &a, fair, &resp)
		}, func(r *core.RunReport) bool { return r.ReceiptProven }, true, true},
		{evidence.KindNROResp, bindServer, respDigest, func(tok *evidence.Token) error {
			a := honest
			a.NROResp = tok
			return checkReply(v, &a, fair, &resp)
		}, func(r *core.RunReport) bool { return r.ResponseProven }, true, false},
		{evidence.KindNRRResp, bindClient, honest.ReceiptDigest(evidence.NotConsumed), func(tok *evidence.Token) error {
			msg := &protocol.Message{Protocol: ProtocolFair, Run: run, Step: stepReceipt, Kind: kindReceipt, Tokens: []*evidence.Token{tok}}
			if err := msg.SetBody(receiptBody{Note: note}); err != nil {
				t.Fatal(err)
			}
			_, _, err := checkReceipt(v, &honest, msg)
			return err
		}, func(r *core.RunReport) bool { return r.ResponseReceiptProven }, true, true},
		{evidence.KindSubstitute, bindTTP, honest.ReceiptDigest(evidence.Consumed), func(tok *evidence.Token) error {
			return decided(honest, tok)
		}, func(r *core.RunReport) bool { return r.Substituted }, false, true},
		{evidence.KindAbort, bindTTP, reqDigest, func(tok *evidence.Token) error {
			return decided(honest, tok)
		}, func(r *core.RunReport) bool { return r.Aborted }, false, true},
	} {
		t.Run(string(c.kind), func(t *testing.T) {
			if !slices.ContainsFunc(evidence.Bindings, func(b evidence.Binding) bool { return b.Kind == c.kind }) {
				t.Fatalf("the binding table has no %s entry", c.kind)
			}
			// judge reports what the run's anchors and tok prove, and
			// whether tok's record is faulted.
			judge := func(tok *evidence.Token) (*core.RunReport, bool) {
				var records []*store.Record
				for i, anchor := range []*evidence.Token{honest.NRO, honest.NRR, honest.NROResp} {
					if anchor.Kind != tok.Kind {
						records = append(records, &store.Record{Seq: uint64(i + 1), Token: anchor})
					}
				}
				records = append(records, &store.Record{Seq: 9, Token: tok})
				report, err := adj.AuditRunStream(core.Records(records), run)
				if err != nil {
					t.Fatal(err)
				}
				return report, slices.ContainsFunc(report.Faults, func(f core.Fault) bool { return f.Seq == 9 })
			}

			good := issue(c.issuer, c.kind, c.digest)
			if err := c.door(good); err != nil {
				t.Fatalf("door refused the honest token: %v", err)
			}
			if report, faulted := judge(good); faulted || !c.fact(report) || len(report.Faults) > 0 {
				t.Fatalf("judge of the honest token: %+v", report)
			}

			for name, bad := range map[string]struct {
				tok    *evidence.Token
				judged bool
			}{
				"other issuer":  {issue(bindRogue, c.kind, c.digest), c.judged},
				"other content": {issue(c.issuer, c.kind, other), c.covered},
			} {
				if err := c.door(bad.tok); !errors.Is(err, ErrEvidenceInvalid) {
					t.Errorf("%s: door = %v, want ErrEvidenceInvalid", name, err)
				}
				report, faulted := judge(bad.tok)
				if bad.judged && (!faulted || c.fact(report)) {
					t.Errorf("%s: judge did not fault it: %+v", name, report)
				}
			}
		})
	}
}

// TestRequestOriginNamesTheServer: the judge takes the server an NRR must
// come from from the NRO's one recipient, so a door refuses a request
// whose NRO names someone other than the request's server, and takes one
// naming nobody.
func TestRequestOriginNamesTheServer(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(bindClient, bindServer, bindRogue)
	run := id.NewRun()
	snap := evidence.RequestSnapshot{Run: run, Client: bindClient, Server: bindServer, Operation: "Do", Protocol: ProtocolDirect}
	reqDigest, err := snap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		named []id.Party
		ok    bool
	}{{nil, true}, {[]id.Party{bindServer}, true}, {[]id.Party{bindRogue}, false}, {[]id.Party{bindServer, bindRogue}, false}} {
		nro, err := realm.Party(bindClient).Issuer.Issue(evidence.KindNRO, run, 1, reqDigest, evidence.WithRecipients(c.named...))
		if err != nil {
			t.Fatal(err)
		}
		a, err := checkRequest(realm.Verifier(), direct, run, &snap, nro)
		if c.ok && (err != nil || a.Server != bindServer || a.NRO != nro) {
			t.Errorf("NRO naming %v: %+v, %v", c.named, a, err)
		}
		if !c.ok && !errors.Is(err, ErrEvidenceInvalid) {
			t.Errorf("NRO naming %v: err = %v, want ErrEvidenceInvalid", c.named, err)
		}
	}
}
