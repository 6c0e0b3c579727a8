package core_test

import (
	"slices"
	"strings"
	"testing"

	"nonrep/internal/core"
	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/testpki"
)

// runFixture is the evidence of one complete invocation run, bound the way
// the protocol binds it: the NRR covers the request the NRO covers, the
// NROResp covers a response to it, and the NRRResp covers the client's
// receipt note on that response. orgC plays the TTP and the rogue server.
type runFixture struct {
	realm     *testpki.Realm
	run       id.Run
	req, resp sig.Digest
}

func newRunFixture(t *testing.T, realm *testpki.Realm, run id.Run) *runFixture {
	t.Helper()
	snap := evidence.RequestSnapshot{Run: run, Client: client, Server: server, Service: "urn:org:server/svc", Operation: "Do", Protocol: "direct"}
	req, err := snap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	respSnap := evidence.ResponseSnapshot{Run: run, Server: server, Status: evidence.StatusOK, RequestDigest: req}
	resp, err := respSnap.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return &runFixture{realm: realm, run: run, req: req, resp: resp}
}

// issue signs a token of the run as p.
func (f *runFixture) issue(t *testing.T, p id.Party, kind evidence.Kind, digest sig.Digest) *evidence.Token {
	t.Helper()
	tok, err := f.realm.Party(p).Issuer.Issue(kind, f.run, 1, digest)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// receipt is the digest of the client's receipt note on resp.
func (f *runFixture) receipt(t *testing.T, resp sig.Digest, c evidence.Consumption) sig.Digest {
	t.Helper()
	note := evidence.ReceiptNote{Run: f.run, Client: client, ResponseDigest: resp, Consumption: c}
	d, err := note.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// logs returns the client's and the server's log of the run: the same four
// tokens in the same order, each log with its own directions.
func (f *runFixture) logs(t *testing.T) (clientLog, serverLog []*store.Record) {
	t.Helper()
	toks := []*evidence.Token{
		f.issue(t, client, evidence.KindNRO, f.req),
		f.issue(t, server, evidence.KindNRR, f.req),
		f.issue(t, server, evidence.KindNROResp, f.resp),
		f.issue(t, client, evidence.KindNRRResp, f.receipt(t, f.resp, evidence.Consumed)),
	}
	build := func(own id.Party) []*store.Record {
		log := testpki.Log(t, f.realm.Clock)
		for _, tok := range toks {
			dir := store.Received
			if tok.Issuer == own {
				dir = store.Generated
			}
			if _, err := log.Append(dir, tok, ""); err != nil {
				t.Fatal(err)
			}
		}
		return testpki.Query(t, log, store.Query{})
	}
	return build(client), build(server)
}

// rechain rebuilds the hash chain after a taxonomy case drops, replaces or
// reorders records, so only the intended defect is present.
func rechain(t *testing.T, records []*store.Record) []*store.Record {
	t.Helper()
	out := make([]*store.Record, 0, len(records))
	var prev sig.Digest
	var seq uint64
	for _, rec := range records {
		next, err := store.NextRecord(seq, prev, rec.At, rec.Direction, rec.Token, rec.Note)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, next)
		prev, seq = next.Hash, next.Seq
	}
	return out
}

// replace returns records with the token at index i swapped for tok,
// rechained.
func replace(t *testing.T, records []*store.Record, i int, tok *evidence.Token) []*store.Record {
	t.Helper()
	clone := *records[i]
	clone.Token = tok
	out := slices.Clone(records)
	out[i] = &clone
	return rechain(t, out)
}

// appendTok returns records with tok logged as received at the end.
func appendTok(t *testing.T, records []*store.Record, tok *evidence.Token) []*store.Record {
	t.Helper()
	return rechain(t, append(slices.Clone(records), &store.Record{At: records[0].At, Direction: store.Received, Token: tok}))
}

// TestAdjudicatorFailureTaxonomy drives the adjudicator through the
// classic evidence-defect taxonomy and through each binding the protocol
// puts between a run's tokens, asserting the specific verdict for each.
// Every case's defect is in both parties' logs. The subtest names are
// those of the audit entry points the table once called; all four checks
// now go through the stream forms:
//   - AuditLog and AuditStream: the log verdict (chain, token faults) of
//     the client's log and of the server's log;
//   - AuditRun: the run verdict from the client's log alone;
//   - AuditRunStream: the run verdict from the server's and the client's
//     logs merged, as nrverify's bundle mode reads them.
func TestAdjudicatorFailureTaxonomy(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(client, server, orgC)
	adj := core.NewAdjudicator(realm.Store)
	run := id.NewRun()
	f := newRunFixture(t, realm, run)
	other := sig.Sum([]byte("another message"))

	type verdicts struct {
		chainOK    bool
		chainErrAt string   // substring expected in ChainError, "" = none
		faultSeqs  []uint64 // log audit faults
		// run-report expectations
		runFaults     []uint64
		complete      bool
		receiptProven bool
		respReceipt   bool
		substituted   bool
	}
	cases := []struct {
		name   string
		mutate func(t *testing.T, records []*store.Record) []*store.Record
		want   verdicts
	}{
		{
			name:   "clean run",
			mutate: func(_ *testing.T, records []*store.Record) []*store.Record { return records },
			want:   verdicts{chainOK: true, complete: true, receiptProven: true, respReceipt: true},
		},
		{
			name: "tampered chain link",
			mutate: func(_ *testing.T, records []*store.Record) []*store.Record {
				// The note is edited after the fact without re-deriving the
				// hash: the record's own hash no longer matches its bytes.
				clone := *records[1]
				clone.Note = "doctored"
				records[1] = &clone
				return records
			},
			want: verdicts{chainOK: false, chainErrAt: "record 2 hash", complete: true, receiptProven: true, respReceipt: true},
		},
		{
			name: "missing NRR",
			mutate: func(t *testing.T, records []*store.Record) []*store.Record {
				// The server's receipt never made it into evidence; the rest
				// chains cleanly, so the defect is the unproven receipt, not
				// a chain fault.
				return rechain(t, append(records[:1:1], records[2:]...))
			},
			want: verdicts{chainOK: true, complete: false, receiptProven: false, respReceipt: true},
		},
		{
			name: "forged signature",
			mutate: func(t *testing.T, records []*store.Record) []*store.Record {
				rogue, err := sig.GenerateEd25519("rogue")
				if err != nil {
					t.Fatal(err)
				}
				forger := &evidence.Issuer{Party: server, Signer: rogue, Clock: realm.Clock}
				forged, err := forger.Issue(evidence.KindNRR, run, 2, f.req)
				if err != nil {
					t.Fatal(err)
				}
				return replace(t, records, 1, forged)
			},
			// The forged token faults record 2; with the genuine NRR gone,
			// receipt is no longer proven.
			want: verdicts{chainOK: true, faultSeqs: []uint64{2}, runFaults: []uint64{2}, complete: false, receiptProven: false, respReceipt: true},
		},
		{
			name: "truncated tail",
			mutate: func(_ *testing.T, records []*store.Record) []*store.Record {
				// Dropping trailing records leaves a valid chain prefix — a
				// chain alone cannot prove completeness; the run report can:
				// the response receipt is unproven.
				return records[:3]
			},
			want: verdicts{chainOK: true, complete: false, receiptProven: true},
		},
		{
			name: "replayed record",
			mutate: func(_ *testing.T, records []*store.Record) []*store.Record {
				// A verbatim copy of an earlier record replayed at the tail:
				// its prev link points into the past and breaks the chain.
				return append(records, records[1])
			},
			want: verdicts{chainOK: false, chainErrAt: "record 5 prev link", complete: true, receiptProven: true, respReceipt: true},
		},

		// Validly signed tokens bound to the wrong thing: every log audits
		// clean, and the run report names the token that breaks a binding.
		{
			name: "NRR over another request",
			mutate: func(t *testing.T, records []*store.Record) []*store.Record {
				return replace(t, records, 1, f.issue(t, server, evidence.KindNRR, other))
			},
			want: verdicts{chainOK: true, runFaults: []uint64{2}, complete: false, receiptProven: false, respReceipt: true},
		},
		{
			name: "NRRResp over another response",
			mutate: func(t *testing.T, records []*store.Record) []*store.Record {
				return replace(t, records, 3, f.issue(t, client, evidence.KindNRRResp, f.receipt(t, other, evidence.Consumed)))
			},
			want: verdicts{chainOK: true, runFaults: []uint64{4}, complete: false, receiptProven: true, respReceipt: false},
		},
		{
			name: "NROResp from another server",
			mutate: func(t *testing.T, records []*store.Record) []*store.Record {
				return replace(t, records, 2, f.issue(t, orgC, evidence.KindNROResp, f.resp))
			},
			want: verdicts{chainOK: true, runFaults: []uint64{3}, complete: false, receiptProven: true, respReceipt: true},
		},
		{
			name: "second NRO over other content",
			mutate: func(t *testing.T, records []*store.Record) []*store.Record {
				// Two requests for one run: neither is the run's, so nothing
				// bound to the request is proven either.
				return appendTok(t, records, f.issue(t, client, evidence.KindNRO, other))
			},
			want: verdicts{chainOK: true, runFaults: []uint64{5}, complete: false, receiptProven: false, respReceipt: false},
		},
		{
			name: "TTP substitute for a withheld receipt",
			mutate: func(t *testing.T, records []*store.Record) []*store.Record {
				return appendTok(t, records[:3], f.issue(t, orgC, evidence.KindSubstitute, f.receipt(t, f.resp, evidence.Consumed)))
			},
			want: verdicts{chainOK: true, complete: true, receiptProven: true, respReceipt: true, substituted: true},
		},
		{
			name: "substitute over another response",
			mutate: func(t *testing.T, records []*store.Record) []*store.Record {
				return appendTok(t, records[:3], f.issue(t, orgC, evidence.KindSubstitute, f.receipt(t, other, evidence.Consumed)))
			},
			want: verdicts{chainOK: true, runFaults: []uint64{4}, complete: false, receiptProven: true, respReceipt: false},
		},
		{
			name: "abort over another request",
			mutate: func(t *testing.T, records []*store.Record) []*store.Record {
				return appendTok(t, records, f.issue(t, orgC, evidence.KindAbort, other))
			},
			want: verdicts{chainOK: true, runFaults: []uint64{5}, complete: true, receiptProven: true, respReceipt: true},
		},
		{
			name: "NotConsumed receipt proves the response receipt",
			mutate: func(t *testing.T, records []*store.Record) []*store.Record {
				return replace(t, records, 3, f.issue(t, client, evidence.KindNRRResp, f.receipt(t, f.resp, evidence.NotConsumed)))
			},
			want: verdicts{chainOK: true, complete: true, receiptProven: true, respReceipt: true},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			clientLog, serverLog := f.logs(t)
			clientLog, serverLog = tc.mutate(t, clientLog), tc.mutate(t, serverLog)

			checkLog := func(t *testing.T, report *core.LogReport) {
				t.Helper()
				if report.ChainOK != tc.want.chainOK {
					t.Fatalf("ChainOK = %v, want %v (%s)", report.ChainOK, tc.want.chainOK, report.ChainError)
				}
				if tc.want.chainErrAt != "" && !strings.Contains(report.ChainError, tc.want.chainErrAt) {
					t.Fatalf("ChainError = %q, want mention of %q", report.ChainError, tc.want.chainErrAt)
				}
				if got := faultSeqs(report.Faults); !slices.Equal(got, tc.want.faultSeqs) {
					t.Fatalf("Faults = %+v, want seqs %v", report.Faults, tc.want.faultSeqs)
				}
			}
			checkRun := func(t *testing.T, records []*store.Record) {
				t.Helper()
				report, err := adj.AuditRunStream(core.Records(records), run)
				if err != nil {
					t.Fatal(err)
				}
				w := tc.want
				if got := faultSeqs(report.Faults); !slices.Equal(got, w.runFaults) {
					t.Fatalf("run Faults = %+v, want seqs %v", report.Faults, w.runFaults)
				}
				if report.Complete() != w.complete || report.ReceiptProven != w.receiptProven ||
					report.ResponseReceiptProven != w.respReceipt || report.Substituted != w.substituted {
					t.Fatalf("report %+v: want complete=%v receipt=%v resp-receipt=%v substituted=%v",
						report, w.complete, w.receiptProven, w.respReceipt, w.substituted)
				}
			}
			t.Run("AuditLog", func(t *testing.T) {
				checkLog(t, adj.AuditStream(core.Records(clientLog)))
			})
			t.Run("AuditStream", func(t *testing.T) {
				checkLog(t, adj.AuditStream(core.Records(serverLog)))
			})
			t.Run("AuditRun", func(t *testing.T) {
				checkRun(t, clientLog)
			})
			t.Run("AuditRunStream", func(t *testing.T) {
				checkRun(t, append(slices.Clone(serverLog), clientLog...))
			})
		})
	}
}

// faultSeqs lists the distinct records faulted, in order: merged logs hold
// each token twice, once per party.
func faultSeqs(faults []core.Fault) []uint64 {
	var seqs []uint64
	for _, f := range faults {
		if !slices.Contains(seqs, f.Seq) {
			seqs = append(seqs, f.Seq)
		}
	}
	return seqs
}

// TestAdjudicatorHostileRecords: evidence presented by an adversarial
// source may be arbitrarily malformed; the adjudicator must report, not
// crash.
func TestAdjudicatorHostileRecords(t *testing.T) {
	t.Parallel()
	realm := testpki.MustRealm(client, server)
	adj := core.NewAdjudicator(realm.Store)
	records := []*store.Record{{Seq: 1}} // no token at all
	report := adj.AuditStream(core.Records(records))
	if len(report.Faults) != 1 {
		t.Fatalf("token-less record not faulted: %+v", report)
	}
	if rr, err := adj.AuditRunStream(core.Records(records), id.NewRun()); err != nil || rr.Complete() {
		t.Fatalf("hostile run stream: %+v, %v", rr, err)
	}
}
