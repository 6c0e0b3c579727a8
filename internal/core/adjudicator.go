package core

import (
	"fmt"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/sharing"
	"nonrep/internal/sig"
	"nonrep/internal/store"
)

// Adjudicator evaluates evidence logs in dispute resolution: "to support
// dispute resolution, the fact that trusted interceptors mediated the
// interaction provides any honest party with irrefutable evidence of their
// own actions within the domain and of the observed actions of other
// parties" (section 3.1). It works from records alone — no live parties —
// verifying hash chains, token signatures and run bindings.
type Adjudicator struct {
	verifier *evidence.Verifier
}

// NewAdjudicator creates an adjudicator resolving keys (and hence
// identities) through the given resolver, typically a credential store
// holding the domain's certificates.
func NewAdjudicator(keys evidence.KeyResolver) *Adjudicator {
	return &Adjudicator{verifier: &evidence.Verifier{Keys: keys}}
}

// Fault describes a problem found in presented evidence.
type Fault struct {
	Seq    uint64
	Reason string
}

// LogReport is the result of auditing a full evidence log.
type LogReport struct {
	Records int
	// ChainOK reports that the log's hash chain is intact (no records
	// were altered, inserted or removed after the fact).
	ChainOK    bool
	ChainError string
	// Faults lists records whose tokens fail verification.
	Faults []Fault
}

// Clean reports whether the audit found no problems.
func (r *LogReport) Clean() bool { return r.ChainOK && len(r.Faults) == 0 }

// verifyToken verifies one record's token, treating a record without a
// token — possible only in evidence presented by an adversarial source,
// a log never stores one — as a fault rather than a crash.
func (a *Adjudicator) verifyToken(rec *store.Record) error {
	if rec.Token == nil {
		return fmt.Errorf("core: record %d has no token", rec.Seq)
	}
	return a.verifier.Verify(rec.Token)
}

// RecordSource is a stream of evidence records in log order, as produced
// by vault.Iterator — the adjudicator's window onto logs too large to
// load at once.
type RecordSource interface {
	// Next advances to the next record, reporting whether one is
	// available.
	Next() bool
	// Record returns the record Next advanced to.
	Record() *store.Record
	// Err returns the first error the source hit.
	Err() error
}

// Records presents records already in memory (a node's log, a bundle's
// logs) as a RecordSource.
func Records(records []*store.Record) RecordSource { return &sliceSource{records: records} }

type sliceSource struct {
	records []*store.Record
	pos     int
}

func (s *sliceSource) Next() bool {
	if s.pos >= len(s.records) {
		return false
	}
	s.pos++
	return true
}
func (s *sliceSource) Record() *store.Record { return s.records[s.pos-1] }
func (s *sliceSource) Err() error            { return nil }

// AuditStream verifies a whole log presented as a stream: the hash chain
// is re-derived incrementally and every token checked, with memory
// bounded by one record. The stream must yield the complete log in order
// (an unfiltered query) for the chain verdict to be meaningful.
func (a *Adjudicator) AuditStream(src RecordSource) *LogReport {
	report := &LogReport{ChainOK: true}
	cv := &store.ChainVerifier{}
	for src.Next() {
		rec := src.Record()
		report.Records++
		if report.ChainOK {
			if err := cv.Check(rec); err != nil {
				report.ChainOK = false
				report.ChainError = err.Error()
			}
		}
		if err := a.verifyToken(rec); err != nil {
			report.Faults = append(report.Faults, Fault{Seq: rec.Seq, Reason: err.Error()})
		}
	}
	if err := src.Err(); err != nil {
		report.ChainOK = false
		if report.ChainError == "" {
			report.ChainError = err.Error()
		}
	}
	return report
}

// RunReport reconstructs what a set of evidence records proves about one
// invocation run.
type RunReport struct {
	Run id.Run
	// Client and Server as attested by the NRO and the NRR.
	Client id.Party
	Server id.Party
	// RequestProven: a valid NRO binds the request to the client — the
	// client cannot "disavow the request" (section 2).
	RequestProven bool
	// ReceiptProven: the server's valid NRR covers the NRO's request.
	ReceiptProven bool
	// ResponseProven: a valid NROResp from the NRR's server — the server
	// cannot "deny having delivered a service" (section 2).
	ResponseProven bool
	// ResponseReceiptProven: the client's valid NRRResp (or a TTP
	// substitute) covers the receipt note on the NROResp's response.
	ResponseReceiptProven bool
	// Substituted reports that the response receipt is a TTP substitute.
	Substituted bool
	// Aborted reports a TTP abort affidavit over the NRO's request.
	Aborted bool
	// Faults lists tokens that failed verification, conflict with an
	// earlier token of their kind, or break a binding.
	Faults []Fault
}

// runKinds are the invocation evidence kinds: one digest of each per run.
var runKinds = map[evidence.Kind]bool{evidence.KindNRO: true, evidence.KindNRR: true, evidence.KindNROResp: true,
	evidence.KindNRRResp: true, evidence.KindSubstitute: true, evidence.KindAbort: true}

// AuditRunStream reports what the records of one run prove: from one
// party's log, several parties' logs merged, or a counterparty's vault
// audited remotely page by page. Each token is verified as it arrives and
// the protocol's bindings are judged after the last record, so record
// order does not matter. The stream's error, if any, is returned alongside
// the report built from the records seen before it.
func (a *Adjudicator) AuditRunStream(src RecordSource, run id.Run) (*RunReport, error) {
	report := &RunReport{Run: run}
	seen := make(map[evidence.Kind]*store.Record)
	conflict := make(map[evidence.Kind]bool)
	for src.Next() {
		rec := src.Record()
		tok := rec.Token
		if tok == nil || tok.Run != run {
			continue
		}
		if err := a.verifier.Verify(tok); err != nil {
			report.Faults = append(report.Faults, Fault{Seq: rec.Seq, Reason: err.Error()})
			continue
		}
		if first := seen[tok.Kind]; first == nil && runKinds[tok.Kind] {
			seen[tok.Kind] = rec
		} else if first != nil && (first.Token.Digest != tok.Digest || first.Token.Issuer != tok.Issuer) {
			conflict[tok.Kind] = true
			report.Faults = append(report.Faults, Fault{Seq: rec.Seq,
				Reason: fmt.Sprintf("core: second %s token of the run conflicts with record %d's", tok.Kind, first.Seq)})
		}
	}
	for kind := range conflict {
		delete(seen, kind)
	}
	report.judge(seen)
	return report, src.Err()
}

// judge applies to the run's tokens, one per kind, the bindings every
// party's door checks (internal/invoke's check.go): the NRR covers the
// NRO's digest; the NROResp comes from the NRR's server; the NRRResp comes
// from the NRO's client over the receipt note {run, client, NROResp
// digest, consumed or not}, rebuilt from the tokens because the record's
// note is unsigned; a TTP substitute covers that note, consumed; an abort
// covers the NRO's digest. A broken binding is a fault and its fact stays
// false. A token whose anchor is missing (an NRR without an NRO) is
// unbound: no fault, no fact.
func (r *RunReport) judge(seen map[evidence.Kind]*store.Record) {
	var nro, nrr, nroResp *evidence.Token
	if rec := seen[evidence.KindNRO]; rec != nil {
		nro, r.RequestProven, r.Client = rec.Token, true, rec.Token.Issuer
	}
	if rec := seen[evidence.KindNRR]; rec != nil {
		nrr, r.Server = rec.Token, rec.Token.Issuer
	}
	if rec := seen[evidence.KindNROResp]; rec != nil {
		nroResp = rec.Token
	}
	bound := func(kind evidence.Kind, anchored bool, holds func(*evidence.Token) bool, broken string) bool {
		rec := seen[kind]
		if rec == nil || !anchored {
			return false
		}
		if !holds(rec.Token) {
			r.Faults = append(r.Faults, Fault{Seq: rec.Seq, Reason: fmt.Sprintf("core: %s token %s", kind, broken)})
			return false
		}
		return true
	}
	coversRequest := func(t *evidence.Token) bool { return t.Digest == nro.Digest }
	r.ReceiptProven = bound(evidence.KindNRR, nro != nil, coversRequest, "does not cover the run's request")
	r.ResponseProven = bound(evidence.KindNROResp, nrr != nil,
		func(t *evidence.Token) bool { return t.Issuer == nrr.Issuer }, "is not from the server that received the request")
	r.Aborted = bound(evidence.KindAbort, nro != nil, coversRequest, "does not cover the run's request")

	receipt := func(c evidence.Consumption) sig.Digest {
		note := evidence.ReceiptNote{Run: r.Run, Client: nro.Issuer, ResponseDigest: nroResp.Digest, Consumption: c}
		d, _ := note.Digest() // a fixed-shape struct always encodes
		return d
	}
	answered := nro != nil && nroResp != nil
	r.Substituted = bound(evidence.KindSubstitute, answered,
		func(t *evidence.Token) bool { return t.Digest == receipt(evidence.Consumed) }, "does not acknowledge the run's response")
	r.ResponseReceiptProven = bound(evidence.KindNRRResp, answered, func(t *evidence.Token) bool {
		return t.Issuer == nro.Issuer && (t.Digest == receipt(evidence.Consumed) || t.Digest == receipt(evidence.NotConsumed))
	}, "is not the client's receipt of the run's response") || r.Substituted
}

// Complete reports whether the run's evidence forms the full exchange of
// section 3.2 — both parties bound to both request and response.
func (r *RunReport) Complete() bool {
	return r.RequestProven && r.ReceiptProven && r.ResponseProven && r.ResponseReceiptProven
}

// AuditSharedHistory verifies a shared object's version history chain and
// that the presented outcome tokens cover its post-genesis versions. It
// returns an error describing the first inconsistency: an honest party can
// thereby "irrefutably assert the validity of the (agreed) state of shared
// information" (section 3.1).
func (a *Adjudicator) AuditSharedHistory(history []sharing.Version, records []*store.Record) error {
	if err := sharing.VerifyHistory(history); err != nil {
		return err
	}
	outcomes := make(map[id.Run]*evidence.Token)
	for _, rec := range records {
		if rec.Token.Kind == evidence.KindOutcome {
			if err := a.verifier.Verify(rec.Token); err != nil {
				return fmt.Errorf("core: outcome for %s: %w", rec.Token.Run, err)
			}
			outcomes[rec.Token.Run] = rec.Token
		}
	}
	for _, v := range history[1:] {
		if _, ok := outcomes[v.Run]; !ok {
			return fmt.Errorf("core: version %d (run %s) has no outcome evidence", v.Number, v.Run)
		}
	}
	return nil
}
