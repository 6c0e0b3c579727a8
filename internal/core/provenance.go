// Provenance: a party's evidence viewed as a graph — run → tokens →
// parties → derived runs. Every record carries a signed token naming who
// issued what to whom under which run and transaction, so the reader
// derives the graph from the records themselves, read through the same
// query a verdict reads them through; the publisher asserts nothing.
package core

import (
	"sort"
	"time"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/store"
	"nonrep/internal/vault"
)

// Querier runs one query over a party's evidence as a record stream: a
// local vault's Query, or an audit client's Query against a peer.
type Querier func(vault.Query) RecordSource

// ProvToken is one edge of the provenance graph: a token as recorded in
// the log, trimmed to its graph-relevant fields plus the record sequence
// anchoring it in the chain.
type ProvToken struct {
	Seq        uint64        `json:"seq"`
	Kind       evidence.Kind `json:"kind"`
	Step       int           `json:"step"`
	Issuer     id.Party      `json:"issuer"`
	Recipients []id.Party    `json:"recipients,omitempty"`
	Service    id.Service    `json:"service,omitempty"`
	At         time.Time     `json:"at"`
}

// ProvGraph is the provenance neighbourhood of one run.
type ProvGraph struct {
	Run id.Run `json:"run"`
	// Txns are the business transactions the run's evidence is linked to.
	Txns []id.Txn `json:"txns,omitempty"`
	// Tokens are the run's evidence edges in chain order.
	Tokens []ProvToken `json:"tokens,omitempty"`
	// Parties are every issuer and recipient appearing in the run's
	// evidence, sorted.
	Parties []id.Party `json:"parties,omitempty"`
	// Derived are other runs sharing any of the run's transactions —
	// sibling invocations of the same business exchange, in the order
	// their evidence first appears.
	Derived []id.Run `json:"derived,omitempty"`
}

// Provenance builds the provenance graph of one run from a run query and
// one transaction query per linked transaction: the run's tokens, the
// parties they bind, and the runs derived through shared transactions.
// Against a vault the queries ride its run and transaction indexes, so
// the cost is the run's records plus the linked transactions' records,
// independent of log size.
func Provenance(query Querier, run id.Run) (*ProvGraph, error) {
	g := &ProvGraph{Run: run}
	parties := make(map[id.Party]bool)
	txns := make(map[id.Txn]bool)
	err := tokens(query(vault.Query{Run: run}), func(rec *store.Record) {
		tok := rec.Token
		g.Tokens = append(g.Tokens, ProvToken{
			Seq:        rec.Seq,
			Kind:       tok.Kind,
			Step:       tok.Step,
			Issuer:     tok.Issuer,
			Recipients: tok.Recipients,
			Service:    tok.Service,
			At:         rec.At,
		})
		parties[tok.Issuer] = true
		for _, p := range tok.Recipients {
			parties[p] = true
		}
		if tok.Txn != "" && !txns[tok.Txn] {
			txns[tok.Txn] = true
			g.Txns = append(g.Txns, tok.Txn)
		}
	})
	if err != nil {
		return nil, err
	}
	for p := range parties {
		g.Parties = append(g.Parties, p)
	}
	sort.Slice(g.Parties, func(i, j int) bool { return g.Parties[i] < g.Parties[j] })
	seenRun := map[id.Run]bool{run: true}
	for _, txn := range g.Txns {
		err := tokens(query(vault.Query{Txn: txn}), func(rec *store.Record) {
			if r := rec.Token.Run; !seenRun[r] {
				seenRun[r] = true
				g.Derived = append(g.Derived, r)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// tokens calls fn on every record of src that carries a token and
// returns the error that ended the stream, if any.
func tokens(src RecordSource, fn func(*store.Record)) error {
	for src.Next() {
		if rec := src.Record(); rec.Token != nil {
			fn(rec)
		}
	}
	return src.Err()
}
