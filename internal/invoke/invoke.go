// Package invoke implements non-repudiable service invocation
// (sections 3.2 and 4.2). Trusted interceptors on the client and server
// invocation paths execute a non-repudiation protocol around an
// at-most-once RPC:
//
//	client interceptor → server interceptor : req,  NRO(req)
//	server interceptor → client interceptor : resp, NRR(req), NRO(resp)
//	client interceptor → server interceptor : NRR(resp)
//
// The package provides five protocol variants, reflecting the trust-domain
// configurations of Figure 3 and the related-work baseline of section 5:
//
//   - ProtocolDirect: the three-message direct exchange above, organisation
//     hosted interceptors, no TTP (Figure 3c).
//   - ProtocolVoluntary: the asymmetric baseline after Wichert et al. — the
//     server obtains NRO of the request; the client receives at most a
//     voluntary receipt and no evidence exchange guarantee.
//   - ProtocolInline: the direct exchange routed through one or more inline
//     TTP relays (Figures 3a and 3b) which verify and log all evidence.
//   - ProtocolFair: the direct exchange backed by an offline TTP that can
//     resolve (substitute a withheld receipt) or abort a run, giving
//     stronger fairness/liveness guarantees in the style of optimistic
//     fair-exchange protocols (paper reference [7]).
//
// Each variant is one descriptor (protocols): who serves it, what its
// reply carries, whether step 3 follows, whether an offline TTP recovers
// its runs and whether they resume. The client, server, relay and TTP
// read descriptor fields and never compare protocol names; the tokens
// every door accepts are bound by one table, evidence.Bindings, which the
// adjudicator judges runs by too.
//
// # Durability rule
//
// Section 3.5 asks that a party's evidence be persistent before the party
// acts on it. Every handler in this package orders its log appends against
// its sends by exactly these rules, and by nothing stricter:
//
//   - R1. A token a party generated is durable before the message carrying
//     it is handed to the transport.
//   - R2. A token a party received is durable before the party sends a
//     token issued in answer to it, or returns the result it covers to its
//     caller.
//   - R3. Nothing else is ordered. Records under the same obligation — due
//     before the same send or return — commit together, in protocol order,
//     as one group (protocol.Services.LogGroup: one write and one fsync on
//     a vault).
//
// One invocation therefore waits for four commits, not eight:
//
//	client  {NRO generated}                                  before the request leaves
//	server  {NRO received, NRR generated, NROResp generated} before the reply leaves
//	client  {NRR received, NROResp received, NRRResp generated}
//	                                 before the receipt leaves or the result is returned
//	server  {NRRResp received}                               before the receipt is acknowledged
//
// A request refused or failed before an answer exists leaves its verified
// NRO alone; a withheld or impossible receipt leaves the client's first
// two. Invoke and Resume are one exchange: Resume, which re-enters a run
// at any point, commits whichever of {NRR, NROResp, NRRResp} its journal
// lacks as the third group. A crash inside a group's write recovers to a
// prefix of the group — the states one-by-one appends already produced —
// and Resume completes from any of them.
//
// The server's group commits after the component ran, so a commit that
// fails (a broken log, a replication quorum not met) must not cost
// at-most-once execution: the server keeps the run, holds the reply back,
// and a retransmitted request retries the commit of the same tokens
// without executing again.
//
// # Receipt watch
//
// A server waits for receipts in one place, its open-run table. On a
// recovering server (ProtocolFair, WithRecovery) a run's deadline is one
// receipt timeout after its evidence commits, before the reply leaves,
// and one timer on the coordinator's clock, armed on the nearest
// deadline, has the offline TTP resolve the runs past theirs, a few at a
// time in parallel. A decision ends the run; a resolve that fails puts it
// back, one timeout on. A run the count bound evicts before its deadline,
// and before a resolve of it started, is resolved at once, by the request
// that evicted it and before that request's reply returns: it gets that
// one attempt, which ends with the request. Every TTP call ends one
// receipt timeout on at the latest, and none is made under the server's
// lock. Close cancels the calls under way, and none starts after it
// returns. A late receipt is still checked and logged while the server
// keeps the run, beside any substitute. Servers without recovery, and
// relays, only wait: a run leaves when its receipt arrives or the count
// bound evicts it.
package invoke

import (
	"errors"
	"time"

	"nonrep/internal/evidence"
	"nonrep/internal/id"
	"nonrep/internal/protocol"
)

// Protocol names as registered with coordinators.
const (
	// ProtocolDirect is the three-message direct exchange.
	ProtocolDirect = "invoke-direct"
	// ProtocolVoluntary is the asymmetric Wichert-style baseline.
	ProtocolVoluntary = "invoke-voluntary"
	// ProtocolInline is the direct exchange via inline TTP relays.
	ProtocolInline = "invoke-inline"
	// ProtocolFair is the direct exchange with offline-TTP recovery.
	ProtocolFair = "invoke-fair"
	// ProtocolResolve is the offline TTP's resolve/abort service.
	ProtocolResolve = "invoke-resolve"
)

// descriptor is one invocation protocol as every party reads it.
type descriptor struct {
	name        string
	relayed     bool // inline TTP relays serve it, the last one forwarding under the direct protocol
	volunteered bool // the reply's NRR is the server's to volunteer, not required
	receiptless bool // the reply carries no NROResp, and no step 3 follows
	recovery    bool // an offline TTP resolves withheld receipts and aborts failed submissions
	resumable   bool // Client.Resume may re-enter a run
}

var (
	fair      = &descriptor{name: ProtocolFair, recovery: true, resumable: true}
	direct    = &descriptor{name: ProtocolDirect, resumable: true}
	voluntary = &descriptor{name: ProtocolVoluntary, volunteered: true, receiptless: true}
	inline    = &descriptor{name: ProtocolInline, relayed: true}
	// protocols lists the invocation protocols a deployment descriptor
	// may name.
	protocols = []*descriptor{fair, direct, voluntary, inline}
)

// protocolFor returns the named protocol's descriptor and whether the
// name is one of protocols. An unknown name gets the direct exchange's
// shape, not resumable.
func protocolFor(name string) (*descriptor, bool) {
	for _, d := range protocols {
		if d.name == name {
			return d, true
		}
	}
	return &descriptor{name: name}, false
}

// KnownProtocol reports whether name is one of the invocation protocols.
func KnownProtocol(name string) bool {
	_, ok := protocolFor(name)
	return ok
}

// Message kinds within an invocation run.
const (
	kindRequest  = "request"
	kindResponse = "response"
	kindReceipt  = "receipt"
	kindResolve  = "resolve"
	kindAbort    = "abort"
	kindDecision = "decision"
)

// Protocol steps.
const (
	stepRequest  = 1
	stepResponse = 2
	stepReceipt  = 3
)

// Errors reported by the invocation protocols.
var (
	// ErrEvidenceInvalid is returned when a counterparty's evidence fails
	// verification; application data guarded by it is not released.
	ErrEvidenceInvalid = errors.New("invoke: counterparty evidence failed verification")
	// ErrAborted is returned when a run was aborted through the TTP.
	ErrAborted = errors.New("invoke: run aborted")
	// ErrNoSuchRun is returned for receipts or resolutions referencing an
	// unknown run.
	ErrNoSuchRun = errors.New("invoke: no such run")
)

// Request is the application-level description of an invocation.
type Request struct {
	// Service is the target service URI.
	Service id.Service
	// Operation names the operation to invoke.
	Operation string
	// Params are the already-resolved invocation parameters
	// (section 3.4).
	Params []evidence.Param
	// Streams are payloads delivered as hash-chained chunk streams ahead
	// of the request. Each resolves to a chunk-digest chain parameter
	// (evidence.ParamStream) bound by the run's evidence: a Params entry
	// of that kind with a matching name is filled in place, otherwise the
	// resolved parameter is appended.
	Streams []Stream
	// Txn optionally links the run's evidence to a business
	// transaction.
	Txn id.Txn
}

// Result is what an invocation returns to the client application, together
// with the evidence gathered during the run.
type Result struct {
	Run    id.Run
	Status evidence.Status
	// Result is the invocation result in agreed representation when
	// Status is StatusOK.
	Result []evidence.Param
	// Err describes the failure for non-OK statuses.
	Err string
	// Evidence is every token generated or received by the client's
	// interceptor during the run.
	Evidence []*evidence.Token

	// streams are the run's readable result streams, keyed by name.
	streams map[string]*ResultStream
}

// Stream returns the named streamed result, or nil when the response
// carried none by that name. Reading fetches chunks lazily from the
// server, verifying each against the chain the response evidence signed.
func (r *Result) Stream(name string) *ResultStream { return r.streams[name] }

// StreamNames lists the streamed results of the response.
func (r *Result) StreamNames() []string {
	out := make([]string, 0, len(r.streams))
	for name := range r.streams {
		out = append(out, name)
	}
	return out
}

// wire bodies

type requestBody struct {
	Snapshot evidence.RequestSnapshot `json:"snapshot"`
}

type responseBody struct {
	Snapshot evidence.ResponseSnapshot `json:"snapshot"`
}

type receiptBody struct {
	Note evidence.ReceiptNote `json:"note"`
}

// resolveBody is a server's resolve request to the offline TTP: the full
// evidence of steps 1 and 2, from which the TTP can issue a substitute
// receipt.
type resolveBody struct {
	Request  evidence.RequestSnapshot  `json:"request"`
	Response evidence.ResponseSnapshot `json:"response"`
	NRO      *evidence.Token           `json:"nro"`
	NRR      *evidence.Token           `json:"nrr"`
	NROResp  *evidence.Token           `json:"nro_resp"`
}

// abortBody is a client's abort request to the offline TTP.
type abortBody struct {
	Request evidence.RequestSnapshot `json:"request"`
	NRO     *evidence.Token          `json:"nro"`
}

// decisionBody is the TTP's answer to resolve or abort.
type decisionBody struct {
	// Resolved reports whether the run completed (substitute receipt)
	// or was aborted.
	Resolved bool `json:"resolved"`
}

// DefaultExecTimeout bounds server-side execution when no agreed timeout
// is configured.
const DefaultExecTimeout = 30 * time.Second

// NewRequestMessage assembles the step-1 protocol message carrying a
// request snapshot and its NRO token. It is exposed for interceptors,
// tools and tests that drive the exchange directly (for example, to test
// at-most-once semantics by retransmitting the same run).
func NewRequestMessage(proto string, run id.Run, snap evidence.RequestSnapshot, nro *evidence.Token) *protocol.Message {
	msg := &protocol.Message{
		Protocol: proto,
		Run:      run,
		Txn:      snap.Txn,
		Step:     stepRequest,
		Kind:     kindRequest,
		Tokens:   []*evidence.Token{nro},
	}
	if err := msg.SetBody(requestBody{Snapshot: snap}); err != nil {
		// requestBody is always encodable; failure indicates memory
		// corruption.
		panic(err)
	}
	return msg
}
