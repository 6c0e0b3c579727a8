package evidence

import (
	"encoding/json"
	"fmt"
	"strconv"

	"nonrep/internal/canon"
	"nonrep/internal/id"
	"nonrep/internal/sig"
)

// ParamKind classifies an invocation parameter or result for evidence
// purposes, following section 3.4: value types are resolved to an agreed
// representation of their state; service references to a URI; shared
// information to a state digest plus a reference to the sharing mechanism.
type ParamKind string

// Parameter kinds.
const (
	// ParamValue is a value type (or local object reference) resolved to
	// its canonical state at invocation time.
	ParamValue ParamKind = "value"
	// ParamServiceRef is a reference to a service, resolved to a URI.
	ParamServiceRef ParamKind = "service-ref"
	// ParamSharedRef is a reference to shared information, resolved to
	// the agreed state digest and the sharing mechanism.
	ParamSharedRef ParamKind = "shared-ref"
)

// SharedRef resolves shared information per section 3.4: "a representation
// of the state of the information and a reference to the mechanism for
// sharing the information that is resolvable by the remote party".
type SharedRef struct {
	Object      string     `json:"object"`
	Version     uint64     `json:"version"`
	StateDigest sig.Digest `json:"state_digest"`
	// Mechanism is the URI of the coordination endpoint through which the
	// remote party can access the shared information after invocation.
	Mechanism string `json:"mechanism"`
}

// Param is one invocation parameter or result component in agreed
// representation.
type Param struct {
	Kind  ParamKind       `json:"kind"`
	Name  string          `json:"name,omitempty"`
	Value json.RawMessage `json:"value,omitempty"`
	URI   string          `json:"uri,omitempty"`
	Ref   *SharedRef      `json:"ref,omitempty"`
	// Stream resolves a streamed payload (Kind ParamStream) to its
	// chunk-digest chain; the chain's root is what the run's evidence
	// tokens bind.
	Stream *StreamRef `json:"stream,omitempty"`
}

// ValueParam resolves a value-typed argument to its canonical
// representation.
func ValueParam(name string, v any) (Param, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return Param{}, fmt.Errorf("evidence: resolve value parameter %q: %w", name, err)
	}
	return Param{Kind: ParamValue, Name: name, Value: raw}, nil
}

// ServiceRefParam resolves a service reference to its URI.
func ServiceRefParam(name string, uri id.Service) Param {
	return Param{Kind: ParamServiceRef, Name: name, URI: uri.String()}
}

// SharedRefParam resolves shared information to its state digest and
// sharing mechanism.
func SharedRefParam(name string, ref SharedRef) Param {
	return Param{Kind: ParamSharedRef, Name: name, Ref: &ref}
}

// RequestSnapshot is the meaningful, signed snapshot of a service
// invocation request (section 3.4: "the service invoked, identified by a
// globally resolvable name such as a URI, and any parameters").
type RequestSnapshot struct {
	Run       id.Run     `json:"run"`
	Txn       id.Txn     `json:"txn,omitempty"`
	Client    id.Party   `json:"client"`
	Server    id.Party   `json:"server"`
	Service   id.Service `json:"service"`
	Operation string     `json:"operation"`
	Params    []Param    `json:"params,omitempty"`
	Protocol  string     `json:"protocol"`
}

// Digest returns the canonical digest of the request snapshot.
func (r *RequestSnapshot) Digest() (sig.Digest, error) { return sig.SumCanonical(r) }

// Status describes how a server-side response was produced. Beyond normal
// execution, the interceptor may generate evidence that the request failed,
// timed out, was aborted by the client, or was received but not executed
// (section 3.2).
type Status int

// Response statuses.
const (
	// StatusOK is a normal result of executing the request.
	StatusOK Status = iota + 1
	// StatusFailed records that execution of the request failed.
	StatusFailed
	// StatusTimeout records that the server did not respond within the
	// agreed timeout.
	StatusTimeout
	// StatusAborted records that the client aborted the request before a
	// result was available.
	StatusAborted
	// StatusNotExecuted records that the request was received but not
	// executed (for example, evidence exchange failed).
	StatusNotExecuted
)

// String returns the conventional name of the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusFailed:
		return "failed"
	case StatusTimeout:
		return "timeout"
	case StatusAborted:
		return "aborted"
	case StatusNotExecuted:
		return "not-executed"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ResponseSnapshot is the signed snapshot of the server-side response.
type ResponseSnapshot struct {
	Run    id.Run   `json:"run"`
	Server id.Party `json:"server"`
	Status Status   `json:"status"`
	// Result carries the invocation result in agreed representation when
	// Status is StatusOK.
	Result []Param `json:"result,omitempty"`
	// Error describes the failure for non-OK statuses.
	Error string `json:"error,omitempty"`
	// RequestDigest binds the response to the request it answers.
	RequestDigest sig.Digest `json:"request_digest"`
}

// Digest returns the canonical digest of the response snapshot.
func (r *ResponseSnapshot) Digest() (sig.Digest, error) { return sig.SumCanonical(r) }

// Consumption qualifies a response receipt: the client-side interceptor may
// report that a response was received but not consumed by the client
// (section 3.2), which the server can use as evidence that it did work the
// client never took up.
type Consumption int

// Consumption outcomes.
const (
	// Consumed means the client consumed the response.
	Consumed Consumption = iota + 1
	// NotConsumed means the response was received by the client's
	// interceptor but not delivered to the client.
	NotConsumed
)

// String returns the conventional name of the consumption outcome.
func (c Consumption) String() string {
	switch c {
	case Consumed:
		return "consumed"
	case NotConsumed:
		return "not-consumed"
	default:
		return fmt.Sprintf("consumption(%d)", int(c))
	}
}

// ReceiptNote is the content evidenced by an NRRResp token: it binds the
// response digest to the client's consumption report.
type ReceiptNote struct {
	Run            id.Run      `json:"run"`
	Client         id.Party    `json:"client"`
	ResponseDigest sig.Digest  `json:"response_digest"`
	Consumption    Consumption `json:"consumption"`
}

// Digest returns the canonical digest of the receipt note. The segment
// encoder digests one for every receipt whose digest it may rebuild
// (ReceiptOf), so the note's canonical JSON is written field by field, as
// canon.Marshal writes it.
func (r *ReceiptNote) Digest() (sig.Digest, error) {
	var buf [192]byte
	b := canon.AppendJSONString(append(buf[:0], `{"run":`...), string(r.Run))
	b = canon.AppendJSONString(append(b, `,"client":`...), string(r.Client))
	b = canon.AppendJSONHex(append(b, `,"response_digest":`...), r.ResponseDigest[:])
	b = strconv.AppendInt(append(b, `,"consumption":`...), int64(r.Consumption), 10)
	return sig.Sum(append(b, '}')), nil
}
