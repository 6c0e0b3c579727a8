// Package nonrep is component middleware for non-repudiable service
// interactions — a Go implementation of Cook, Robinson and Shrivastava,
// "Component Middleware to Support Non-repudiable Service Interactions"
// (University of Newcastle CS-TR-834 / DSN 2004).
//
// The middleware realises the paper's trusted-interceptor abstraction:
// each organisation runs a trusted interceptor (an Org in this API) that
// mediates its interactions, producing and verifying signed
// non-repudiation evidence. Two building blocks are provided:
//
//   - Non-repudiable service invocation: a three-message evidence exchange
//     (NRO of the request, NRR of the request plus NRO of the response,
//     NRR of the response) wrapped around an at-most-once RPC, with
//     direct, voluntary-baseline, inline-TTP and fair (offline-TTP
//     recovery) protocol variants.
//
//   - Non-repudiable information sharing: replicated objects whose every
//     update is attributed to its proposer, unanimously validated by
//     application-specific validators at every member, and applied
//     atomically everywhere or nowhere, with a hash-chained agreed
//     history.
//
// A Domain assembles organisations, their certificates and transport into
// a trust domain:
//
//	domain, _ := nonrep.NewDomain()
//	defer domain.Close()
//	client, _ := domain.AddOrg("urn:org:dealer")
//	server, _ := domain.AddOrg("urn:org:manufacturer")
//	server.Deploy(desc, component)
//	server.Serve()
//	proxy := client.Proxy("urn:org:manufacturer", "urn:org:manufacturer/orders")
//	res, err := proxy.Call(ctx, "PlaceOrder", spec)
//
// Every call yields four evidence tokens, persisted in both parties'
// tamper-evident logs and checkable offline by an Adjudicator.
//
// Domains scale past one endpoint per organisation with multi-tenant
// hosts: NewHost starts a sharded coordinator runtime serving many
// hosted organisations behind one shared endpoint (one TCP listener
// under WithTCP), and Domain.AddHostedOrg enrols organisations behind
// it. Hosted organisations keep fully isolated evidence services and
// interoperate freely with dedicated ones:
//
//	host, _ := nonrep.NewHost(domain)
//	hosted, _ := domain.AddHostedOrg(host, "urn:org:tenant-a")
package nonrep

import (
	"context"
	"io"

	"nonrep/internal/access"
	"nonrep/internal/blob"
	"nonrep/internal/container"
	"nonrep/internal/contract"
	"nonrep/internal/core"
	"nonrep/internal/evidence"
	"nonrep/internal/georep"
	"nonrep/internal/id"
	"nonrep/internal/invoke"
	"nonrep/internal/obs"
	"nonrep/internal/protocol"
	"nonrep/internal/sharing"
	"nonrep/internal/sig"
	"nonrep/internal/store"
	"nonrep/internal/vault"
)

// Identity vocabulary.
type (
	// Party identifies an organisation by URI.
	Party = id.Party
	// Service identifies an invocable service endpoint by URI.
	Service = id.Service
	// Run identifies one protocol run.
	Run = id.Run
	// Txn links evidence of related runs into one business transaction.
	Txn = id.Txn
)

// NewTxn returns a fresh transaction identifier.
func NewTxn() Txn { return id.NewTxn() }

// Evidence vocabulary.
type (
	// Token is a signed item of non-repudiation evidence.
	Token = evidence.Token
	// TokenKind classifies evidence tokens.
	TokenKind = evidence.Kind
	// Param is an invocation parameter or result in agreed
	// representation (section 3.4 of the paper).
	Param = evidence.Param
	// SharedRef resolves shared information to a state digest and
	// sharing mechanism.
	SharedRef = evidence.SharedRef
	// Status describes how a response was produced.
	Status = evidence.Status
	// Record is one entry of a tamper-evident evidence log.
	Record = store.Record
	// Digest is a SHA-256 digest of canonical content.
	Digest = sig.Digest
)

// Response statuses.
const (
	StatusOK          = evidence.StatusOK
	StatusFailed      = evidence.StatusFailed
	StatusTimeout     = evidence.StatusTimeout
	StatusAborted     = evidence.StatusAborted
	StatusNotExecuted = evidence.StatusNotExecuted
)

// Token kinds.
const (
	KindNRO        = evidence.KindNRO
	KindNRR        = evidence.KindNRR
	KindNROResp    = evidence.KindNROResp
	KindNRRResp    = evidence.KindNRRResp
	KindProposal   = evidence.KindProposal
	KindDecision   = evidence.KindDecision
	KindOutcome    = evidence.KindOutcome
	KindAck        = evidence.KindAck
	KindSubstitute = evidence.KindSubstitute
	KindAbort      = evidence.KindAbort
	KindPostmark   = evidence.KindPostmark
)

// Streaming vocabulary: payloads of unbounded size travel as hash-chained
// chunk streams with the same non-repudiation guarantees as inline
// parameters — the run's evidence signs each payload's chunk-digest chain
// root, so every chunk is independently verifiable and a tampered or
// missing chunk is attributable by index.
type (
	// Stream declares a streamed invocation parameter (see StreamParam).
	Stream = invoke.Stream
	// StreamRef is a payload resolved to its chunk-digest chain — the
	// agreed representation the evidence tokens bind.
	StreamRef = evidence.StreamRef
	// ResultStream reads a streamed invocation result, fetching and
	// verifying chunks lazily against the signed chain (Result.Stream).
	ResultStream = invoke.ResultStream
	// ResultStreams collects streamed results on the server side
	// (Invocation.ResultWriter for components; StreamExecutor directly).
	ResultStreams = invoke.ResultStreams
	// StreamExecutor is an Executor accepting streamed parameters and
	// producing streamed results (implemented by Container).
	StreamExecutor = invoke.StreamExecutor
	// StreamExecutorFunc adapts a function to StreamExecutor.
	StreamExecutorFunc = invoke.StreamExecutorFunc
)

// StreamParam declares a streamed parameter for Proxy.CallStream (or
// Request.Streams): the payload is read once from r, shipped as
// size-bounded chunks, and bound by the run's evidence through its
// chunk-digest chain.
func StreamParam(name string, r io.Reader) Stream { return invoke.StreamParam(name, r) }

// ValueParam resolves a value-typed argument to its agreed
// representation.
func ValueParam(name string, v any) (Param, error) { return evidence.ValueParam(name, v) }

// ServiceRefParam resolves a service reference to its URI.
func ServiceRefParam(name string, uri Service) Param { return evidence.ServiceRefParam(name, uri) }

// SharedRefParam resolves shared information to its state digest and
// sharing mechanism.
func SharedRefParam(name string, ref SharedRef) Param { return evidence.SharedRefParam(name, ref) }

// Invocation vocabulary.
type (
	// Request describes an invocation.
	Request = invoke.Request
	// Result is an invocation outcome with its evidence.
	Result = invoke.Result
	// RequestSnapshot is the verified request an Executor receives.
	RequestSnapshot = evidence.RequestSnapshot
	// Executor executes verified requests (implemented by Container).
	Executor = invoke.Executor
	// ExecutorFunc adapts a function to Executor.
	ExecutorFunc = invoke.ExecutorFunc
	// ClientOption configures an invocation client.
	ClientOption = invoke.ClientOption
	// ServerOption configures an invocation server.
	ServerOption = invoke.ServerOption
)

// Invocation protocol names.
const (
	ProtocolDirect    = invoke.ProtocolDirect
	ProtocolVoluntary = invoke.ProtocolVoluntary
	ProtocolInline    = invoke.ProtocolInline
	ProtocolFair      = invoke.ProtocolFair
)

// Client options re-exported from the invoke package.
var (
	// WithProtocol selects the invocation protocol.
	WithProtocol = invoke.WithProtocol
	// Via routes the exchange through inline TTP relays (Figure 3a/3b).
	Via = invoke.Via
	// WithOfflineTTP enables fair-protocol abort/resolve recovery.
	WithOfflineTTP = invoke.WithOfflineTTP
	// WithConsumption overrides the client's consumption report.
	WithConsumption = invoke.WithConsumption
	// ForProtocol selects the protocol a server executes.
	ForProtocol = invoke.ForProtocol
	// WithExecTimeout sets the server's agreed execution timeout.
	WithExecTimeout = invoke.WithExecTimeout
	// WithVoluntaryReceipt makes a voluntary-protocol server return a
	// receipt.
	WithVoluntaryReceipt = invoke.WithVoluntaryReceipt
	// WithRecovery configures fair-protocol TTP recovery.
	WithRecovery = invoke.WithRecovery
	// WithholdReceipt injects client misbehaviour (never acknowledging
	// the response) for tests and demonstrations of the recovery paths.
	WithholdReceipt = invoke.WithholdReceipt
)

// Consumption reports.
const (
	Consumed    = evidence.Consumed
	NotConsumed = evidence.NotConsumed
)

// Sharing vocabulary.
type (
	// Version is one entry of a shared object's agreed history.
	Version = sharing.Version
	// Validator validates proposed changes to shared information.
	Validator = sharing.Validator
	// ValidatorFunc adapts a function to Validator.
	ValidatorFunc = sharing.ValidatorFunc
	// Verdict is a validator's decision.
	Verdict = sharing.Verdict
	// Change is the application-facing view of a proposal.
	Change = sharing.Change
	// ShareResult is a coordination round's outcome.
	ShareResult = sharing.Result
	// SubUpdate is one object's part of an atomic multi-object update
	// (Org.Sharing().ProposeAtomic — the transactional extension of
	// paper section 6).
	SubUpdate = sharing.SubUpdate
)

// Accept is the affirmative validator verdict.
func Accept() Verdict { return sharing.Accept() }

// Reject is a negative validator verdict with a reason.
func Reject(reason string) Verdict { return sharing.Reject(reason) }

// VerifyHistory checks a shared object's version hash chain.
func VerifyHistory(history []Version) error { return sharing.VerifyHistory(history) }

// Container vocabulary.
type (
	// Descriptor is a component deployment descriptor.
	Descriptor = container.Descriptor
	// MethodPolicy is the per-method deployment policy.
	MethodPolicy = container.MethodPolicy
	// Interceptor is one element of an invocation-path chain.
	Interceptor = container.Interceptor
	// Invoker is the downstream target of an interceptor.
	Invoker = container.Invoker
	// InvokerFunc adapts a function to Invoker.
	InvokerFunc = container.InvokerFunc
	// Invocation is the container-level view of a call.
	Invocation = container.Invocation
	// Proxy is a client-side dynamic proxy for a remote component.
	Proxy = container.Proxy
	// SharedEntity is an entity component coordinated as a B2BObject.
	SharedEntity = container.SharedEntity
	// Role names a virtual-enterprise role.
	Role = access.Role
)

// Contract vocabulary (run-time contract monitoring, paper section 6).
type (
	// Contract is an executable finite-state contract.
	Contract = contract.Contract
	// ContractState names a contract state.
	ContractState = contract.State
	// Transition is one contract edge.
	Transition = contract.Transition
	// Monitor executes a contract.
	Monitor = contract.Monitor
)

// NewMonitor verifies a contract and starts a monitor.
func NewMonitor(c *Contract) (*Monitor, error) { return contract.NewMonitor(c) }

// ContractValidator adapts a monitor into a sharing validator plus the
// apply hook that advances the machine on agreed changes.
func ContractValidator(m *Monitor, eventOf func(*Change) string) (Validator, func([]byte, Version)) {
	v, apply := contract.ShareValidator(m, contract.EventFunc(eventOf))
	return v, apply
}

// Adjudication vocabulary.
type (
	// Adjudicator evaluates evidence logs in dispute resolution.
	Adjudicator = core.Adjudicator
	// LogReport is a full-log audit result.
	LogReport = core.LogReport
	// RunReport reconstructs what evidence proves about one run.
	RunReport = core.RunReport
	// RecordSource streams evidence records to the adjudicator.
	RecordSource = core.RecordSource
)

// Records presents records already in memory (a bundle's logs, a
// QueryAll result) to the adjudicator's AuditStream and AuditRunStream;
// an Org's own evidence streams straight from Org.Vault().Query.
func Records(records []*Record) RecordSource { return core.Records(records) }

// Evidence vault vocabulary (segmented, indexed, group-committed evidence
// storage; see Org WithVault).
type (
	// Vault is the production-scale evidence store.
	Vault = vault.Vault
	// VaultOption tunes a vault (VaultSegmentRecords, VaultWithoutSync,
	// VaultReadOnly, VaultRestoreFrom).
	VaultOption = vault.Option
	// VaultQuery selects evidence records for adjudication.
	VaultQuery = vault.Query
	// VaultIterator streams query results without materialising the log.
	VaultIterator = vault.Iterator
	// VaultStats reports a vault's shape.
	VaultStats = vault.Stats
	// VaultManifestEntry seals one vault segment; seals travel with
	// replicated segments and are re-verified on receipt.
	VaultManifestEntry = vault.ManifestEntry
	// SegmentPackage is one sealed segment in transit between
	// organisations.
	SegmentPackage = vault.SegmentPackage
	// ReplicaSet is an organisation's verified store of peers' sealed
	// segments (Org.Replicas).
	ReplicaSet = vault.ReplicaSet
	// AuditClient drives remote audits and replication shipping
	// (Org.AuditClient).
	AuditClient = protocol.AuditClient
	// RemoteRecords streams a remote vault audit page by page; it is a
	// RecordSource for Adjudicator.AuditStream.
	RemoteRecords = protocol.RemoteIterator
)

// Live-subscription vocabulary (Org.Subscribe, Domain.Watch): a
// token-authorized, hash-chain-continuous push feed over a peer
// organisation's vault.
type (
	// WatchConfig shapes one subscription: resume position, seal and
	// segment interest, local buffering.
	WatchConfig = protocol.WatchConfig
	// Feed is one open subscription; consume Events, resume from
	// Position after a failure.
	Feed = protocol.Feed
	// FeedEvent is one verified delivery: a chain-continuous record
	// batch, or a seal (with its segment package when subscribed with
	// Segments).
	FeedEvent = protocol.FeedEvent
	// ProvGraph is the provenance neighbourhood of one run: run → tokens
	// → parties → derived runs (Org.Provenance).
	ProvGraph = vault.ProvGraph
	// ProvToken is one provenance edge, anchored at its vault sequence.
	ProvToken = vault.ProvToken
)

// Feed-ending errors (Feed.Err after the event channel closes).
var (
	// ErrSubEvicted: the publisher evicted this subscriber (slow consumer
	// or shutdown); reopen from Feed.Position.
	ErrSubEvicted = protocol.ErrSubEvicted
	// ErrFeedOverflow: the local consumer stopped draining Feed.Events.
	ErrFeedOverflow = protocol.ErrFeedOverflow
	// ErrFeedDetached: the subscribing organisation was detached.
	ErrFeedDetached = protocol.ErrFeedDetached
)

// Telemetry vocabulary (enable with WithTelemetry; see Domain.Telemetry).
type (
	// Telemetry is a domain's telemetry plane: per-tenant metrics
	// registry, run-scoped tracer and health sources, servable over HTTP
	// (Telemetry.Serve: /metricsz, /tracez, /healthz).
	Telemetry = obs.Telemetry
	// TelemetryScope is a tenant-labelled view of the telemetry plane.
	TelemetryScope = obs.Scope
	// MetricsSnapshot is a point-in-time copy of every metric.
	MetricsSnapshot = obs.Snapshot
	// SpanRecord is one finished trace span.
	SpanRecord = obs.SpanRecord
	// TraceNode is one node of an assembled trace tree
	// (obs.BuildTree over a trace's spans).
	TraceNode = obs.TraceNode
)

// BuildTraceTree assembles finished spans into parent/child trees, e.g.
// over Telemetry.Tracer().ByTrace(string(result.Run)).
func BuildTraceTree(spans []SpanRecord) []*TraceNode { return obs.BuildTree(spans) }

// OpenVault opens (creating if necessary) a standalone evidence vault —
// for audit tooling working directly on a vault directory, outside any
// Domain.
var OpenVault = vault.Open

// OpenReplicaSet opens a standalone replica store — for audit tooling
// working directly on replica directories, outside any Domain.
var OpenReplicaSet = vault.OpenReplicaSet

// Standalone-vault options beyond the Org enrolment set.
var (
	// VaultReadOnly opens a vault for audit only (nothing on disk is
	// created or rewritten; works from read-only media).
	VaultReadOnly = vault.WithReadOnly
	// VaultRestoreFrom rebuilds a lost vault from a replica directory
	// before opening — the disaster-recovery path.
	VaultRestoreFrom = vault.WithRestoreFrom
)

// Replicated evidence (WithReplication, WithQuorum, WithArchive;
// Org.Durability).
type (
	// BlobStore is a pluggable object store for the archival tier:
	// OpenBlobFS for a local filesystem, NewMemBlob for the in-process
	// fake, or any compatible implementation.
	BlobStore = blob.Store
	// DurabilityStatus is an organisation's replication state — policy
	// mode, quorum arithmetic, per-replica acknowledgement watermarks and
	// archival progress (Org.Durability; surfaced on /healthz).
	DurabilityStatus = georep.Status
	// DurabilityTarget is one peer replica's health within a
	// DurabilityStatus.
	DurabilityTarget = georep.TargetStatus
	// EvidenceArchive reads and writes the object-store archival tier
	// (Org.Archive, or NewEvidenceArchive over a BlobStore directly).
	EvidenceArchive = georep.Archive
)

var (
	// OpenBlobFS opens a local-filesystem object store rooted at a
	// directory — the archival tier for single-machine deployments.
	OpenBlobFS = blob.OpenFS
	// NewMemBlob creates an in-process object store with fault and
	// corruption injection — the S3-style fake tests run against.
	NewMemBlob = blob.NewMem
	// NewEvidenceArchive wraps an object store as an evidence archive
	// outside any Domain — restore tooling uses it on a bare store.
	NewEvidenceArchive = georep.NewArchive
	// ErrQuorumUnmet: a sync-quorum append was not acknowledged by
	// enough replicas within the policy timeout. The record is locally
	// durable and keeps replicating; match with errors.Is.
	ErrQuorumUnmet = georep.ErrQuorumUnmet
	// ErrArchiveCorrupt: an archive object's bytes fail verification —
	// structure, entry seal or content digest; match with errors.Is.
	ErrArchiveCorrupt = georep.ErrArchiveCorrupt
)

// RestoreVaultFromArchive rebuilds — or incrementally completes — a
// vault directory for source from the archival tier, fetching only the
// segments the directory is missing and refusing divergent local
// history. The region-loss recovery path when no replica survives:
// afterwards OpenVault opens the directory normally and DeepVerify
// passes. Returns the number of segments installed.
func RestoreVaultFromArchive(ctx context.Context, store BlobStore, dir string, source Party) (int, error) {
	return georep.NewArchive(store).RestoreInto(ctx, dir, string(source))
}
