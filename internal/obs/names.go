package obs

import "strings"

// Canonical metric names. Layers resolve instruments through these so
// the exposition surface, the benchmark deltas and the README reference
// stay one vocabulary.
const (
	// Evidence plane.
	MTokenIssueNs        = "nonrep_token_issue_ns"
	MTokensIssuedTotal   = "nonrep_tokens_issued_total"
	MTokenVerifyNs       = "nonrep_token_verify_ns"
	MTokenVerifyFailed   = "nonrep_token_verify_failed_total"
	MTokensVerifiedTotal = "nonrep_tokens_verified_total"
	MSignaturesTotal     = "nonrep_signatures_total"

	// Vault (group commit + seal chain).
	MVaultAppendNs     = "nonrep_vault_append_ns"
	MVaultCommitNs     = "nonrep_vault_commit_ns"
	MVaultCommitBatch  = "nonrep_vault_commit_batch"
	MVaultFsyncNs      = "nonrep_vault_fsync_ns"
	MVaultSealNs       = "nonrep_vault_seal_ns"
	MVaultSealsTotal   = "nonrep_vault_seals_total"
	MVaultRecordsTotal = "nonrep_vault_records_total"
	MVaultBytesTotal   = "nonrep_vault_bytes_total"

	// Replication.
	MReplShippedTotal    = "nonrep_replication_shipped_segments_total"
	MReplLagSegments     = "nonrep_replication_lag_segments"
	MReplBacklogSegments = "nonrep_replication_backlog_segments"
	MReplErrorsTotal     = "nonrep_replication_errors_total"

	// Transport.
	MChunkReassemblyBytes = "nonrep_chunk_reassembly_bytes"
	MDedupHitsTotal       = "nonrep_dedup_hits_total"

	// Wire traffic (the transport.Metered counters, re-homed).
	MWireMessagesTotal    = "nonrep_wire_messages_total"
	MWireBytesTotal       = "nonrep_wire_bytes_total"
	MWireBatchesTotal     = "nonrep_wire_batches_total"
	MWireSubMessagesTotal = "nonrep_wire_submessages_total"
	MWireLogicalTotal     = "nonrep_wire_logical_total"

	// Durable invocations (the job journal and its retry loop).
	MJobsEnqueuedTotal  = "nonrep_durable_jobs_enqueued_total"
	MJobsCompletedTotal = "nonrep_durable_jobs_completed_total"
	MJobsFailedTotal    = "nonrep_durable_jobs_failed_total"
	MJobRetriesTotal    = "nonrep_durable_job_retries_total"
	MJobsRecoveredTotal = "nonrep_durable_jobs_recovered_total"
	MJobQueueDepth      = "nonrep_durable_queue_depth"
	// MAbortJournaledTotal counts fair-protocol aborts whose send to the
	// TTP failed and which were journaled for durable retry instead of
	// being silently abandoned.
	MAbortJournaledTotal = "nonrep_invoke_abort_journaled_total"
	MAbortFailedTotal    = "nonrep_invoke_abort_failed_total"
	// MInvokeOpenRunsEvictedTotal counts runs an invocation server forgot
	// with their receipt still outstanding (its bound on such runs was
	// reached); a receipt arriving later for one is refused.
	MInvokeOpenRunsEvictedTotal = "nonrep_invoke_open_runs_evicted_total"
	// MInvokeReceiptsUndeliveredTotal counts response receipts a client
	// issued that the server (or a relay on the way) did not take: the
	// delivery failed or was refused. The call still returned its result.
	MInvokeReceiptsUndeliveredTotal = "nonrep_invoke_receipts_undelivered_total"

	// Outbound worker links and the host-side worker gateway.
	MWorkerReconnectsTotal   = "nonrep_worker_reconnects_total"
	MGatewayQueueDepth       = "nonrep_gateway_queue_depth"
	MGatewayAdmissionRejects = "nonrep_gateway_admission_rejected_total"
	MGatewayDispatchTotal    = "nonrep_gateway_dispatched_total"
	MGatewayRequeuedTotal    = "nonrep_gateway_requeued_total"

	// Live evidence subscriptions, counted by the publisher where it
	// pushes; the lag is the vault head minus the last record a push
	// delivered.
	MSubSubscribers   = "nonrep_sub_subscribers"
	MSubPushedRecords = "nonrep_sub_pushed_records_total"
	MSubPushedSeals   = "nonrep_sub_pushed_seals_total"
	MSubEvictedTotal  = "nonrep_sub_evicted_total"
	MSubLagRecords    = "nonrep_sub_lag_records"
)

// envelopeMetricPrefix prefixes the per-protocol-kind envelope counters.
const envelopeMetricPrefix = "nonrep_envelopes_"

// EnvelopeMetric names the per-kind envelope counter for one envelope
// kind: "b2b-deliver-request" → "nonrep_envelopes_b2b_deliver_request_total".
func EnvelopeMetric(kind string) string {
	return envelopeMetricPrefix + strings.ReplaceAll(kind, "-", "_") + "_total"
}
