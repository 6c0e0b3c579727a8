package durable

import "nonrep/internal/invoke"

// QueueCap is the dispatch queue bound New applies.
const QueueCap = queueCap

// NewSized is New with the execution width and queue bound given, so
// tests can saturate a runtime with a few jobs.
func NewSized(cli *invoke.Client, j *Journal, cfg Config, width, queue int) *Runtime {
	return newRuntime(cli, j, cfg, width, queue)
}
