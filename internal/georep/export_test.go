package georep

import "time"

// WithRetryInterval sets the engine's background retry cadence for failed
// targets, so fault tests that wait on wall-clock quorum timeouts see a
// recovered target retried within them.
func WithRetryInterval(d time.Duration) EngineOption {
	return func(e *Engine) { e.every = d }
}
