package vault

// WithMaxBatch caps how many pending appends one group commit absorbs,
// so tests can make the committer cut batches as often as it can.
func WithMaxBatch(n int) Option {
	return func(v *Vault) { v.maxBatch = n }
}

// Queued reports how many append requests wait for the committer.
func (v *Vault) Queued() int { return len(v.appendC) }

// Windows reports how many index windows the iterator's keyed reads of
// sealed segments decoded.
func (it *Iterator) Windows() int { return it.windows }
