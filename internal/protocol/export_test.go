package protocol

// WatchBuffer returns cfg with its local event buffer set to n, so
// external tests can overflow a feed with a few records.
func WatchBuffer(cfg WatchConfig, n int) WatchConfig {
	cfg.buffer = n
	return cfg
}
