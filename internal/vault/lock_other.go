//go:build !unix

package vault

import "os"

// Non-unix platforms have no flock; the vault still opens but without
// cross-process exclusion. Single-opener discipline is then on the
// operator.
func flockExclusive(_ *os.File) error { return nil }

func flockShared(_ *os.File) error { return nil }

func funlock(_ *os.File) {}
