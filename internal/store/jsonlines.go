package store

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"nonrep/internal/canon"
)

// ReadJSONLines streams the well-formed JSON-line prefix of path to fn
// along with each line's byte length (including the newline). It returns
// the byte length of that prefix and whether a torn final line — the
// footprint of a crash mid-write — was dropped. Writers append and flush
// whole newline-terminated lines before acknowledging, so a final line
// missing its newline was never acknowledged and is a torn write even if
// its bytes happen to parse; a garbled line that is newline-terminated is
// corruption, not a torn write, and yields an error. A missing file reads
// as empty.
//
// This is the crash-recovery reader under the vault's manifest files.
func ReadJSONLines[T any](path string, fn func(v *T, lineLen int64) error) (int64, bool, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("store: open %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1024*1024)
	var prefix int64
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr == io.EOF {
			return prefix, len(bytes.TrimSpace(line)) > 0, nil
		}
		if rerr != nil {
			return prefix, false, fmt.Errorf("store: read %s: %w", path, rerr)
		}
		body := bytes.TrimRight(line, "\r\n")
		if len(body) > 0 {
			v := new(T)
			if uerr := canon.Unmarshal(body, v); uerr != nil {
				return prefix, false, fmt.Errorf("store: corrupt line in %s: %w", path, uerr)
			}
			if ferr := fn(v, int64(len(line))); ferr != nil {
				return prefix, false, ferr
			}
		}
		prefix += int64(len(line))
	}
}
