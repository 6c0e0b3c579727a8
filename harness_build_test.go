package nonrep_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkHarnessBuilds vets the benchmark harness — a module of
// its own under benchmarks/, outside `go test ./...` — against this
// tree, so a change to an API the harness calls (store.SegmentHeader,
// store.AppendRecordBinary, store.DecodeSegmentData, the vault and
// domain surfaces) fails tier-1 here instead of at benchmark time.
func TestBenchmarkHarnessBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmarks"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go -C benchmarks vet ./...: %v\n%s", err, out)
	}
}
