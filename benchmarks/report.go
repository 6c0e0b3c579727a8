package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
)

// metricDef declares one metric: the Go-side mirror of an entry in
// BENCHMARK.json (the smoke test holds the two to agreement), plus what
// BENCHMARK.json has no key for: which workloads report it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // gated metrics only
	// On lists the workloads that report a per-layer metric, separated by
	// spaces; empty means every workload.
	On string
	// EndToEnd marks a per-layer entry that is one of the issue's
	// end-to-end names kept as a diagnostic: it is measured with spans off
	// and reported by the untraced run too.
	EndToEnd bool
}

// Workload groups for metricDef.On.
const (
	onInvoke = "invoke_seq invoke_batched evidence_plane"
	onCalls  = onInvoke + " stream_bulk" // every workload that invokes: all but audit_read
	onStream = "stream_bulk"
	onAudit  = "audit_read"
	onPlane  = "evidence_plane"
)

// endToEndDefs are the gated metrics: the two of the issue's fifteen
// end-to-end names that every workload reports, that are never zero, and
// that repeat on the reference container well inside their bound — which
// is what the driver's contract asks of an end_to_end metric. No timing
// does (see the README), so by the issue's own rule the timings are
// declared and reported under their names but as diagnostics, in
// perLayerDefs.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "evidence_bytes_per_invocation", Unit: "B", Better: "lower", Bound: 0.02},
}

// perLayerDefs carry no regression bound. First the rest of the issue's
// end-to-end names, then the single-layer metrics of the traced run
// (layer = package name).
var perLayerDefs = []metricDef{
	{Name: "invoke_ops_s", Unit: "1/s", Better: "higher", On: onInvoke, EndToEnd: true},
	{Name: "invoke_p50_ms", Unit: "ms", Better: "lower", On: onInvoke, EndToEnd: true},
	{Name: "invoke_p99_ms", Unit: "ms", Better: "lower", On: onInvoke, EndToEnd: true},
	{Name: "stream_mib_s", Unit: "MiB/s", Better: "higher", On: onStream, EndToEnd: true},
	{Name: "stream_p50_ms", Unit: "ms", Better: "lower", On: onStream, EndToEnd: true},
	{Name: "audit_records_s", Unit: "1/s", Better: "higher", On: onAudit, EndToEnd: true},
	{Name: "lookup_p50_us", Unit: "us", Better: "lower", On: onAudit, EndToEnd: true},
	{Name: "lookup_p99_us", Unit: "us", Better: "lower", On: onAudit, EndToEnd: true},
	{Name: "reopen_s", Unit: "s", Better: "lower", On: onAudit, EndToEnd: true},
	{Name: "feed_lag_p50_ms", Unit: "ms", Better: "lower", On: onPlane, EndToEnd: true},
	{Name: "feed_lag_p99_ms", Unit: "ms", Better: "lower", On: onPlane, EndToEnd: true},
	{Name: "wire_bytes_per_invocation", Unit: "B", Better: "lower", On: onCalls, EndToEnd: true},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", EndToEnd: true},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", EndToEnd: true},

	{Name: "sig.sign_calls", Unit: "count", Better: "lower", On: onCalls},
	{Name: "sig.sign_busy_ms", Unit: "ms/op", Better: "lower", On: onCalls},
	{Name: "sig.verify_us_op", Unit: "us", Better: "lower"},
	{Name: "evidence.tokens_per_signature", Unit: "ratio", Better: "higher", On: onCalls},
	{Name: "evidence.issue_self_ms", Unit: "ms/op", Better: "lower"},
	{Name: "evidence.verify_cold_us_op", Unit: "us", Better: "lower"},
	{Name: "evidence.verify_warm_us_op", Unit: "us", Better: "lower"},
	{Name: "evidence.verify_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "canon.sum_ns_op", Unit: "ns", Better: "lower", On: onCalls},
	{Name: "store.encode_ns_rec", Unit: "ns", Better: "lower"},
	{Name: "store.decode_ns_rec", Unit: "ns", Better: "lower"},
	{Name: "store.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "vault.append_calls", Unit: "count", Better: "lower"},
	{Name: "vault.append_wait_ms", Unit: "ms/op", Better: "lower", On: onCalls},
	{Name: "vault.append_fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "vault.commits", Unit: "count", Better: "lower"},
	{Name: "vault.records_per_commit", Unit: "ratio", Better: "higher", On: onCalls},
	{Name: "vault.seals", Unit: "count", Better: "lower", On: onCalls},
	{Name: "vault.disk_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "vault.scan_records_s", Unit: "1/s", Better: "higher", On: onAudit},
	{Name: "vault.query_us_op", Unit: "us", Better: "lower", On: onAudit},
	{Name: "vault.deepverify_s", Unit: "s", Better: "lower", On: onAudit},
	{Name: "vault.open_ms", Unit: "ms", Better: "lower", On: onAudit},
	{Name: "transport.envelopes_per_invocation", Unit: "ratio", Better: "lower", On: onCalls},
	{Name: "transport.submsgs_per_envelope", Unit: "ratio", Better: "higher", On: onCalls},
	{Name: "transport.request_self_ms", Unit: "ms/op", Better: "lower", On: onCalls},
	{Name: "transport.marshal_ns_op", Unit: "ns", Better: "lower", On: onCalls},
	{Name: "transport.unmarshal_ns_op", Unit: "ns", Better: "lower", On: onCalls},
	{Name: "transport.chunks_per_call", Unit: "ratio", Better: "lower", On: onStream},
	{Name: "transport.chunk_mib_s", Unit: "MiB/s", Better: "higher", On: onStream},
	{Name: "protocol.handle_calls", Unit: "count", Better: "lower", On: onCalls},
	{Name: "protocol.handle_self_ms", Unit: "ms/op", Better: "lower", On: onCalls},
	{Name: "invoke.client_self_ms", Unit: "ms/op", Better: "lower", On: onCalls},
	{Name: "invoke.stream_digest_mib_s", Unit: "MiB/s", Better: "higher", On: onStream},
	{Name: "container.execute_busy_ms", Unit: "ms/op", Better: "lower", On: onCalls},
	{Name: "durable.bracket_records_per_job", Unit: "ratio", Better: "lower", On: onPlane},
	{Name: "durable.submit_self_ms", Unit: "ms/op", Better: "lower", On: onPlane},
	{Name: "feed.events_delivered", Unit: "count", Better: "higher", On: onPlane},
	{Name: "feed.evictions", Unit: "count", Better: "lower", On: onPlane},
	{Name: "feed.deliver_lag_ms", Unit: "ms", Better: "lower", On: onPlane},
	{Name: "georep.pushes", Unit: "count", Better: "lower", On: onPlane},
	{Name: "georep.records_per_push", Unit: "ratio", Better: "higher", On: onPlane},
	{Name: "georep.flush_ms", Unit: "ms", Better: "lower", On: onPlane},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", On: onCalls},
}

// catalogue is every declared metric, the gated ones first.
func catalogue() []metricDef { return slices.Concat(endToEndDefs, perLayerDefs) }

// reportedBy says whether a run of workload, traced or not, must report
// the metric. Gated metrics come from the untraced run, single-layer
// metrics from the traced run, the issue's diagnostic end-to-end names
// from both.
func (d metricDef) reportedBy(workload string, traced bool) bool {
	if d.Bound > 0 {
		return !traced
	}
	if !traced && !d.EndToEnd {
		return false
	}
	return d.On == "" || slices.Contains(strings.Fields(d.On), workload)
}

// metric is one reported value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one run of one workload: the gated metrics and the issue's
// diagnostic end-to-end names from an untraced run, or those diagnostics
// and the per-layer metrics from a traced one.
type result struct {
	Workload  string
	Traced    bool
	Attempted int64
	Failed    int64
	// Problems lists failed correctness checks; a workload with any
	// reports every operation as failed.
	Problems []string
	Notes    []string
	Metrics  map[string]metric
	// SetupReused says that setup_s timed the reuse of a cached audit
	// vault, not its build: the two are not comparable.
	SetupReused bool
}

// finite maps the values JSON cannot carry — a percentile that landed on
// a failed operation (+Inf), a statistic of nothing (NaN) — to the
// largest finite value.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return math.MaxFloat64
	}
	return v
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced, Metrics: make(map[string]metric)}
}

func (r *result) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

func (r *result) problemf(format string, args ...any) {
	if len(r.Problems) < 16 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// set records a value under a name this run is declared to report; the
// unit comes from the declaration so the two cannot drift. Setting a
// metric the declaration does not give this workload is a harness bug.
func (r *result) set(name string, v float64, samples int) {
	for _, d := range catalogue() {
		if d.Name == name && d.reportedBy(r.Workload, r.Traced) {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit, Samples: samples}
			return
		}
	}
	panic("benchmarks: " + r.Workload + " is not declared to report " + name)
}

// finish applies the rule that a workload failing a correctness check
// fails every operation, and fails the run for every metric it was
// declared to report and did not measure: nothing is filled in.
func (r *result) finish() {
	for _, d := range catalogue() {
		if _, ok := r.Metrics[d.Name]; !ok && d.Name != "failed_ratio" && d.reportedBy(r.Workload, r.Traced) {
			r.problemf("metric %s was not measured", d.Name)
		}
	}
	if len(r.Problems) > 0 {
		r.Failed = r.Attempted
	}
	r.set("failed_ratio", r.failedRatio(), int(r.Attempted))
}

func (r *result) failedRatio() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// driverLine is the one-line JSON object the benchmark contract asks for
// as the last line of standard output: every end_to_end metric of
// BENCHMARK.json from an untraced run, every per_layer metric from a
// traced one. The contract wants each per-layer name from each workload,
// so a metric of a layer the workload bypasses reads 0 in this line, and
// only here.
func (r *result) driverLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: make(map[string]value)}
	defs := endToEndDefs
	if r.Traced {
		defs = perLayerDefs
	}
	for _, d := range defs {
		out.Metrics[d.Name] = value{Value: finite(r.Metrics[d.Name].Value), Unit: d.Unit}
	}
	return json.Marshal(out)
}

// printTable writes the human form: every metric by name with its unit.
func (r *result) printTable(w io.Writer) {
	kind := "end-to-end, spans off"
	if r.Traced {
		kind = "per-layer, traced run"
	}
	fmt.Fprintf(w, "\n## %s (%s)\n", r.Workload, kind)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-36s %14.4f %-6s", name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" (n=%d)", m.Samples)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// environment describes where the numbers were taken.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	ScratchDir string `json:"scratch_dir"`
	ScratchFS  string `json:"scratch_fs"`
	Network    string `json:"network"`
	Flush      string `json:"flush_policy"`
}

func describeEnvironment(scratch string) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		ScratchDir: scratch,
		ScratchFS:  filesystemType(scratch),
		Network:    "TCP over loopback, not a real link",
		Flush:      "fsync per group commit (the vault's default policy)",
	}
}

// filesystemType names the filesystem holding dir, best effort.
func filesystemType(dir string) string {
	if out, err := exec.Command("stat", "-f", "-c", "%T", dir).Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		return fmt.Sprintf("statfs type 0x%x", st.Type)
	}
	return "unknown"
}

// peakRSSMiB is the process's high-water resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeDocument writes the -out JSON document:
// {workload: {metric: {value, unit, samples}}} plus environment and seed.
func writeDocument(path string, seed int64, env environment, results []*result) error {
	doc := struct {
		Seed        int64                        `json:"seed"`
		Environment environment                  `json:"environment"`
		Workloads   map[string]map[string]metric `json:"workloads"`
		Notes       map[string][]string          `json:"notes,omitempty"`
	}{Seed: seed, Environment: env, Workloads: map[string]map[string]metric{}, Notes: map[string][]string{}}
	for _, r := range results {
		if doc.Workloads[r.Workload] == nil {
			doc.Workloads[r.Workload] = map[string]metric{}
		}
		for name, m := range r.Metrics {
			m.Value = finite(m.Value)
			doc.Workloads[r.Workload][name] = m
		}
		doc.Notes[r.Workload] = append(doc.Notes[r.Workload], r.Notes...)
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
