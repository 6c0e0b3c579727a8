// Command benchmarks is the repository's benchmark: five closed-loop
// workloads over the evidence plane, each reporting the end-to-end
// metrics declared in BENCHMARK.json (tracing off) or, with -trace 1, the
// per-layer metrics of a traced run. See README.md in this directory.
//
//	bash benchmarks/run.sh -workload all -seed 1
//	bash benchmarks/run.sh -workload invoke_batched -seed 1 -trace 1 -trace-out spans.jsonl
//	bash benchmarks/run.sh -selfcheck
//
// With a single -workload the last line of standard output is one JSON
// object {correct, attempted, failed, metrics}: the form the benchmark
// driver reads.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"slices"
	"syscall"
)

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name string
	why  string
	run  func(ctx context.Context, env runEnv) (*result, error)
}

var workloadDefs = []workloadDef{
	{"invoke_seq", "latency-bound: fixed per-invocation cost, batching layers idle (control for batching and sharding work)", invokeSeq.run},
	{"invoke_batched", "throughput-bound: 8x8 hosted tenants, pipelined, aggregate signing and group commit do the work", invokeBatched.run},
	{"stream_bulk", "byte-bound: 8 MiB streamed and echoed, chunking and digesting dominate, signing is a small fixed cost", streamBulk.run},
	{"audit_read", "read side, larger than cache: reopen, full audits, run lookups and deep verify over a sealed vault", runAuditRead},
	{"evidence_plane", "full plane on the commit hooks: durable jobs, async replication and 17 live feeds beside the appends", evidencePlane.run},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed for payload bytes, tenant pairs, lookup keys and sampled runs")
		// The driver passes BENCHMARK.json's run_seconds; audit_read runs a
		// fixed work list whatever this says.
		seconds   = flag.Float64("seconds", 10, "measured seconds per workload")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics with spans off; 1: per-layer metrics from a traced run")
		traceOut  = flag.String("trace-out", "", "with -trace 1, write the spans here (one JSON object per line)")
		out       = flag.String("out", "", "also write the results as one JSON document")
		selfcheck = flag.Bool("selfcheck", false, "run all workloads twice and fail if a gated metric differs by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 || *seconds > 600 {
		return fmt.Errorf("-seconds must be in (0, 600]")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	session, err := os.MkdirTemp("", "nrbenchmark-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(session)
	env := runEnv{seed: *seed, seconds: *seconds, traced: *trace == 1, scratch: session, spanOut: *traceOut}
	host := describeEnvironment(session)
	fmt.Printf("# nonrep benchmark: seed=%d seconds=%g trace=%d nproc=%d %s %s/%s scratch=%s (%s)\n",
		*seed, *seconds, *trace, host.NProc, host.GoVersion, host.OS, host.Arch, host.ScratchDir, host.ScratchFS)
	fmt.Printf("# %s; %s; closed loop\n", host.Network, host.Flush)

	if *selfcheck {
		return runSelfcheck(ctx, env)
	}

	var selected []workloadDef
	if *workload == "all" {
		selected = workloadDefs
	} else if w, ok := findWorkload(*workload); ok {
		selected = []workloadDef{w}
	} else {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	var results []*result
	var failed bool
	for _, w := range selected {
		res, err := w.run(ctx, env)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.printTable(os.Stdout)
		results = append(results, res)
		failed = failed || !res.correct()
	}
	if *out != "" {
		if err := writeDocument(*out, *seed, host, results); err != nil {
			return err
		}
	}
	if len(results) == 1 {
		line, err := results[0].driverLine()
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	if failed {
		return errors.New("a workload failed its correctness checks")
	}
	return nil
}

// runSelfcheck runs the five workloads twice on this binary, the second
// set in reverse order, prints every end-to-end metric of every workload
// from both sets with their relative difference, and fails if a gated one
// differs by more than its own bound or any operation failed.
func runSelfcheck(ctx context.Context, env runEnv) error {
	fmt.Printf("# selfcheck: 2 sets of %d workloads\n", len(workloadDefs))
	env.traced = false
	env.cache = newVaultCache(env.scratch)
	type key struct{ workload, name string }
	var sets [2]map[key]float64
	bad := 0
	for set := range sets {
		sets[set] = make(map[key]float64)
		order := slices.Clone(workloadDefs)
		if set == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			res, err := w.run(ctx, env)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set+1, w.name, err)
			}
			res.printTable(os.Stdout)
			if res.failedRatio() != 0 {
				fmt.Printf("  %s: failed_ratio = %g in set %d\n", w.name, res.failedRatio(), set+1)
				bad++
			}
			for name, m := range res.Metrics {
				if name == "setup_s" && res.SetupReused {
					continue // timed a cache hit, not a build
				}
				sets[set][key{w.name, name}] = m.Value
			}
		}
	}
	fmt.Printf("\n## selfcheck: set 1 against set 2\n")
	fmt.Printf("  %-16s %-30s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, w := range workloadDefs {
		for _, d := range catalogue() {
			// failed_ratio was checked above; peak_rss_mib is the process's
			// high-water mark, which later workloads inherit.
			if !d.reportedBy(w.name, false) || d.Name == "failed_ratio" || d.Name == "peak_rss_mib" {
				continue
			}
			a, okA := sets[0][key{w.name, d.Name}]
			b, okB := sets[1][key{w.name, d.Name}]
			if !okA || !okB {
				// audit_read builds its vault in the first set and reuses it
				// in the second while its digest matches.
				fmt.Printf("  %-16s %-30s (not compared: built once, then reused from the cache)\n", w.name, d.Name)
				continue
			}
			diff := math.Abs(b-a) / math.Abs(a)
			// d.Bound is BENCHMARK.json's: the smoke test holds the two to
			// agreement.
			bound, verdict := "  (diagnostic)", ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%6.0f%%", 100*d.Bound)
				if diff > d.Bound {
					verdict = "  OUTSIDE BOUND"
					bad++
				}
			}
			fmt.Printf("  %-16s %-30s %14.4f %14.4f %8.2f%% %s%s\n", w.name, d.Name, a, b, 100*diff, bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d findings (failed operations or metrics outside their bound)", bad)
	}
	fmt.Println("  selfcheck passed: every gated metric of every workload agrees within its bound")
	return nil
}
