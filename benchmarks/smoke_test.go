package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// declaration mirrors BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationAgreesWithHarness holds BENCHMARK.json and the
// compiled-in catalogue to the same workloads, names, units, directions
// and bounds.
func TestDeclarationAgreesWithHarness(t *testing.T) {
	d := loadDeclaration(t)
	if len(d.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(workloadDefs))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, workloadDefs[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if len(d.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the harness has %d", len(d.EndToEnd), len(endToEndDefs))
	}
	seen := make(map[string]bool)
	for i, m := range d.EndToEnd {
		def := endToEndDefs[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better || m.Bound != def.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness has %+v", i, m, def)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || seen[m.Name] {
			t.Errorf("end-to-end metric %+v breaks the declaration rules", m)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
	if len(d.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the harness has %d", len(d.PerLayer), len(perLayerDefs))
	}
	for i, m := range d.PerLayer {
		def := perLayerDefs[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness has %+v", i, m, def)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer metric %+v breaks the declaration rules", m)
		}
		seen[m.Name] = true
	}
}

// mayReadZero lists the metrics whose correct value can be zero: counts
// of things a short clean run need not see. failed_ratio and audit_read's
// append counters must be zero and are checked on their own.
var mayReadZero = map[string]bool{
	"failed_ratio": true, "feed.evictions": true, "vault.seals": true,
	"vault.append_calls": true, "vault.commits": true,
}

// TestSmokeEveryWorkload runs every workload for under a second, untraced
// and traced, with a 2 000-record audit vault: all correctness checks
// pass, nothing fails, and the run reports exactly the metrics the
// catalogue declares for that workload and kind of run, each once, none
// of them an unmeasured zero.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			name, line := w.name+"/untraced", endToEndDefs
			if traced {
				name, line = w.name+"/traced", perLayerDefs
			}
			t.Run(name, func(t *testing.T) {
				env := runEnv{seed: 3, seconds: 0.6, traced: traced, scratch: t.TempDir(), smoke: true}
				if traced {
					env.spanOut = env.scratch + "/spans.jsonl"
				}
				res, err := w.run(context.Background(), env)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range res.Problems {
					t.Errorf("correctness check failed: %s", p)
				}
				if res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				declared := 0
				for _, d := range catalogue() {
					m, ok := res.Metrics[d.Name]
					if !d.reportedBy(w.name, traced) {
						if ok {
							t.Errorf("%s reported, but not declared for this workload and kind of run", d.Name)
						}
						continue
					}
					declared++
					if !ok {
						t.Errorf("declared metric %s not reported", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("%s reported in %q, declared in %q", d.Name, m.Unit, d.Unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", d.Name, m.Value)
					}
					if d.Name == "obs.trace_overhead_pct" {
						continue // a difference of two throughputs: any sign
					}
					if m.Value < 0 || (m.Value == 0 && !mayReadZero[d.Name]) {
						t.Errorf("%s = %v: declared for this workload, so it must have been measured", d.Name, m.Value)
					}
				}
				if len(res.Metrics) != declared {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), declared)
				}
				if res.Metrics["failed_ratio"].Value != 0 {
					t.Errorf("failed_ratio = %v", res.Metrics["failed_ratio"].Value)
				}
				if w.name == "audit_read" && traced && (res.Metrics["vault.append_calls"].Value != 0 || res.Metrics["vault.commits"].Value != 0) {
					t.Error("audit_read appended to the vault it only reads")
				}

				// The driver's line carries exactly BENCHMARK.json's names for
				// this kind of run; a per-layer metric of a bypassed layer
				// reads 0 there and only there.
				blob, err := res.driverLine()
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					Correct   *bool  `json:"correct"`
					Attempted *int64 `json:"attempted"`
					Failed    *int64 `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(blob, &doc); err != nil {
					t.Fatal(err)
				}
				if doc.Correct == nil || !*doc.Correct || doc.Attempted == nil || doc.Failed == nil || len(doc.Metrics) != len(line) {
					t.Errorf("driver line %s", blob)
				}
				for _, d := range line {
					m, ok := doc.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("driver line lacks %s in %s", d.Name, d.Unit)
					}
					if !d.reportedBy(w.name, traced) && m.Value != 0 {
						t.Errorf("driver line gives %s = %v for a workload that does not report it", d.Name, m.Value)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("gated metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				if traced && w.name != "audit_read" {
					if fi, err := os.Stat(env.spanOut); err != nil || fi.Size() == 0 {
						t.Errorf("span file not written: %v", err)
					}
				}
			})
		}
	}
}

// TestResultHoldsRunsToTheDeclaration: a run cannot report a metric the
// catalogue does not give its workload, and one it was given and did not
// measure fails the run instead of reading zero.
func TestResultHoldsRunsToTheDeclaration(t *testing.T) {
	res := newResult("invoke_seq", true)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("set accepted feed.evictions on invoke_seq")
			}
		}()
		res.set("feed.evictions", 0, 0)
	}()
	res.Attempted = 10
	res.set("sig.sign_calls", 40, 0)
	res.finish()
	if res.correct() || res.Failed != res.Attempted {
		t.Error("a run that measured one of its declared metrics passed")
	}
	if _, ok := res.Metrics["vault.commits"]; ok {
		t.Error("finish filled in a metric that was not measured")
	}
	if res.Metrics["failed_ratio"].Value != 1 {
		t.Errorf("failed_ratio = %v, want 1", res.Metrics["failed_ratio"].Value)
	}
}

// TestSeedChangesInputs: a second seed must change what the program
// under test is given.
func TestSeedChangesInputs(t *testing.T) {
	if auditRun(1, 0) == auditRun(2, 0) {
		t.Error("audit run names do not depend on the seed")
	}
	a, b := &topo{seed: 1}, &topo{seed: 2}
	if string(a.key("p").PublicKey().Marshal()) == string(b.key("p").PublicKey().Marshal()) {
		t.Error("party keys do not depend on the seed")
	}
	if string(a.key("p").PublicKey().Marshal()) != string((&topo{seed: 1}).key("p").PublicKey().Marshal()) {
		t.Error("the same seed gives different keys")
	}
}
