package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeSeconds sizes the smoke runs: a hundredth of a timed run, with every
// correctness check on.
const smokeSeconds = 0.01 * runSeconds

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
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

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDeclarations holds BENCHMARK.json against what the program declares:
// no workload or metric may drift either way.
func TestDeclarations(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program sizes workloads for %d", f.RunSeconds, runSeconds)
	}
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, program has %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be 1..200 characters, is %d", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, program has %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v, program has %+v", i, m, d)
		}
		if !name.MatchString(m.Name) {
			t.Errorf("bad metric name %q", m.Name)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, program has %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v, program has %+v", i, m, d)
		}
		if !name.MatchString(m.Name) {
			t.Errorf("bad metric name %q", m.Name)
		}
	}
}

// checkReport fails unless the report carries exactly the declared metrics.
func checkReport(t *testing.T, r report, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Attempted < 1 {
		t.Errorf("report: correct=%v attempted=%d", r.Correct, r.Attempted)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("report has %d metrics, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %q missing", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %q has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// TestWorkloads runs every workload end to end and traced at smoke size:
// conservation, byte-equal query answers, hit-ratio claims and the stage
// replay's equality with the real run are all checked inside the runs.
func TestWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			p, err := paramsFor(w, smokeSeconds/runSeconds)
			if err != nil {
				t.Fatal(err)
			}
			r, _, err := measure(p, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, r, endToEnd)
			for _, d := range endToEnd {
				if v := r.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s is %v, must be positive", d.Name, v)
				}
			}

			tp, err := paramsFor(w, traceFraction*smokeSeconds/runSeconds)
			if err != nil {
				t.Fatal(err)
			}
			r, tr, err := measure(tp, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, r, perLayer)
			checkSpans(t, tr)
		})
	}
}

// checkSpans writes the spans out, reads them back and checks that every
// span's parent exists and that no span ends before it starts.
func checkSpans(t *testing.T, tr *tracer) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", len(spans)+1, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("traced run wrote no spans")
	}
	ids := make(map[int]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d (%s) has parent %d, which does not exist", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
}

// TestReplayByteEqualAtBudgetZero is the self-test of the ledger: with
// unbudgeted trees, batch boundaries cannot change which nodes a tree
// folds, so the stage replay's merged central tree must be byte-equal to
// the real run's. (socketLedger makes the comparison; at a budget it can
// only compare totals.)
func TestReplayByteEqualAtBudgetZero(t *testing.T) {
	p, err := paramsFor(wIngest, traceFraction*smokeSeconds/runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	p.Budget = 0
	if _, err := runWorkload(p, 7, newTracer()); err != nil {
		t.Fatal(err)
	}
}
