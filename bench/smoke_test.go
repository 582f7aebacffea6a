package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The smoke test runs every workload at -quick sizes and holds the
// program's output to BENCHMARK.json: the same metric names and units,
// no failed operation, every verification passing, and a traced run that
// leaves a well-formed span file behind.

func quickRun(t *testing.T, workload string, trace bool) (*runResult, string) {
	t.Helper()
	dir := t.TempDir()
	res, err := run(options{Workload: workload, Seed: 7, Seconds: 1, Quick: true, Trace: trace, Dir: dir})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d notes=%v", workload, res.Correct, res.Attempted, res.Failed, res.notes)
	}
	return res, dir
}

func checkMetrics(t *testing.T, workload string, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, %d declared", workload, len(got), len(want))
	}
	for _, d := range want {
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("%s: metric %s in %q, declared %q", workload, d.Name, v.Unit, d.Unit)
		}
	}
}

func TestQuickWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		res, _ := quickRun(t, name, false)
		checkMetrics(t, name, res.Metrics, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", name, d.Name, res.Metrics[d.Name].Value)
			}
		}
	}
}

func TestQuickTrace(t *testing.T) {
	res, dir := quickRun(t, "query-mixed", true)
	checkMetrics(t, "query-mixed", res.Metrics, perLayer)

	data, err := os.ReadFile(filepath.Join(dir, "trace-query-mixed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("span file: %v", err)
	}
	ids := map[uint64]bool{}
	for _, s := range tf.Spans {
		if s.ID == 0 || ids[s.ID] || s.Name == "" || s.End < s.Start {
			t.Fatalf("malformed span %+v", *s)
		}
		ids[s.ID] = true
	}
	// Root spans of the measured phase must cover nearly all of its wall
	// time: what they miss is time the benchmark cannot attribute.
	var covered int64
	for _, s := range tf.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %d names a parent %d that is not in the file", s.ID, s.Parent)
		}
		if s.Parent == 0 && s.Start >= tf.TracedStartNs && s.End <= tf.TracedEndNs {
			covered += s.End - s.Start
		}
	}
	if wall := tf.TracedEndNs - tf.TracedStartNs; float64(covered) < 0.95*float64(wall) {
		t.Errorf("root spans cover %d of %d ns of the traced phase", covered, wall)
	}
	for _, name := range []string{"request", "Gateway.ServeHTTP", "link.send", "source.raw", "layer.tsdb.Append"} {
		if tf.ByName[name].Count == 0 {
			t.Errorf("no %q span recorded", name)
		}
	}
}

// TestBenchmarkJSON holds the declaration the driver reads to the lists
// the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	decl, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); len(got) != len(want) {
		t.Errorf("workloads %v, program has %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workloads %v, program has %v", got, want)
				break
			}
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, program reports %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, d := range decl.EndToEnd {
		if d.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, program reports %+v", i, d.metricDef, endToEnd[i])
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, program reports %d", len(decl.PerLayer), len(perLayer))
	}
	for i, d := range decl.PerLayer {
		if d != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, program reports %+v", i, d, perLayer[i])
		}
	}
}

func TestQueueTrace(t *testing.T) {
	specs, err := readQueueCSV(filepath.Join("testdata", "queue-lassen.csv"), 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 40 {
		t.Fatalf("%d jobs read", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil || s.Nodes > 128 || s.SizeFactor <= 0 {
			t.Errorf("spec %+v: %v", s, err)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
