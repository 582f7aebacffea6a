package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json cmp needs: the declared
// metrics and the bound each end-to-end metric may worsen by.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// resultSet is one side's values: workload → metric → one value per run.
type resultSet map[string]map[string][]float64

func readResultSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d did not verify", path, line, r.Workload, r.Seed)
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], v.Value)
		}
	}
	return set, sc.Err()
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives, the rule the driver applies.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(k int) float64 {
		j := k * (n + 1) / 4
		delta := k*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// cmpMain compares a parent's result set with a change's, metric by
// metric and workload by workload, against the bounds BENCHMARK.json
// fixes. A pair is a regression when the change's median is worse than
// the parent's by more than the bound, and unresolved — neither passed
// nor failed — when the parent's own runs spread wider than the bound.
// Per-layer metrics carry no bound and are listed for diagnosis only.
func cmpMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench cmp", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark declaration with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench cmp [-benchmark BENCHMARK.json] <parent.jsonl> <change.jsonl>")
		return 2
	}
	decl, err := readBenchmarkFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench cmp:", err)
		return 2
	}
	var sets [2]resultSet
	for i := range sets {
		if sets[i], err = readResultSet(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "bench cmp:", err)
			return 2
		}
	}
	return compare(decl, sets[0], sets[1], out)
}

func compare(decl *benchmarkFile, parent, change resultSet, out io.Writer) int {
	regressions, unresolved := 0, 0
	for _, w := range decl.Workloads {
		a, b := parent[w.Name], change[w.Name]
		if a == nil || b == nil {
			continue
		}
		fmt.Fprintf(out, "%s\n", w.Name)
		fmt.Fprintf(out, "  %-32s %14s %8s %14s %8s %9s  %s\n", "metric", "parent", "iqr", "change", "iqr", "worse", "verdict")
		row := func(d metricDef, bound float64) {
			av, bv := a[d.Name], b[d.Name]
			if len(av) == 0 || len(bv) == 0 {
				return
			}
			a1, am, a3 := quartiles(av)
			b1, bm, b3 := quartiles(bv)
			spread := func(q1, m, q3 float64) float64 {
				if m == 0 {
					return 0
				}
				return (q3 - q1) / m
			}
			worse := 0.0
			if am != 0 {
				worse = (bm - am) / am
				if d.Better == "higher" {
					worse = -worse
				}
			}
			verdict := ""
			switch {
			case bound == 0:
			case spread(a1, am, a3) > bound:
				verdict = "unresolved"
				unresolved++
			case worse > bound:
				verdict = "REGRESSION"
				regressions++
			default:
				verdict = "ok"
			}
			fmt.Fprintf(out, "  %-32s %14.5g %7.1f%% %14.5g %7.1f%% %+8.1f%%  %s\n",
				d.Name+" ["+d.Unit+"]", am, 100*spread(a1, am, a3), bm, 100*spread(b1, bm, b3), 100*worse, verdict)
		}
		for _, d := range decl.EndToEnd {
			row(d.metricDef, d.Bound)
		}
		for _, d := range decl.PerLayer {
			row(d, 0)
		}
	}
	fmt.Fprintf(out, "%d regressions, %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}
