// Command bench is the repository's steady-state benchmark: one power
// sample's whole life, from the hw model through variorum, powermon, the
// tsdb, the broker fabric, reduce, query and the gateway to a fan-out
// subscriber, and the cap path back down, measured end to end on four
// time-boxed workloads and layer by layer in a traced run.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-quick] [-queue trace.csv] [-o results.jsonl]
//	bench cmp <parent.jsonl> <change.jsonl>
//
// It is a module of its own (bench/go.mod replaces fluxpower with the
// parent directory) and imports fluxpower/internal/... from outside:
// every layer is measured by timing calls into public functions, by
// bracketing public counters and through the WrapLink, query Source and
// gateway Now seams. README.md has the workloads, metrics and reasons.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Quick    bool
	Queue    string
	Out      string
	// Dir is where the run keeps durable stores and trace files. It stays
	// inside the checkout the benchmark was started from.
	Dir string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "cmp" {
		os.Exit(cmpMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.Workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.Seed, "seed", 1, "seed for the generated queue and request sequence")
	fs.Float64Var(&o.Seconds, "seconds", 15, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
	fs.BoolVar(&o.Quick, "quick", false, "smoke-test sizes: 1 s time box, one set-up, short warm-up")
	fs.StringVar(&o.Queue, "queue", "", "scheduler-export CSV to draw jobs from instead of the generator")
	fs.StringVar(&o.Out, "o", "", "append the result, tagged with workload and seed, to this JSON-lines file")
	fs.StringVar(&o.Dir, "dir", filepath.Join("bench", "out"), "directory for durable stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.Trace = trace != 0
	if o.Quick {
		o.Seconds = 1
	}
	if _, ok := workloads[o.Workload]; !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.Workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.Workload, err)
		return 1
	}
	for _, line := range res.notes {
		fmt.Fprintln(os.Stderr, line)
	}
	if o.Out != "" {
		if err := appendRecord(o, res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Result is the one JSON object a run prints as its last line.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of a result set, the input of `bench cmp`.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Result   Result  `json:"result"`
}

func appendRecord(o options, res *runResult) error {
	f, err := os.OpenFile(o.Out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(record{Workload: o.Workload, Seed: o.Seed, Trace: o.Trace, Seconds: o.Seconds, Result: res.Result})
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
