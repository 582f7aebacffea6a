// Command fluxpowersim regenerates the paper's tables and figures from
// the simulated reproduction. Each experiment prints the same rows/series
// the paper reports; EXPERIMENTS.md records paper-vs-measured.
//
// Usage:
//
//	fluxpowersim -exp table4
//	fluxpowersim -exp all -quick
//	fluxpowersim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"fluxpower/internal/experiments"
)

// result is an experiment's output. Its type decides which -format
// renderings the experiment offers.
type result interface{ Render() string }

type csvResult interface{ RenderCSV() string }

// experiment is one registry entry. csv comes from the result type, so
// an unsupported -format fails before the experiment runs.
type experiment struct {
	run func(experiments.Options) (result, error)
	csv bool
}

// wrap adapts an experiment entry point to the registry.
func wrap[R result](f func(experiments.Options) (R, error)) experiment {
	var zero R
	_, csv := any(zero).(csvResult)
	return experiment{
		run: func(o experiments.Options) (result, error) { return f(o) },
		csv: csv,
	}
}

// text is an output rendered before it reaches the registry.
type text string

func (t text) Render() string { return string(t) }

// timeline renders one of the Table 4 run's power timelines (Fig 5, 6).
func timeline(title string, fig func(*experiments.Table4Result) (gemm, qs []experiments.TimelinePoint, err error)) experiment {
	return wrap(func(o experiments.Options) (text, error) {
		r, err := experiments.Table4(o)
		if err != nil {
			return "", err
		}
		gemm, qs, err := fig(r)
		if err != nil {
			return "", err
		}
		return text(experiments.RenderTimelines(title, gemm, qs)), nil
	})
}

var registry = map[string]experiment{
	"fig1":   wrap(experiments.Fig1),
	"fig2":   wrap(experiments.Fig2),
	"table2": wrap(experiments.Table2),
	"fig3":   wrap(experiments.Fig3),
	"fig4": wrap(func(o experiments.Options) (*experiments.Fig4Result, error) {
		f3, err := experiments.Fig3(o)
		if err != nil {
			return nil, err
		}
		return experiments.Fig4(f3)
	}),
	"table3": wrap(experiments.Table3),
	"table4": wrap(experiments.Table4),
	"fig5":   timeline("Fig 5: proportional sharing timeline", experiments.Fig5),
	"fig6":   timeline("Fig 6: FPP timeline", experiments.Fig6),
	"fig7":   wrap(experiments.Fig7),
	"timelines": wrap(func(o experiments.Options) (text, error) {
		rs, err := experiments.AllTimelines(o)
		if err != nil {
			return "", err
		}
		out := ""
		for _, r := range rs {
			out += r.Render() + "\n"
		}
		return text(out), nil
	}),
	"sweep":  wrap(experiments.BoundSweep),
	"queue":  wrap(experiments.Queue),
	"scale":  wrap(experiments.Scale),
	"chaos":  wrap(experiments.Chaos),
	"heal":   wrap(experiments.Heal),
	"store":  wrap(experiments.Store),
	"policy": wrap(experiments.Policy),
}

func names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// run is main minus the process exit, so tests can drive the CLI
// end-to-end: parse args, run the selected experiments, return the exit
// code (0 ok, 1 experiment failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fluxpowersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment to run: "+strings.Join(names(), ", ")+", or 'all'")
	quick := fs.Bool("quick", false, "shrink sweeps/repetitions for a fast run")
	format := fs.String("format", "text", "output format: text or csv (table2, table3, table4, scale, sweep, ...)")
	seed := fs.Int64("seed", experiments.DefaultSeed, "simulation seed")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *format != "text" && *format != "csv" {
		fmt.Fprintf(stderr, "fluxpowersim: unknown -format %q (have text, csv)\n", *format)
		return 2
	}
	if *list {
		for _, n := range names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "fluxpowersim: -exp required (or -list); e.g. -exp table4")
		return 2
	}
	opts := experiments.Options{Seed: *seed, Quick: *quick}
	targets := []string{*exp}
	if *exp == "all" {
		targets = names()
	}
	for _, name := range targets {
		e, ok := registry[name]
		if !ok {
			fmt.Fprintf(stderr, "fluxpowersim: unknown experiment %q (have %s)\n", name, strings.Join(names(), ", "))
			return 2
		}
		if *format == "csv" && !e.csv {
			fmt.Fprintf(stderr, "fluxpowersim: %q has no CSV rendering\n", name)
			return 2
		}
		out, err := render(e, opts, *format)
		if err != nil {
			fmt.Fprintf(stderr, "fluxpowersim: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(stdout, "==== %s ====\n%s\n", name, out)
	}
	return 0
}

// render runs one experiment and renders its result as text or csv.
func render(e experiment, opts experiments.Options, format string) (string, error) {
	r, err := e.run(opts)
	if err != nil {
		return "", err
	}
	if format == "csv" {
		return r.(csvResult).RenderCSV(), nil
	}
	return r.Render(), nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
