// Command flux-power-monitor demonstrates the telemetry path end to end:
// boot a monitored cluster, run a job, and emit the per-job power CSV the
// paper's client script produces (§III-A) — one row per (node, sample)
// with a completeness column.
//
// Usage:
//
//	flux-power-monitor -system lassen -nodes 4 -app quicksilver -job-nodes 4 -size 10
//	flux-power-monitor -system tioga -nodes 8 -app lammps -job-nodes 8 -o lammps.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fluxpower"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive the command
// end to end. It returns the exit code: 0 ok, 1 run failure, 2 usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flux-power-monitor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	system := fs.String("system", "lassen", "system model: lassen or tioga")
	nodes := fs.Int("nodes", 4, "cluster node count")
	app := fs.String("app", "quicksilver", "application: "+strings.Join(fluxpower.Applications(), ", "))
	jobNodes := fs.Int("job-nodes", 0, "job node count (default: whole cluster)")
	size := fs.Float64("size", 1, "problem size factor")
	reps := fs.Float64("reps", 1, "repetition factor")
	interval := fs.Duration("interval", 2*time.Second, "sampling interval")
	seed := fs.Int64("seed", 1, "simulation seed")
	out := fs.String("o", "", "CSV output path (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobNodes == 0 {
		*jobNodes = *nodes
	}
	if err := monitor(fluxpower.Config{
		System:                fluxpower.System(*system),
		Nodes:                 *nodes,
		Seed:                  *seed,
		MonitorSampleInterval: *interval,
	}, fluxpower.JobSpec{
		App: *app, Nodes: *jobNodes, SizeFactor: *size, RepFactor: *reps,
	}, *out, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "flux-power-monitor:", err)
		return 1
	}
	return 0
}

// monitor runs one job on a monitored cluster, prints its summary to
// stderr and writes its power CSV to the file out, or to stdout when out
// is empty.
func monitor(cfg fluxpower.Config, spec fluxpower.JobSpec, out string, stdout, stderr io.Writer) error {
	c, err := fluxpower.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer c.Close()

	id, err := c.Submit(spec)
	if err != nil {
		return err
	}
	if !c.RunUntilIdle(24 * time.Hour) {
		return fmt.Errorf("job did not finish")
	}
	rep, err := c.Report(id)
	if err != nil {
		return err
	}
	sum, err := c.JobPowerSummary(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr,
		"job %d (%s on %d nodes): %.2f s, avg %.1f W/node, max %.1f W, %.1f kJ/node, complete=%v\n",
		id, rep.App, rep.Nodes, rep.ExecSec, sum.AvgNodePowerW, sum.MaxNodePowerW,
		sum.AvgEnergyPerNodeJ/1000, sum.Complete)

	if out == "" {
		return c.WriteJobCSV(stdout, id)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := c.WriteJobCSV(f, id); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
