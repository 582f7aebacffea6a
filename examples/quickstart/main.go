// Quickstart: boot a 4-node Lassen-like cluster with the
// flux-power-monitor loaded, run one job, and read its power telemetry —
// the minimal end-to-end use of the public API.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"fluxpower"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main minus the process exit; it writes the demo's output to w.
func run(w io.Writer) error {
	// A 4-node IBM AC922 ("Lassen") cluster. The power monitor is loaded
	// on every node by default, sampling Variorum telemetry every 2 s.
	c, err := fluxpower.NewCluster(fluxpower.Config{
		System: fluxpower.Lassen,
		Nodes:  4,
		Seed:   42,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	// Run Quicksilver — the paper's periodic Monte Carlo workload — on
	// all four nodes with a 10x problem size.
	id, err := c.Submit(fluxpower.JobSpec{
		Name:       "qs-demo",
		App:        "quicksilver",
		Nodes:      4,
		SizeFactor: 10,
	})
	if err != nil {
		return err
	}

	// Advance simulated time until the job completes.
	if !c.RunUntilIdle(time.Hour) {
		return errors.New("job did not finish")
	}

	// Ground-truth accounting from the cluster engine...
	rep, err := c.Report(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %.1f s on %d nodes, avg %.0f W/node, %.1f kJ/node\n",
		rep.Name, rep.ExecSec, rep.Nodes, rep.AvgNodePowerW, rep.EnergyPerNodeJ/1000)

	// ...and the monitor's view, aggregated over the TBON by the
	// root-agent, exactly as the paper's client script receives it.
	sum, err := c.JobPowerSummary(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "monitor: avg %.0f W/node (cpu %.0f, mem %.0f, gpu %.0f), complete=%v\n",
		sum.AvgNodePowerW, sum.AvgCPUW, sum.AvgMemW, sum.AvgGPUW, sum.Complete)

	// The per-sample CSV (one row per node sample):
	fmt.Fprintln(w, "\nCSV:")
	return c.WriteJobCSV(w, id)
}
