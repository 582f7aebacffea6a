// Usertier: the hierarchical, user-level customization the paper's
// framework inherits from Flux (§I, §II-B). The system instance runs no
// power manager at all. A user requests a 4-node allocation — which
// becomes their own nested Flux instance — loads their own
// proportional-sharing power manager with their own 4.8 kW budget, and
// runs their own job queue inside it. Power capping happens only on the
// user's nodes, under the user's policy, with no system privileges.
package main

import (
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
	// System instance: 8 nodes, no power management configured at all.
	sys, err := fluxpower.NewCluster(fluxpower.Config{
		System: fluxpower.Lassen,
		Nodes:  8,
		Seed:   11,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	// The user requests 4 nodes; the job becomes a nested Flux instance.
	alloc, err := sys.SpawnAllocation("user-research", 4)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "allocation %d holds system ranks %v\n", alloc.ID(), alloc.Ranks())

	// The user's own power manager: proportional sharing, 4.8 kW budget.
	if err := alloc.LoadPowerManager(fluxpower.PolicyProportional, 4*1200); err != nil {
		return err
	}

	// The user's own queue: two jobs, FCFS inside the allocation.
	gemm, _ := alloc.Submit(fluxpower.JobSpec{Name: "my-gemm", App: "gemm", Nodes: 4})
	qs, _ := alloc.Submit(fluxpower.JobSpec{Name: "my-qs", App: "quicksilver", Nodes: 4, SizeFactor: 10})

	sys.Run(5 * time.Second)
	policy, budget, grants, _ := alloc.PowerStatus()
	fmt.Fprintf(w, "user policy=%s budget=%.0fW grants=%d\n", policy, budget, len(grants))
	for _, g := range grants {
		fmt.Fprintf(w, "  sub-job %d: %.0f W/node across %d nodes\n", g.JobID, g.PerNodeW, len(g.Ranks))
	}
	// User-level caps are live on the user's nodes only.
	inAlloc, _ := sys.NodeStatus(alloc.Ranks()[0])
	outside, _ := sys.NodeStatus(7)
	fmt.Fprintf(w, "gpu caps inside allocation: %v; outside: %v\n", inAlloc.GPUCapsW, outside.GPUCapsW)

	// Drain the user's queue, then release the allocation.
	for !alloc.Idle() {
		sys.Run(time.Minute)
	}
	for _, id := range []fluxpower.JobID{gemm, qs} {
		rep, err := alloc.Report(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %7.1f s  %6.0f W avg/node  %6.1f kJ/node\n",
			rep.Name, rep.ExecSec, rep.AvgNodePowerW, rep.EnergyPerNodeJ/1000)
	}
	if err := alloc.Close(); err != nil {
		return err
	}
	fmt.Fprintln(w, "allocation released; system nodes uncapped again")
	return nil
}
