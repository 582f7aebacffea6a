// Livemode: the same broker and power-monitor code that drives the
// deterministic simulation, deployed as live daemons — brokers connected
// over real TCP sockets, node-agents sampling on wall-clock timers. This
// is the shape of the paper's production deployment (one flux-broker per
// node); here five "nodes" live in one process for the demo.
//
// Note: this example exercises the substrate API (internal/flux/broker)
// rather than the fluxpower facade, because live mode manages real
// hardware rather than simulated applications.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/hw"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main minus the process exit; it writes the demo's output to w.
func run(w io.Writer) error {
	// Five Lassen-like nodes with different static loads, as if five
	// different applications were running.
	nodes := make([]*hw.Node, 5)
	for i := range nodes {
		n, err := hw.NewNode(fmt.Sprintf("node%d", i), hw.LassenConfig(), int64(i+1))
		if err != nil {
			return err
		}
		gpu := 100 + float64(i)*50 // 100..300 W per GPU
		n.SetDemand(hw.Demand{
			CPUW: []float64{120, 120},
			MemW: 80,
			GPUW: []float64{gpu, gpu, gpu, gpu},
		})
		nodes[i] = n
	}

	// A live TBON: TCP links, wall-clock timers.
	li, err := broker.NewLiveInstance(broker.InstanceOptions{
		Size:  5,
		Local: func(rank int32) any { return nodes[rank] },
	})
	if err != nil {
		return err
	}
	defer li.Close()

	// The unmodified flux-power-monitor module, sampling every 50 ms of
	// real time.
	if err := li.LoadModuleAll(func(rank int32) broker.Module {
		return powermon.New(powermon.Config{SampleInterval: 50 * time.Millisecond})
	}); err != nil {
		return err
	}

	fmt.Fprintln(w, "live TBON up: 5 brokers over TCP, sampling every 50 ms")
	time.Sleep(500 * time.Millisecond)

	// Collect each node's telemetry over the tree, like the root-agent
	// does for a job query.
	for rank := int32(0); rank < 5; rank++ {
		resp, err := li.Root().CallTimeout(rank, "power-monitor.collect",
			map[string]float64{"start_sec": 0, "end_sec": 3600}, 5*time.Second)
		if err != nil {
			return err
		}
		var ns powermon.NodeSamples
		if err := resp.Unmarshal(&ns); err != nil {
			return err
		}
		if len(ns.Samples) == 0 {
			return fmt.Errorf("rank %d returned no samples", rank)
		}
		last := ns.Samples[len(ns.Samples)-1]
		fmt.Fprintf(w, "rank %d (%s): %2d samples, latest %6.0f W node, %5.0f W gpu\n",
			rank, ns.Hostname, len(ns.Samples), last.TotalWatts(), last.TotalGPUWatts())
	}
	return nil
}
