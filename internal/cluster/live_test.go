package cluster

import (
	"fmt"
	"testing"
	"time"

	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/chaos"
	"fluxpower/internal/hw"
)

// TestEquivalenceLiveChaosInvariants closes the loop with the deployment
// transport: seeded chaos plans of the kind the simulated fabric survives
// (internal/flux/chaos) are replayed over real TCP sockets and wall-clock
// timers, and the post-quiesce invariant outcome must be the same — zero
// violations. (Wall-clock runs cannot match sim timings sample-for-sample;
// invariant equivalence is the cross-transport contract.)
func TestEquivalenceLiveChaosInvariants(t *testing.T) {
	for _, seed := range []int64{7, 42, 20240601} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			const size = 8
			plan := chaos.Plan{Seed: seed, Links: []chaos.LinkRule{{
				From: chaos.AnyRank, To: chaos.AnyRank, DropProb: 0.15,
			}}}
			inj := chaos.New(plan)
			nodes := make([]*hw.Node, size)
			for i := range nodes {
				n, err := hw.NewNode("equivlive", hw.LassenConfig(), seed*131+int64(i))
				if err != nil {
					t.Fatal(err)
				}
				n.SetDemand(hw.Demand{
					CPUW: []float64{150, 150},
					MemW: 80,
					GPUW: []float64{200, 200, 200, 200},
				})
				nodes[i] = n
			}
			li, err := broker.NewLiveInstance(broker.InstanceOptions{
				Size:        size,
				Local:       func(rank int32) any { return nodes[rank] },
				WrapLink:    inj.WrapLink,
				CallTimeout: 500 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer li.Close()
			inj.Bind(li.Wall)

			var live *chaos.Liveness
			if err := li.LoadModuleAll(func(rank int32) broker.Module {
				l := chaos.NewLiveness(400 * time.Millisecond)
				if rank == 0 {
					live = l
				}
				return l
			}); err != nil {
				t.Fatal(err)
			}
			if err := li.LoadModuleAll(func(rank int32) broker.Module {
				return powermon.New(powermon.Config{
					SampleInterval: 20 * time.Millisecond,
					CollectTimeout: 200 * time.Millisecond,
				})
			}); err != nil {
				t.Fatal(err)
			}

			time.Sleep(150 * time.Millisecond) // warm-up: rings fill
			inj.Arm()
			for round := 0; round < 3; round++ {
				time.Sleep(300 * time.Millisecond)
				rank := int32(1 + round%(size-1))
				_, _ = li.Root().CallTimeout(rank, "power-monitor.collect",
					map[string]float64{"start_sec": 0, "end_sec": 3600}, 200*time.Millisecond)
			}
			inj.Disarm()
			time.Sleep(900 * time.Millisecond) // quiesce past timeouts

			vs := chaos.Check(chaos.CheckConfig{
				Brokers:            li.Brokers,
				Injector:           inj,
				Liveness:           live,
				Monitor:            true,
				RPCTimeout:         2 * time.Second,
				ExpectAllReachable: true,
			})
			if len(vs) != 0 {
				lines := make([]string, len(vs))
				for i, v := range vs {
					lines[i] = v.String()
				}
				t.Fatalf("live transport diverged from the simulation: %d violations: %v", len(vs), lines)
			}
		})
	}
}
