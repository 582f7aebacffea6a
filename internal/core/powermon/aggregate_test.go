package powermon

import (
	"math"
	"testing"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/tsdb"
	"fluxpower/internal/variorum"
)

func TestAggregateQueryMatchesRawSummary(t *testing.T) {
	c := monitored(t, cluster.Lassen, 4, Config{})
	id, err := c.Submit(job.Spec{App: "laghos", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, idle := c.RunUntilIdle(time.Minute); !idle {
		t.Fatal("job never finished")
	}
	client := NewClient(c.Inst.Root())
	jp, err := client.Query(id)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(jp)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := client.QueryAggregate(id)
	if err != nil {
		t.Fatal(err)
	}
	if ja.JobID != id || ja.App != "laghos" {
		t.Fatalf("identity: %+v", ja)
	}
	if ja.NodesQueried != 4 || ja.NodesReporting != 4 || ja.NodesWithData != 4 {
		t.Fatalf("node accounting: %+v", ja)
	}
	if ja.Partial || !ja.Complete {
		t.Fatalf("fresh buffers: partial=%v complete=%v", ja.Partial, ja.Complete)
	}
	// A short, fully buffered window is answered from raw samples.
	if ja.TierSec != 0 {
		t.Fatalf("short job answered from tier %vs", ja.TierSec)
	}
	// The in-network figures must agree with the client-side reduction of
	// the full raw gather: both are the same statistics of the same samples.
	close := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("%s: in-network %v vs client-side %v", name, got, want)
		}
	}
	close("avg node power", ja.AvgNodePowerW, sum.AvgNodePowerW)
	close("max node power", ja.MaxNodePowerW, sum.MaxNodePowerW)
	close("avg cpu", ja.AvgCPUW, sum.AvgCPUW)
	close("avg mem", ja.AvgMemW, sum.AvgMemW)
	close("avg gpu", ja.AvgGPUW, sum.AvgGPUW)
	close("energy per node", ja.AvgEnergyPerNodeJ, sum.AvgEnergyPerNodeJ)
	close("total energy", ja.TotalEnergyJ, 4*sum.AvgEnergyPerNodeJ)
	wantSamples := 0
	for _, n := range jp.Nodes {
		wantSamples += len(n.Samples)
	}
	if ja.SampleCount != wantSamples {
		t.Fatalf("sample count %d, want %d", ja.SampleCount, wantSamples)
	}
}

func TestAggregateQueryDeadInternalRankPartial(t *testing.T) {
	// Fanout 2, 8 nodes: rank 1's subtree is {1,3,4,7}. Unloading the
	// monitor there must cost exactly that subtree — the query still
	// answers from the surviving 4 agents, flagged Partial.
	c := monitored(t, cluster.Lassen, 8, Config{CollectTimeout: 200 * time.Millisecond})
	id, err := c.Submit(job.Spec{App: "laghos", Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, idle := c.RunUntilIdle(time.Minute); !idle {
		t.Fatal("job never finished")
	}
	if err := c.Inst.Broker(1).UnloadModule(ModuleName); err != nil {
		t.Fatal(err)
	}
	ja, err := NewClient(c.Inst.Root()).QueryAggregate(id)
	if err != nil {
		t.Fatalf("dead subtree turned into query failure: %v", err)
	}
	if !ja.Partial || ja.Complete {
		t.Fatalf("dead subtree not flagged: %+v", ja)
	}
	if ja.NodesQueried != 8 || ja.NodesReporting != 4 || ja.NodesWithData != 4 {
		t.Fatalf("node accounting with dead rank 1: %+v", ja)
	}
	// The surviving ranks' data is still sound.
	if math.Abs(ja.AvgNodePowerW-473) > 25 {
		t.Fatalf("surviving avg node power %.1f, want ~473", ja.AvgNodePowerW)
	}
}

func TestAggregateQueryRunningJob(t *testing.T) {
	c := monitored(t, cluster.Lassen, 2, Config{})
	id, _ := c.Submit(job.Spec{App: "gemm", Nodes: 2}) // ~274 s
	c.RunFor(30 * time.Second)
	ja, err := NewClient(c.Inst.Root()).QueryAggregate(id)
	if err != nil {
		t.Fatal(err)
	}
	if ja.EndSec != 0 {
		t.Fatalf("running job has EndSec=%v", ja.EndSec)
	}
	if ja.SampleCount < 20 { // 2 nodes x ~15 samples so far
		t.Fatalf("running-job aggregate covers %d samples", ja.SampleCount)
	}
}

func TestAggregateQueryUsesTierAfterEviction(t *testing.T) {
	// Raw rings evict a ~25 s job's window, but a longer memory still
	// covers it: the aggregate must come from there, complete, instead
	// of inheriting the raw ring's partial-data flag.
	cases := []struct {
		name    string
		cfg     Config
		after   time.Duration // run on after the job, to age it out of the ring
		tierSec float64
		// The mean node power the covering tier reports. Its buckets
		// hold what the node drew across each whole period: the job's
		// ~473 W, and idle ~400 W around it.
		minW, maxW float64
	}{
		// 4-slot rings; a 10 s tier covers the window.
		{"memory tier", Config{
			BufferSamples: 4,
			Tiers:         []TierSpec{{Period: 10 * time.Second, Buckets: 100}},
		}, 0, 10, 433, 513},
		// TestQueryDurableTier's node: a 60 s ring, no memory tiers, and
		// a store whose 60 s tier log covers the window once the ring
		// has lost it.
		{"durable store", Config{
			SampleInterval: 2 * time.Second,
			CollectTimeout: 2 * time.Second,
			BufferSamples:  30,
			Tiers:          []TierSpec{},
			MaxRawPoints:   50,
			StoreDir:       t.TempDir(),
			Store:          tsdb.Config{BlockSamples: 64, SyncEvery: 16},
		}, 3 * time.Minute, 60, 400, 473},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := monitored(t, cluster.Lassen, 2, tc.cfg)
			id, _ := c.Submit(job.Spec{App: "laghos", Nodes: 2, SizeFactor: 2})
			if _, idle := c.RunUntilIdle(2 * time.Minute); !idle {
				t.Fatal("job never finished")
			}
			c.RunFor(tc.after)
			client := NewClient(c.Inst.Root())
			jp, err := client.Query(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range jp.Nodes {
				if n.Complete && n.Source != "tsdb" {
					t.Fatalf("rank %d: the raw ring still holds the window", n.Rank)
				}
			}
			ja, err := client.QueryAggregate(id)
			if err != nil {
				t.Fatal(err)
			}
			if ja.TierSec != tc.tierSec {
				t.Fatalf("aggregate came from tier %vs, want %v", ja.TierSec, tc.tierSec)
			}
			if !ja.Complete || ja.Partial {
				t.Fatalf("tier covers the window: %+v", ja)
			}
			if ja.AvgNodePowerW < tc.minW || ja.AvgNodePowerW > tc.maxW {
				t.Fatalf("tier-sourced avg node power %.1f, want in [%v, %v]", ja.AvgNodePowerW, tc.minW, tc.maxW)
			}
		})
	}
}

func TestAggregateQueryTiogaMemUnsupported(t *testing.T) {
	c := monitored(t, cluster.Tioga, 2, Config{})
	id, _ := c.Submit(job.Spec{App: "quicksilver", Nodes: 2})
	if _, idle := c.RunUntilIdle(10 * time.Minute); !idle {
		t.Fatal("job never finished")
	}
	ja, err := NewClient(c.Inst.Root()).QueryAggregate(id)
	if err != nil {
		t.Fatal(err)
	}
	if ja.AvgMemW != variorum.Unsupported {
		t.Fatalf("Tioga memory power should be unsupported (-1), got %v", ja.AvgMemW)
	}
	if ja.AvgGPUW <= 0 || ja.AvgNodePowerW <= 0 {
		t.Fatalf("Tioga aggregate: %+v", ja)
	}
}

func TestQueryUnknownModeFails(t *testing.T) {
	c := monitored(t, cluster.Lassen, 2, Config{})
	id, _ := c.Submit(job.Spec{App: "laghos", Nodes: 2})
	if _, idle := c.RunUntilIdle(time.Minute); !idle {
		t.Fatal("job never finished")
	}
	_, err := c.Inst.Root().Call(msg.NodeAny, "power-monitor.query",
		queryRequest{JobID: id, Mode: "bogus"})
	if err == nil {
		t.Fatal("unknown query mode accepted")
	}
}
