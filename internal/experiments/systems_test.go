package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/chaos"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/transport"
)

// The systems gates: bounds on the TBON machinery the paper's experiments
// run on rather than on a paper figure. Each test logs its rows.

// violationList renders one violation per line.
func violationList(vs []chaos.Violation) string {
	lines := make([]string, len(vs))
	for i, v := range vs {
		lines[i] = "  " + v.String()
	}
	return strings.Join(lines, "\n")
}

// rootCountedJob runs one whole-cluster Laghos job to completion on a
// monitored Lassen cluster whose TBON links into rank 0 count bytes. It
// returns a client, the job and the bytes that have reached rank 0 so far.
func rootCountedJob(tb testing.TB, nodes int, seed int64) (*powermon.Client, uint64, func() uint64) {
	tb.Helper()
	var rootIngress []*transport.Counter
	c, err := cluster.New(cluster.Config{
		System: cluster.Lassen,
		Nodes:  nodes,
		Seed:   seed,
		WrapLink: func(from, to int32, l transport.Link) transport.Link {
			if to != 0 {
				return l
			}
			ctr := transport.NewCounter(l)
			rootIngress = append(rootIngress, ctr)
			return ctr
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return powermon.New(powermon.Config{})
	}); err != nil {
		tb.Fatal(err)
	}
	id, err := c.Submit(job.Spec{App: "laghos", Nodes: nodes})
	if err != nil {
		tb.Fatal(err)
	}
	if _, idle := c.RunUntilIdle(5 * time.Minute); !idle {
		tb.Fatal("job never finished")
	}
	ingress := func() uint64 {
		var total uint64
		for _, ctr := range rootIngress {
			_, bytes := ctr.Stats()
			total += bytes
		}
		return total
	}
	return powermon.NewClient(c.Inst.Root()), id, ingress
}

// rootBytesRow is one cluster size: the bytes a whole-cluster job's power
// query moves into rank 0 as the paper's flat raw gather and as the
// in-network aggregate, with what each path summarized.
type rootBytesRow struct {
	Nodes                      int
	RawRootBytes, AggRootBytes uint64
	RawSamples, AggSamples     int
	RawAvgW, AggAvgW           float64
}

func rootBytesRows(t *testing.T, seed int64) []rootBytesRow {
	t.Helper()
	var rows []rootBytesRow
	for _, nodes := range []int{8, 32, 64} {
		client, id, ingress := rootCountedJob(t, nodes, seed)
		row := rootBytesRow{Nodes: nodes}
		before := ingress()
		jp, err := client.Query(id)
		if err != nil {
			t.Fatal(err)
		}
		row.RawRootBytes = ingress() - before
		sum, err := powermon.Summarize(jp)
		if err != nil {
			t.Fatal(err)
		}
		row.RawAvgW = sum.AvgNodePowerW
		for _, n := range jp.Nodes {
			row.RawSamples += len(n.Samples)
		}
		before = ingress()
		ja, err := client.QueryAggregate(id)
		if err != nil {
			t.Fatal(err)
		}
		row.AggRootBytes = ingress() - before
		if ja.Partial || ja.NodesReporting != nodes {
			t.Fatalf("%d nodes: healthy cluster answered partially: %+v", nodes, ja)
		}
		row.AggAvgW, row.AggSamples = ja.AvgNodePowerW, ja.SampleCount
		rows = append(rows, row)
	}
	return rows
}

// TestScaleReductionCutsRootBytes holds the in-network aggregate to its
// purpose: the flat gather ships every sample over the root link,
// O(N·samples), while the reduction merges per-subtree aggregates, so
// the root sees O(aggregate) and the byte ratio grows with the cluster.
// Both paths must summarize the same samples to the same power.
func TestScaleReductionCutsRootBytes(t *testing.T) {
	prevRatio := 0.0
	for _, row := range rootBytesRows(t, DefaultSeed) {
		if row.AggRootBytes == 0 || row.RawRootBytes == 0 {
			t.Fatalf("no traffic counted at %d nodes: %+v", row.Nodes, row)
		}
		ratio := float64(row.RawRootBytes) / float64(row.AggRootBytes)
		t.Logf("%d nodes: %d samples, raw %.1f KiB vs aggregate %.1f KiB at the root (%.1f×), avg %.1f/%.1f W",
			row.Nodes, row.RawSamples, float64(row.RawRootBytes)/1024, float64(row.AggRootBytes)/1024,
			ratio, row.RawAvgW, row.AggAvgW)
		if ratio <= 2 || ratio <= prevRatio {
			t.Errorf("%d nodes: byte ratio %.1f, want > 2 and above the previous size's %.1f", row.Nodes, ratio, prevRatio)
		}
		prevRatio = ratio
		if row.AggSamples != row.RawSamples {
			t.Errorf("%d nodes: aggregate covered %d samples, raw shipped %d", row.Nodes, row.AggSamples, row.RawSamples)
		}
		if math.Abs(row.RawAvgW-row.AggAvgW) > 1e-6*row.RawAvgW {
			t.Errorf("%d nodes: raw avg %.3f W vs aggregate avg %.3f W", row.Nodes, row.RawAvgW, row.AggAvgW)
		}
	}
}

// BenchmarkReduceVsFlatGather times a whole-cluster job power query on a
// 792-node Lassen instance (the paper's full machine): the flat raw
// gather vs the in-network reduction, with the bytes crossing the root
// link reported alongside ns/op.
func BenchmarkReduceVsFlatGather(b *testing.B) {
	client, id, ingress := rootCountedJob(b, 792, DefaultSeed)
	b.Run("flat-raw", func(b *testing.B) {
		start := ingress()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Query(id); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ingress()-start)/float64(b.N), "rootB/op")
	})
	b.Run("reduce-aggregate", func(b *testing.B) {
		start := ingress()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ja, err := client.QueryAggregate(id)
			if err != nil {
				b.Fatal(err)
			}
			if ja.Partial {
				b.Fatal("healthy cluster answered partially")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(ingress()-start)/float64(b.N), "rootB/op")
	})
}

// dropRow is one loss rate of the drop sweep. Of Queries aggregate power
// queries issued under fire, OK answered completely, Partial flagged
// unreachable subtrees and Failed did not answer. AvgMissing is the mean
// count of ranks a liveness sweep found unreachable while faults were
// active; Violations counts invariants broken once they cleared.
type dropRow struct {
	DropProb                     float64
	Queries, OK, Partial, Failed int
	AvgMissing                   float64
	Violations                   int
}

// dropSweep drops messages on every TBON link of a monitored 16-node
// Lassen cluster at each probability (seed+i for the i-th), asks for a
// running job's aggregate power once per round, then clears the faults
// and runs chaos.Check.
func dropSweep(t *testing.T, seed int64, probs []float64, rounds int) []dropRow {
	t.Helper()
	rows := make([]dropRow, len(probs))
	for i, p := range probs {
		rows[i] = dropOne(t, seed+int64(i), p, rounds)
	}
	return rows
}

func dropOne(t *testing.T, seed int64, dropProb float64, rounds int) dropRow {
	t.Helper()
	const nodes = 16
	row := dropRow{DropProb: dropProb}
	plan := chaos.Plan{Seed: seed}
	if dropProb > 0 {
		plan.Links = []chaos.LinkRule{{From: chaos.AnyRank, To: chaos.AnyRank, DropProb: dropProb}}
	}
	inj := chaos.New(plan)
	c, err := cluster.New(cluster.Config{
		System:      cluster.Lassen,
		Nodes:       nodes,
		Seed:        seed,
		WrapLink:    inj.WrapLink,
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer c.Close()
	inj.Bind(c.Sched)

	var live *chaos.Liveness
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		l := chaos.NewLiveness(2 * time.Second)
		if rank == 0 {
			live = l
		}
		return l
	}); err != nil {
		t.Fatalf("load liveness: %v", err)
	}
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return powermon.New(powermon.Config{
			SampleInterval: 2 * time.Second,
			CollectTimeout: 2 * time.Second,
		})
	}); err != nil {
		t.Fatalf("load monitor: %v", err)
	}
	id, err := c.Submit(job.Spec{Name: "drop-sweep", App: "gemm", Nodes: nodes, RepFactor: 40})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	c.RunFor(10 * time.Second) // fault-free warm-up

	inj.Arm()
	mon := powermon.NewClient(c.Inst.Root())
	missing := 0
	for r := 0; r < rounds; r++ {
		c.RunFor(4 * time.Second)
		ja, err := mon.QueryAggregate(id)
		row.Queries++
		switch {
		case err != nil:
			row.Failed++
		case ja.Partial:
			row.Partial++
		default:
			row.OK++
		}
		if res, err := live.Sweep(nil, 2*time.Second); err == nil {
			missing += res.Missing
		}
	}
	row.AvgMissing = float64(missing) / float64(rounds)
	inj.Disarm()
	c.RunFor(10 * time.Second)
	vs := chaos.Check(chaos.CheckConfig{
		Brokers:            c.Inst.Brokers,
		Injector:           inj,
		Liveness:           live,
		Monitor:            true,
		RPCTimeout:         2 * time.Second,
		ExpectAllReachable: true,
	})
	row.Violations = len(vs)
	if len(vs) > 0 {
		t.Logf("drop %.2f violations:\n%s", dropProb, violationList(vs))
	}
	return row
}

// TestDropSweep holds the query plane to its bar under message loss:
// answers may degrade to partial as the loss rate climbs, but every
// query is accounted for, a loss-free fabric answers every query fully,
// and no loss rate leaves broken invariants behind once it clears.
func TestDropSweep(t *testing.T) {
	for _, row := range dropSweep(t, DefaultSeed, []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4}, 15) {
		t.Logf("drop %.2f: queries %d ok %d partial %d failed %d, avg missing ranks %.1f, violations %d",
			row.DropProb, row.Queries, row.OK, row.Partial, row.Failed, row.AvgMissing, row.Violations)
		if row.Violations != 0 {
			t.Errorf("drop %.2f: %d invariant violations after the faults cleared", row.DropProb, row.Violations)
		}
		if row.Queries != row.OK+row.Partial+row.Failed {
			t.Errorf("drop %.2f: %d queries but ok %d + partial %d + failed %d",
				row.DropProb, row.Queries, row.OK, row.Partial, row.Failed)
		}
		if row.DropProb == 0 && (row.OK != row.Queries || row.AvgMissing != 0) {
			t.Errorf("loss-free fabric: %d of %d queries ok, avg missing %.1f", row.OK, row.Queries, row.AvgMissing)
		}
	}
}

// healCrashSet is the interior-rank kill list for the 64-node fanout-2
// sim topology, ordered so each prefix is a meaningful scenario: {1,2}
// kills both root children (every orphan reattaches straight to the
// root), {1,2,5,6} adds a cascade (5 and 6 are children of dead 2), and
// the full set makes leaf orphans walk three dead ancestors before they
// find a live parent.
var healCrashSet = []int32{1, 2, 5, 6, 11, 12, 13, 14}

// TestHealExperiment measures mean time to heal: growing sets of
// interior ranks crash permanently, and the clock steps until a root
// liveness sweep again covers every surviving rank. A single crash on
// the 64-node sim must heal within 2 simulated seconds, every row must
// converge, and once the dead ranks revive and the instance quiesces,
// chaos.Check must find nothing: healing may take time but may not leak
// state. One live-TCP row replays the single crash over real sockets
// and wall-clock heartbeats.
func TestHealExperiment(t *testing.T) {
	for _, row := range []struct {
		crashes int
		seed    int64
	}{{1, DefaultSeed}, {2, DefaultSeed + 1}, {4, DefaultSeed + 2}} {
		healSec := healSimCrashes(t, row.seed, row.crashes)
		t.Logf("sim 64 nodes, %d crashes: healed in %.2f simulated s", row.crashes, healSec)
		if row.crashes == 1 && healSec > 2.0 {
			t.Errorf("single interior crash healed in %.2f simulated s, budget 2.0", healSec)
		}
	}
	t.Logf("live-tcp 16 nodes, 1 crash: healed in %.2f wall s", healLiveCrash(t))
}

// TestHealSimScalesWithCrashCount runs the whole kill set: leaf orphans
// walk three dead ancestors, and the cascade must still converge and
// leave nothing behind.
func TestHealSimScalesWithCrashCount(t *testing.T) {
	n := len(healCrashSet)
	t.Logf("sim 64 nodes, %d crashes: healed in %.2f simulated s", n, healSimCrashes(t, DefaultSeed+7, n))
}

// healSimCrashes crashes the first crashes ranks of healCrashSet on a
// 64-node sim at 5 s and returns the simulated seconds until coverage
// returns, stepping at 50 ms, the measurement's resolution.
func healSimCrashes(t *testing.T, seed int64, crashes int) float64 {
	t.Helper()
	const nodes, crashSec = 64, 5.0
	plan := chaos.Plan{Seed: seed}
	for _, r := range healCrashSet[:crashes] {
		// No EndSec: the crash is permanent until Disarm revives it.
		plan.Nodes = append(plan.Nodes, chaos.NodeRule{
			Rank: r, Kind: chaos.FaultCrash, Window: chaos.Window{StartSec: crashSec},
		})
	}
	inj := chaos.New(plan)
	c, err := cluster.New(cluster.Config{
		System:      cluster.Lassen,
		Nodes:       nodes,
		Seed:        seed,
		WrapLink:    inj.WrapLink,
		CallTimeout: 2 * time.Second,
		Heal:        &broker.HealConfig{Interval: 100 * time.Millisecond, MissThreshold: 3},
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer c.Close()
	inj.Bind(c.Sched)

	var live *chaos.Liveness
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		l := chaos.NewLiveness(2 * time.Second)
		if rank == 0 {
			live = l
		}
		return l
	}); err != nil {
		t.Fatalf("load liveness: %v", err)
	}
	c.RunFor(crashSec * time.Second) // heartbeats settle
	if res, err := live.Sweep(nil, 2*time.Second); err != nil || res.Partial {
		t.Fatalf("steady state not full before crash: %+v err=%v", res, err)
	}

	inj.Arm()
	healSec := -1.0
	for c.Sched.Now().Seconds() < crashSec+30 {
		c.RunFor(50 * time.Millisecond)
		res, err := live.Sweep(nil, 2*time.Second)
		if err == nil && res.Ranks == nodes-crashes && res.Missing == crashes {
			healSec = c.Sched.Now().Seconds() - crashSec
			break
		}
	}
	if healSec < 0 {
		t.Errorf("%d crashes on %d nodes never re-converged", crashes, nodes)
	}

	inj.Disarm() // the dead ranks revive and rejoin
	c.RunFor(15 * time.Second)
	if vs := chaos.Check(chaos.CheckConfig{
		Brokers:            c.Inst.Brokers,
		Injector:           inj,
		Liveness:           live,
		Heal:               true,
		RPCTimeout:         2 * time.Second,
		ExpectAllReachable: true,
	}); len(vs) > 0 {
		t.Errorf("%d crashes: %d violations after revive:\n%s", crashes, len(vs), violationList(vs))
	}
	return healSec
}

// healLiveCrash crashes interior rank 1 of a 16-rank live-TCP instance
// and returns the wall seconds from Arm until coverage returns.
func healLiveCrash(t *testing.T) float64 {
	t.Helper()
	const nodes = 16
	// StartSec 0: the fault is live the instant Arm is called, so the
	// heal clock starts at the wall-measured Arm.
	inj := chaos.New(chaos.Plan{
		Seed:  1,
		Nodes: []chaos.NodeRule{{Rank: 1, Kind: chaos.FaultCrash}},
	})
	li, err := broker.NewLiveInstance(broker.InstanceOptions{
		Size:        nodes,
		WrapLink:    inj.WrapLink,
		CallTimeout: 500 * time.Millisecond,
		Heal:        &broker.HealConfig{Interval: 30 * time.Millisecond, MissThreshold: 3},
	})
	if err != nil {
		t.Fatalf("live instance: %v", err)
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
		t.Fatalf("load liveness: %v", err)
	}
	// Heartbeats and listeners settle on real sockets at their own pace.
	for warm := time.Now().Add(5 * time.Second); ; time.Sleep(25 * time.Millisecond) {
		res, err := live.Sweep(nil, 400*time.Millisecond)
		if err == nil && !res.Partial {
			break
		}
		if time.Now().After(warm) {
			t.Fatalf("live instance never reached steady state: %+v err=%v", res, err)
		}
	}

	inj.Arm()
	armAt := time.Now()
	healSec := -1.0
	for time.Since(armAt) < 10*time.Second {
		time.Sleep(25 * time.Millisecond)
		// A failed sweep may be collateral damage mid-heal.
		res, err := live.Sweep(nil, 400*time.Millisecond)
		if err == nil && res.Ranks == nodes-1 && res.Missing == 1 {
			healSec = time.Since(armAt).Seconds()
			break
		}
	}
	if healSec < 0 {
		t.Errorf("live-tcp crash on %d nodes never re-converged", nodes)
	}

	inj.Disarm()
	time.Sleep(1200 * time.Millisecond) // rank 1 rejoins; deadlines drain
	if vs := chaos.Check(chaos.CheckConfig{
		Brokers:            li.Brokers,
		Injector:           inj,
		Liveness:           live,
		Heal:               true,
		RPCTimeout:         2 * time.Second,
		ExpectAllReachable: true,
	}); len(vs) > 0 {
		t.Errorf("live-tcp: %d violations after revive:\n%s", len(vs), violationList(vs))
	}
	return healSec
}
