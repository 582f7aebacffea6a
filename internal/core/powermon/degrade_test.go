package powermon

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/query"
	"fluxpower/internal/tsdb"
)

// TestStoreCrashDegradesEveryRead: one degrade rule for every planned
// read. A node whose ring has lost the window start plans the durable
// blocks; once its store has crashed, the collect, the aggregate's
// Local and the query engine's pushdown each answer the ring's samples
// flagged incomplete — none fails, and the engine does not count the
// rank missing.
// newCrashRig builds a 2-node cluster whose monitors keep a 60 s ring,
// no in-memory tiers and a durable store with the given tier logs, under
// a query engine.
func newCrashRig(t *testing.T, storeTiers []float64, maxRawPoints int) (*cluster.Cluster, []*Module) {
	t.Helper()
	c, err := cluster.New(cluster.Config{System: cluster.Lassen, Nodes: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	mons := make([]*Module, 2)
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		mons[rank] = New(Config{
			SampleInterval: 2 * time.Second,
			CollectTimeout: 2 * time.Second,
			BufferSamples:  30,
			MaxRawPoints:   maxRawPoints,
			Tiers:          []TierSpec{},
			StoreDir:       t.TempDir(),
			Store:          tsdb.Config{BlockSamples: 64, SyncEvery: 16, TierPeriodsSec: storeTiers},
		})
		return mons[rank]
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Inst.LoadModuleAll(func(int32) broker.Module {
		return query.New(query.Config{Source: func(rank int32) query.Source { return mons[rank] }})
	}); err != nil {
		t.Fatal(err)
	}
	return c, mons
}

func TestStoreCrashDegradesEveryRead(t *testing.T) {
	t.Run("raw blocks", testCrashRawBlocks)
	t.Run("tier logs", testCrashTierLogs)
}

func testCrashRawBlocks(t *testing.T) {
	// No tiers in memory or on disk: a 4 min window can only come from
	// the ring or the raw blocks.
	c, mons := newCrashRig(t, []float64{}, 0)
	c.RunFor(10 * time.Minute)
	end := c.Now().Seconds()
	start := end - 240
	m := mons[1]
	m.CrashStore()
	ring := m.QueryRaw(start, end)
	if len(ring) == 0 || ring[0].Timestamp <= start+60 {
		t.Fatalf("the ring should hold only the window's last minute, got %d samples", len(ring))
	}
	var ringSumW float64
	for _, p := range ring {
		ringSumW += p.TotalWatts()
	}

	ns, err := NewClient(c.Inst.Root()).CollectNodeContext(context.Background(), 1, start, end)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if ns.Complete || ns.Source != "" || len(ns.Samples) != len(ring) {
		t.Fatalf("collect: complete=%v source=%q %d samples, want the ring's %d, incomplete",
			ns.Complete, ns.Source, len(ns.Samples), len(ring))
	}

	body, _ := json.Marshal(query.PlanSpec{StartSec: start, EndSec: end})
	agg, err := m.localWindowAgg(body, nil)
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if agg.Complete || agg.CoarsestTierSec != 0 || agg.Power.Node.Count != len(ring) {
		t.Fatalf("aggregate: complete=%v tier=%v %d samples, want the ring's %d, incomplete",
			agg.Complete, agg.CoarsestTierSec, agg.Power.Node.Count, len(ring))
	}

	res, err := query.NewClient(c.Inst.Root()).Eval(`sum(sum_over_time(node_power_watts{rank="1"}[4m]))`, 0, end)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if res.Partial || res.RanksMissing != 0 || res.Complete {
		t.Fatalf("eval: partial=%v missing=%d complete=%v, want the rank answering, incomplete",
			res.Partial, res.RanksMissing, res.Complete)
	}
	if len(res.Sources) != 1 || res.Sources[0] != query.SourceRaw ||
		len(res.Groups) != 1 || math.Abs(res.Groups[0].Value-ringSumW) > 1e-3 {
		t.Fatalf("eval: sources %v groups %+v, want the ring's %v W summed", res.Sources, res.Groups, ringSumW)
	}

	// The healthy rank still reads its blocks, complete.
	ns0, err := NewClient(c.Inst.Root()).CollectNodeContext(context.Background(), 0, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if !ns0.Complete || ns0.Source != "tsdb" {
		t.Fatalf("healthy rank: complete=%v source=%q, want the blocks", ns0.Complete, ns0.Source)
	}
}

// testCrashTierLogs: a 60 s durable tier and a window too long for a raw
// read, so before the crash only the tier log covers it. A crashed store
// answers no read: its tier log is no longer planned, and the aggregate
// and the pushdown answer the ring's samples, incomplete.
func testCrashTierLogs(t *testing.T) {
	c, mons := newCrashRig(t, []float64{60}, 50)
	c.RunFor(10 * time.Minute)
	end := c.Now().Seconds()
	start := end - 240
	m := mons[1]
	body, _ := json.Marshal(query.PlanSpec{StartSec: start, EndSec: end})
	const expr = `sum(sum_over_time(node_power_watts{rank="1"}[4m]))`
	agg, err := m.localWindowAgg(body, nil)
	if err != nil || !agg.Complete || agg.CoarsestTierSec != 60 {
		t.Fatalf("before the crash: aggregate complete=%v tier=%v err=%v, want the tier log, complete",
			agg.Complete, agg.CoarsestTierSec, err)
	}
	res, err := query.NewClient(c.Inst.Root()).Eval(expr, 0, end)
	if err != nil || !res.Complete || len(res.Sources) != 1 || res.Sources[0] != "tsdb:60" {
		t.Fatalf("before the crash: eval complete=%v sources=%v err=%v, want tsdb:60, complete",
			res.Complete, res.Sources, err)
	}

	m.CrashStore()
	ring := m.QueryRaw(start, end)
	agg, err = m.localWindowAgg(body, nil)
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if agg.Complete || agg.CoarsestTierSec != 0 || agg.Power.Node.Count != len(ring) {
		t.Fatalf("aggregate: complete=%v tier=%v %d samples, want the ring's %d, incomplete",
			agg.Complete, agg.CoarsestTierSec, agg.Power.Node.Count, len(ring))
	}
	res, err = query.NewClient(c.Inst.Root()).Eval(expr, 0, end)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if res.Complete || res.RanksMissing != 0 || len(res.Sources) != 1 || res.Sources[0] != query.SourceRaw {
		t.Fatalf("eval: complete=%v missing=%d sources=%v, want the ring, incomplete",
			res.Complete, res.RanksMissing, res.Sources)
	}
}
