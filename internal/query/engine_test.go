package query_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/transport"
	"fluxpower/internal/query"
	"fluxpower/internal/tsdb"
)

// buildQueryCluster assembles a sim cluster with the power monitor and
// the query engine on every rank, the engine reading the monitor's
// archive as its Source.
func buildQueryCluster(t *testing.T, size int, pmCfg powermon.Config) (*cluster.Cluster, *query.Client) {
	t.Helper()
	c, cl, _ := queryCluster(t, size, pmCfg)
	return c, cl
}

// queryCluster is buildQueryCluster that also hands back each rank's
// monitor, for tests that read a Source directly.
func queryCluster(t *testing.T, size int, pmCfg powermon.Config) (*cluster.Cluster, *query.Client, []*powermon.Module) {
	t.Helper()
	return queryClusterWith(t, lassen(size), pmCfg, func(_ int32, m *powermon.Module) query.Source { return m })
}

// lassen is the cluster config the query tests run on.
func lassen(size int) cluster.Config {
	return cluster.Config{System: cluster.Lassen, Nodes: size, Seed: 7}
}

// queryClusterWith is queryCluster on the cluster cfg describes, with
// each engine reading the Source that wrap makes of its rank's monitor.
func queryClusterWith(t *testing.T, cfg cluster.Config, pmCfg powermon.Config, wrap func(int32, *powermon.Module) query.Source) (*cluster.Cluster, *query.Client, []*powermon.Module) {
	t.Helper()
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Close)
	mons := make([]*powermon.Module, cfg.Nodes)
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		m := powermon.New(pmCfg)
		mons[rank] = m
		return m
	}); err != nil {
		t.Fatalf("load monitor: %v", err)
	}
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return query.New(query.Config{
			Source: func(rank int32) query.Source { return wrap(rank, mons[rank]) },
		})
	}); err != nil {
		t.Fatalf("load query engine: %v", err)
	}
	return c, query.NewClient(c.Inst.Root()), mons
}

// evalBoth evaluates one expression through the pushdown and the
// reference evaluator over the same fetched records, returning both
// results' JSON.
func evalBoth(t *testing.T, c *cluster.Cluster, cl *query.Client, expr string, endSec float64) (pushed, ref []byte, res query.Result) {
	t.Helper()
	res, err := cl.Eval(expr, 0, endSec)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	spec, err := cl.Plan(expr, 0, endSec)
	if err != nil {
		t.Fatalf("plan %q: %v", expr, err)
	}
	e, err := query.Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	replies := cl.FetchAll(spec, int32(c.NodeCount()))
	want := query.EvalRecords(e, spec, replies, c.NodeCount())
	pushed, _ = json.Marshal(res)
	ref, _ = json.Marshal(want)
	return pushed, ref, res
}

// pushdownExprs is a representative slice of the grammar over [4m]
// windows (and one [2w]), one of them filtered to job idA.
func pushdownExprs(idA uint64) []string {
	return []string{
		"avg by (job) (avg_over_time(node_power_watts[4m]))",
		"sum by (component) (avg_over_time(power_watts[4m]))",
		"max(max_over_time(node_power_watts[4m]))",
		"min by (rank) (min_over_time(cpu_power_watts[4m]))",
		"count by (rank) (rate(node_power_watts[4m]))",
		"sum(sum_over_time(gpu_power_watts[4m]))",
		"topk(3, avg_over_time(cpu_power_watts[4m]))",
		"topk(2, sum by (job) (sum_over_time(node_power_watts[4m])))",
		`avg(avg_over_time(node_power_watts{rank="2"}[4m]))`,
		fmt.Sprintf(`avg by (job) (avg_over_time(node_power_watts{job="%d"}[4m]))`, idA),
		// Range >= 1e6 s: the canonical form must survive the per-rank
		// re-parse (regression: 'g' formatting emitted 1.2096e+06).
		"avg by (job) (avg_over_time(node_power_watts[2w]))",
	}
}

// TestQueryPushdownMatchesReference is the engine's correctness
// contract: for a representative slice of the grammar, the distributed
// pushdown answer is byte-identical to the single-node reference
// evaluation over the same plan-selected records.
func TestQueryPushdownMatchesReference(t *testing.T) {
	c, cl := buildQueryCluster(t, 8, powermon.Config{
		SampleInterval: 2 * time.Second,
		CollectTimeout: 2 * time.Second,
	})
	idA, err := c.Submit(job.Spec{App: "gemm", Nodes: 3})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Submit(job.Spec{App: "lammps", Nodes: 4}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	c.RunFor(5 * time.Minute)
	end := c.Now().Seconds()

	exprs := pushdownExprs(idA)
	for _, expr := range exprs {
		pushed, ref, res := evalBoth(t, c, cl, expr, end)
		if string(pushed) != string(ref) {
			t.Fatalf("%s:\npushdown  %s\nreference %s", expr, pushed, ref)
		}
		if res.Partial || !res.Complete {
			t.Fatalf("%s: partial=%v complete=%v on a healthy cluster:\n%s", expr, res.Partial, res.Complete, pushed)
		}
	}

	// Shape spot-checks on the job grouping.
	_, _, res := evalBoth(t, c, cl, "avg by (job) (avg_over_time(node_power_watts[4m]))", end)
	if len(res.Groups) != 2 {
		t.Fatalf("want one group per job (2), got %+v", res.Groups)
	}
	for _, g := range res.Groups {
		if !strings.HasPrefix(g.Key, "job=") || g.Value <= 0 {
			t.Fatalf("implausible group %+v", g)
		}
	}
	if len(res.Sources) != 1 || res.Sources[0] != query.SourceRaw {
		t.Fatalf("short window should read the raw ring, got sources %v", res.Sources)
	}
}

// TestQueryRootByteRatio answers one group-by-job query over a 24 h
// window twice on 8, 32 and 64 nodes: by fetching every rank's
// plan-selected records to the root, which ships O(nodes x buckets),
// and by the pushdown, which ships O(fanout x groups). Four waves of
// three jobs run across the window; 60 s samples and a ten-hour ring
// put every node on its 10-minute tier. The answers must be identical,
// and at 64 nodes the pushdown must cost the root link at least 10x
// fewer bytes.
func TestQueryRootByteRatio(t *testing.T) {
	const window = 24 * time.Hour
	const waves, jobsPerWave = 4, 3
	expr := fmt.Sprintf("avg by (job) (avg_over_time(node_power_watts[%ds]))", int(window.Seconds()))
	var ratio float64
	for _, nodes := range []int{8, 32, 64} {
		var rootIngress []*transport.Counter
		cfg := lassen(nodes)
		cfg.WrapLink = func(from, to int32, l transport.Link) transport.Link {
			if to != 0 {
				return l
			}
			ctr := transport.NewCounter(l)
			rootIngress = append(rootIngress, ctr)
			return ctr
		}
		ingress := func() (total uint64) {
			for _, ctr := range rootIngress {
				_, bytes := ctr.Stats()
				total += bytes
			}
			return total
		}
		c, cl, _ := queryClusterWith(t, cfg, powermon.Config{
			SampleInterval: time.Minute,
			CollectTimeout: 5 * time.Second,
			BufferSamples:  600,
			Tiers: []powermon.TierSpec{
				{Period: 10 * time.Minute, Buckets: 1100},
				{Period: time.Hour, Buckets: 200},
			},
		}, func(_ int32, m *powermon.Module) query.Source { return m })
		cl = cl.WithTimeout(5 * time.Minute)
		for w := 0; w < waves; w++ {
			for j := 0; j < jobsPerWave; j++ {
				if _, err := c.Submit(job.Spec{App: "gemm", Nodes: max(nodes/4, 1), RepFactor: 4}); err != nil {
					t.Fatalf("submit: %v", err)
				}
			}
			c.RunFor(window / waves)
		}
		end := c.Now().Seconds()

		spec, err := cl.Plan(expr, 0, end)
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		e, err := query.Parse(expr)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		before := ingress()
		replies := cl.FetchAll(spec, int32(nodes))
		ref := query.EvalRecords(e, spec, replies, nodes)
		fetchBytes := ingress() - before
		if len(replies) != nodes {
			t.Fatalf("%d nodes: fetch reached %d ranks", nodes, len(replies))
		}
		before = ingress()
		res, err := cl.Eval(expr, 0, end)
		if err != nil {
			t.Fatalf("%d nodes: eval: %v", nodes, err)
		}
		pushBytes := ingress() - before

		pushed, _ := json.Marshal(res)
		want, _ := json.Marshal(ref)
		switch {
		case string(pushed) != string(want):
			t.Fatalf("%d nodes:\npushdown  %s\nreference %s", nodes, pushed, want)
		case res.Partial || !res.Complete:
			t.Fatalf("%d nodes: partial=%v complete=%v on a healthy cluster", nodes, res.Partial, res.Complete)
		case len(res.Groups) != waves*jobsPerWave:
			t.Fatalf("%d nodes: %d groups, want one per job (%d)", nodes, len(res.Groups), waves*jobsPerWave)
		case len(res.Sources) != 1 || res.Sources[0] != "tier:600":
			t.Fatalf("%d nodes: sources %v, want the 10-minute tier", nodes, res.Sources)
		case pushBytes == 0:
			t.Fatalf("%d nodes: no pushdown bytes counted", nodes)
		}
		ratio = float64(fetchBytes) / float64(pushBytes)
		t.Logf("%2d nodes  %d groups  fetch %.1f KiB  pushdown %.1f KiB  %.1fx", nodes, len(res.Groups),
			float64(fetchBytes)/1024, float64(pushBytes)/1024, ratio)
	}
	if ratio < 10 {
		t.Fatalf("64-node root byte ratio %.1fx, want at least 10x", ratio)
	}
}

// TestQueryTierSelection: a window the raw ring no longer covers must
// answer from the finest covering archive tier — completely, since the
// tier's retention reaches back far enough.
func TestQueryTierSelection(t *testing.T) {
	c, cl := buildQueryCluster(t, 4, powermon.Config{
		SampleInterval: 2 * time.Second,
		CollectTimeout: 2 * time.Second,
		BufferSamples:  30, // ring holds only ~60 s
		Tiers:          []powermon.TierSpec{{Period: time.Minute, Buckets: 100}},
	})
	c.RunFor(10 * time.Minute)
	end := c.Now().Seconds()

	res, err := cl.Eval("avg(avg_over_time(node_power_watts[8m]))", 0, end)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if len(res.Sources) != 1 || res.Sources[0] != "tier:60" {
		t.Fatalf("long window should read the 60s tier, got %v", res.Sources)
	}
	if !res.Complete || res.Partial {
		t.Fatalf("tier covers the window; want complete: %+v", res)
	}

	short, err := cl.Eval("avg(avg_over_time(node_power_watts[30s]))", 0, end)
	if err != nil {
		t.Fatalf("eval short: %v", err)
	}
	if len(short.Sources) != 1 || short.Sources[0] != query.SourceRaw {
		t.Fatalf("short window should read the raw ring, got %v", short.Sources)
	}
}

// TestQueryDurableTier: with the in-memory archive crippled (tiny ring,
// no tiers, a raw-point cap the window exceeds), the planner must reach
// the durable store's compacted tier logs.
func TestQueryDurableTier(t *testing.T) {
	c, cl := buildQueryCluster(t, 2, powermon.Config{
		SampleInterval: 2 * time.Second,
		CollectTimeout: 2 * time.Second,
		BufferSamples:  30,
		Tiers:          []powermon.TierSpec{}, // disable memory tiers
		MaxRawPoints:   50,
		StoreDir:       t.TempDir(),
		Store:          tsdb.Config{BlockSamples: 64, SyncEvery: 16},
	})
	c.RunFor(10 * time.Minute)
	end := c.Now().Seconds()

	res, err := cl.Eval("avg(avg_over_time(node_power_watts[8m]))", 0, end)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if len(res.Sources) != 1 || !strings.HasPrefix(res.Sources[0], "tsdb:") {
		t.Fatalf("want a durable source, got %v", res.Sources)
	}
	if res.Series == 0 {
		t.Fatalf("no series from durable store: %+v", res)
	}
}

// TestQueryBadRequests: malformed expressions and empty windows fail
// with an error, not a panic and not a silent empty result.
func TestQueryBadRequests(t *testing.T) {
	c, cl := buildQueryCluster(t, 2, powermon.Config{
		SampleInterval: 2 * time.Second,
		CollectTimeout: 2 * time.Second,
	})
	c.RunFor(time.Minute)
	if _, err := cl.Eval("sum(avg_over_time(bogus[60s]))", 0, 0); err == nil {
		t.Fatal("bad metric accepted")
	}
	if _, err := cl.Eval("avg_over_time(node_power_watts[60s])", 0, 0); err == nil {
		t.Fatal("bare window accepted")
	}
	// StartSec beyond EndSec leaves an empty window.
	if _, err := cl.Eval("sum(avg_over_time(node_power_watts[60s]))", 500, 100); err == nil {
		t.Fatal("empty window accepted")
	}
}

// TestFetchAllWithoutEngine: the per-rank read is the power monitor's,
// so a cluster running monitors and no query engine still answers
// FetchAll on every rank, with the records a plan selects there and no
// hostname on a plan read.
func TestFetchAllWithoutEngine(t *testing.T) {
	const size = 4
	c, err := cluster.New(cluster.Config{System: cluster.Lassen, Nodes: size, Seed: 7})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Close)
	if err := c.Inst.LoadModuleAll(func(int32) broker.Module {
		return powermon.New(powermon.Config{SampleInterval: 2 * time.Second})
	}); err != nil {
		t.Fatalf("load monitor: %v", err)
	}
	c.RunFor(5 * time.Minute)
	end := c.Now().Seconds()
	spec := query.PlanSpec{Expr: "sum(avg_over_time(node_power_watts[4m]))", StartSec: end - 240, EndSec: end}
	replies := query.NewClient(c.Inst.Root()).FetchAll(spec, size)
	if len(replies) != size {
		t.Fatalf("%d of %d ranks answered", len(replies), size)
	}
	for i, r := range replies {
		if r.Rank != int32(i) || r.Source != query.SourceRaw || !r.Complete || len(r.Samples) != 121 || r.Hostname != "" {
			t.Fatalf("rank %d: reply rank %d source %q complete=%v %d samples hostname %q, want its ring's 121 samples",
				i, r.Rank, r.Source, r.Complete, len(r.Samples), r.Hostname)
		}
	}
}
