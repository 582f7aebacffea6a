package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"fluxpower/internal/cluster"
	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/transport"
	"fluxpower/internal/query"
)

// QueryRow is one fleet size of the query-pushdown benchmark: a
// history-spanning group-by-job power query answered twice — by
// fetching every rank's plan-selected records to the root (the flat
// baseline every raw-export pipeline pays) and by the in-network
// pushdown that merges partial aggregates at every TBON level.
type QueryRow struct {
	Nodes int
	// Jobs is how many jobs ran inside the window; Groups how many
	// result rows the query returned (must match).
	Jobs   int
	Groups int
	// WindowSec is the queried range.
	WindowSec float64
	// Source is the storage tier the planner selected on every node.
	Source string
	// RawRootBytes / PushRootBytes count bytes arriving at rank 0 over
	// its TBON links during each evaluation.
	RawRootBytes  uint64
	PushRootBytes uint64
	// ByteRatio is RawRootBytes / PushRootBytes — the number the gate
	// holds.
	ByteRatio float64
	// RawWallMs / PushWallMs are host wall-clock times (fetch+reference
	// evaluation vs distributed evaluation).
	RawWallMs  float64
	PushWallMs float64
	// Identical records the correctness contract: the pushdown answer
	// is byte-identical to the single-node reference evaluation over
	// the same fetched records.
	Identical bool
}

// QueryResult is the pushdown-vs-fetch comparison.
type QueryResult struct {
	Rows []QueryRow
	// GateRatio is the acceptance bound applied to the largest fleet;
	// LastRatio is what that fleet measured.
	GateRatio float64
	LastRatio float64
}

// Acceptance bounds on the largest fleet's byte ratio. The full sweep
// replays the paper-scale scenario (792 nodes, week-long window, 10min
// tier); quick mode shrinks the fleet and the window for CI, where the
// per-rank bucket volume — and so the achievable ratio — is far
// smaller.
const (
	queryFullGate  = 50.0
	queryQuickGate = 10.0
)

// Query benchmarks the cluster-wide query engine: each fleet size runs
// four waves of jobs across a long window sampled at 60s and archived
// into a 10-minute tier, then answers one group-by-job average-power
// query over the whole window both ways. The flat baseline ships every
// selected bucket over the root link — O(nodes × buckets); the pushdown
// ships merged partials — O(fanout × groups) — so the ratio grows with
// fleet size and window length. Errors when the largest fleet's ratio
// falls under the gate or when any row's pushdown answer diverges from
// the reference evaluation.
func Query(o Options) (*QueryResult, error) {
	o = o.withDefaults()
	sizes := []int{8, 64, 256, 792}
	window := 7 * 24 * time.Hour
	gate := queryFullGate
	if o.Quick {
		sizes = []int{8, 32, 64}
		window = 24 * time.Hour
		gate = queryQuickGate
	}
	res := &QueryResult{GateRatio: gate}
	for _, n := range sizes {
		row, err := queryOne(n, o.Seed, window)
		if err != nil {
			return nil, fmt.Errorf("query: %d nodes: %w", n, err)
		}
		if !row.Identical {
			return nil, fmt.Errorf("query: %d nodes: pushdown diverged from the reference evaluation", n)
		}
		res.Rows = append(res.Rows, row)
	}
	res.LastRatio = res.Rows[len(res.Rows)-1].ByteRatio
	if res.LastRatio < gate {
		return res, fmt.Errorf("query: %d-node byte ratio %.1fx under the %.0fx gate:\n%s",
			sizes[len(sizes)-1], res.LastRatio, gate, res.RenderCSV())
	}
	return res, nil
}

func queryOne(nodes int, seed int64, window time.Duration) (QueryRow, error) {
	row := QueryRow{Nodes: nodes, WindowSec: window.Seconds()}
	// Count every byte arriving at rank 0 over the TBON — the root link
	// both evaluations pay for.
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
		return row, err
	}
	defer c.Close()
	mons := make([]*powermon.Module, nodes)
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		m := powermon.New(powermon.Config{
			// Production cadence: 60s samples, a ring holding ten hours,
			// and a 10-minute tier retaining the whole week — the query
			// window outruns the ring, so the planner answers from the
			// tier on every node.
			SampleInterval: time.Minute,
			CollectTimeout: 5 * time.Second,
			BufferSamples:  600,
			Tiers: []powermon.TierSpec{
				{Period: 10 * time.Minute, Buckets: 1100},
				{Period: time.Hour, Buckets: 200},
			},
		})
		mons[rank] = m
		return m
	}); err != nil {
		return row, err
	}
	if err := c.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return query.New(query.Config{
			Source: func(rank int32) query.Source { return mons[rank] },
		})
	}); err != nil {
		return row, err
	}

	// Four waves of three jobs spread across the window, each wave
	// occupying three quarters of the fleet, so the group-by has real
	// per-job structure at every scale.
	const waves, jobsPerWave = 4, 3
	jobNodes := nodes / 4
	if jobNodes < 1 {
		jobNodes = 1
	}
	for w := 0; w < waves; w++ {
		for j := 0; j < jobsPerWave; j++ {
			if _, err := c.Submit(job.Spec{App: "gemm", Nodes: jobNodes, RepFactor: 4}); err != nil {
				return row, err
			}
		}
		c.RunFor(window / waves)
	}
	row.Jobs = waves * jobsPerWave
	end := c.Now().Seconds()
	expr := fmt.Sprintf("avg by (job) (avg_over_time(node_power_watts[%ds]))", int(window.Seconds()))
	cl := query.NewClient(c.Inst.Root()).WithTimeout(5 * time.Minute)
	ingress := func() uint64 {
		var total uint64
		for _, ctr := range rootIngress {
			_, bytes := ctr.Stats()
			total += bytes
		}
		return total
	}

	// Baseline: resolve the plan once, fetch every rank's plan-selected
	// records to the root, evaluate there.
	spec, err := cl.Plan(expr, 0, end)
	if err != nil {
		return row, err
	}
	e, err := query.Parse(expr)
	if err != nil {
		return row, err
	}
	before := ingress()
	start := time.Now()
	replies := cl.FetchAll(spec, int32(nodes))
	ref := query.EvalRecords(e, spec, replies, nodes)
	row.RawWallMs = float64(time.Since(start)) / float64(time.Millisecond)
	row.RawRootBytes = ingress() - before
	if len(replies) != nodes {
		return row, fmt.Errorf("baseline fetched %d of %d ranks", len(replies), nodes)
	}

	// Pushdown: the same plan flows down the reduce tree; partials merge
	// at every level.
	before = ingress()
	start = time.Now()
	res, err := cl.Eval(expr, 0, end)
	if err != nil {
		return row, err
	}
	row.PushWallMs = float64(time.Since(start)) / float64(time.Millisecond)
	row.PushRootBytes = ingress() - before

	if res.Partial || !res.Complete {
		return row, fmt.Errorf("healthy cluster answered partial=%v complete=%v", res.Partial, res.Complete)
	}
	if len(res.Groups) != row.Jobs {
		return row, fmt.Errorf("want one group per job (%d), got %d", row.Jobs, len(res.Groups))
	}
	row.Groups = len(res.Groups)
	row.Source = strings.Join(res.Sources, ",")
	pushed, _ := json.Marshal(res)
	want, _ := json.Marshal(ref)
	row.Identical = string(pushed) == string(want)
	if row.PushRootBytes > 0 {
		row.ByteRatio = float64(row.RawRootBytes) / float64(row.PushRootBytes)
	}
	return row, nil
}

func (r *QueryResult) tabular() ([]string, [][]string) {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%d", row.Jobs),
			fmt.Sprintf("%d", row.Groups),
			f0(row.WindowSec / 3600),
			row.Source,
			f1(float64(row.RawRootBytes) / 1024),
			f1(float64(row.PushRootBytes) / 1024),
			f1(row.ByteRatio),
			f2(row.RawWallMs),
			f2(row.PushWallMs),
			fmt.Sprintf("%v", row.Identical),
		})
	}
	return []string{"nodes", "jobs", "groups", "window_h", "source",
		"fetch_root_KiB", "push_root_KiB", "byte_ratio", "fetch_ms", "push_ms", "identical"}, rows
}

// Render prints the comparison.
func (r *QueryResult) Render() string {
	header, rows := r.tabular()
	return "Query: group-by-job power over the whole window, flat record fetch vs tier pushdown\n" +
		table(header, rows) +
		fmt.Sprintf("the fetch ships every plan-selected bucket over the root link (O(nodes x buckets));\n"+
			"the pushdown merges partials at every TBON level (O(fanout x groups)).\n"+
			"largest fleet: %.1fx fewer root bytes (gate %.0fx), results byte-identical.\n",
			r.LastRatio, r.GateRatio)
}

// RenderCSV emits the comparison as CSV.
func (r *QueryResult) RenderCSV() string {
	header, rows := r.tabular()
	return csvTable(header, rows)
}

// RenderJSON emits the benchmark in the BENCH_query.json shape CI
// publishes as an artifact.
func (r *QueryResult) RenderJSON() (string, error) {
	out, err := json.MarshalIndent(struct {
		Experiment string     `json:"experiment"`
		GateRatio  float64    `json:"gate_ratio"`
		LastRatio  float64    `json:"last_ratio"`
		Rows       []QueryRow `json:"rows"`
	}{Experiment: "query", GateRatio: r.GateRatio, LastRatio: r.LastRatio, Rows: r.Rows}, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
