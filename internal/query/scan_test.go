package query_test

import (
	"encoding/json"
	"testing"
	"time"

	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/hw"
	"fluxpower/internal/query"
)

// copyOnly forwards query.Source's four methods and nothing else, so
// the engine cannot see the monitor's Scanner and copies every window
// out before folding it.
type copyOnly struct{ query.Source }

// TestPushdownScanMatchesCopyPath: for every expression of
// TestQueryPushdownMatchesReference, each rank's partial folded in
// place through the monitor's Scanner is JSON-identical to the one
// folded from the copied-out records — on raw-ring windows and, with
// the raw-point cap below the window, on in-memory tier windows.
func TestPushdownScanMatchesCopyPath(t *testing.T) {
	cases := []struct {
		name, source string
		cfg          powermon.Config
	}{
		{"raw", query.SourceRaw, powermon.Config{
			SampleInterval: 2 * time.Second,
			CollectTimeout: 2 * time.Second,
		}},
		{"tier", "tier:60", powermon.Config{
			SampleInterval: 2 * time.Second,
			CollectTimeout: 2 * time.Second,
			MaxRawPoints:   50, // a 4m window is 120 samples
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const size = 8
			c, cl, mons := queryCluster(t, size, tc.cfg)
			idA, err := c.Submit(job.Spec{App: "gemm", Nodes: 3})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			if _, err := c.Submit(job.Spec{App: "lammps", Nodes: 4}); err != nil {
				t.Fatalf("submit: %v", err)
			}
			c.RunFor(5 * time.Minute)
			end := c.Now().Seconds()

			read := 0 // partials that read tc.source
			for _, expr := range pushdownExprs(idA) {
				spec, err := cl.Plan(expr, 0, end)
				if err != nil {
					t.Fatalf("plan %q: %v", expr, err)
				}
				e, err := query.Parse(expr)
				if err != nil {
					t.Fatalf("parse %q: %v", expr, err)
				}
				for rank := int32(0); rank < size; rank++ {
					scanned := query.FoldSource(mons[rank], e, spec, rank)
					copied := query.FoldSource(copyOnly{mons[rank]}, e, spec, rank)
					got, _ := json.Marshal(scanned)
					want, _ := json.Marshal(copied)
					if string(got) != string(want) {
						t.Fatalf("%s rank %d:\nin place %s\ncopied   %s", expr, rank, got, want)
					}
					if len(scanned.Sources) == 1 && scanned.Sources[0] == tc.source && scanned.Series > 0 {
						read++
					}
				}
			}
			if read == 0 {
				t.Fatalf("no partial folded a non-empty %s window; the comparison proved nothing", tc.source)
			}
		})
	}
}

// TestLivePushdownFoldsInPlace runs the in-place pushdown on a live TCP
// instance, where every node agent's sampler pushes on its own
// wall-clock timer while queries fold the same rings and tiers. Under
// -race it is the check that each fold runs under the monitor lock.
func TestLivePushdownFoldsInPlace(t *testing.T) {
	const size = 3
	li, err := broker.NewLiveInstance(broker.InstanceOptions{
		Size: size,
		Local: func(rank int32) any {
			node, err := hw.NewNode("live", hw.LassenConfig(), int64(rank+1))
			if err != nil {
				t.Fatal(err)
			}
			node.SetDemand(hw.Demand{CPUW: []float64{150, 150}, MemW: 80, GPUW: []float64{200, 200, 200, 200}})
			return node
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	mons := make([]*powermon.Module, size)
	if err := li.LoadModuleAll(func(rank int32) broker.Module {
		mons[rank] = powermon.New(powermon.Config{
			SampleInterval: 5 * time.Millisecond,
			MaxRawPoints:   50,
			Tiers:          []powermon.TierSpec{{Period: 50 * time.Millisecond, Buckets: 100}},
		})
		return mons[rank]
	}); err != nil {
		t.Fatal(err)
	}
	if err := li.LoadModuleAll(func(int32) broker.Module {
		return query.New(query.Config{Source: func(rank int32) query.Source { return mons[rank] }})
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // real time: ~60 samples and ~6 buckets per node

	cl := query.NewClient(li.Root())
	queries := []struct{ expr, source string }{
		{"count(avg_over_time(node_power_watts[0.2s]))", query.SourceRaw}, // 40 samples
		{"count(avg_over_time(node_power_watts[2s]))", "tier:0.05"},       // 400 samples
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for _, q := range queries {
			res, err := cl.Eval(q.expr, 0, 0)
			if err != nil {
				t.Fatalf("%s: %v", q.expr, err)
			}
			if len(res.Sources) != 1 || res.Sources[0] != q.source {
				t.Fatalf("%s: read %v, want %s", q.expr, res.Sources, q.source)
			}
			if res.Partial || !res.Complete || len(res.Groups) != 1 || res.Groups[0].Value != size {
				t.Fatalf("%s: want one series per rank from a complete answer, got %+v", q.expr, res)
			}
		}
	}
}
