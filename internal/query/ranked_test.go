package query_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"fluxpower/internal/core/powermon"
	"fluxpower/internal/flux/job"
	"fluxpower/internal/query"
)

// metaCounter is the monitor as a Source that counts QueryMeta calls:
// every pushdown read plans through it once, so it counts the ranks
// that touched storage. Embedding keeps the monitor's Scanner.
type metaCounter struct {
	*powermon.Module
	reads *int
}

func (s metaCounter) QueryMeta() query.SourceMeta {
	*s.reads++
	return s.Module.QueryMeta()
}

// ownWindows is the test's oracle for one rank's pushdown body: the
// plan's windows that claim the rank, after the job and rank matchers,
// in plan order, without rank lists.
func ownWindows(e *query.Expr, spec query.PlanSpec, rank int32) []query.JobWindow {
	var out []query.JobWindow
	for _, w := range spec.Jobs {
		keep := false
		for _, r := range w.Ranks {
			keep = keep || r == rank
		}
		for _, m := range e.Matchers {
			switch m.Label {
			case query.LabelJob:
				keep = keep && m.Value == strconv.FormatUint(w.ID, 10)
			case query.LabelRank:
				keep = keep && m.Value == strconv.Itoa(int(rank))
			}
		}
		if keep {
			out = append(out, query.JobWindow{ID: w.ID, StartSec: w.StartSec, EndSec: w.EndSec})
		}
	}
	return out
}

// TestPushdownShipsOnlyOwnWindows: for every job-scoped expression of
// pushdownExprs (the job="<id>" matcher among them) plus a rank-matched
// one, each rank's reduce body is exactly its own job windows and a
// rank with none gets no body and reads no storage; the pushdown answer
// stays JSON-identical to the reference evaluation over the full plan.
func TestPushdownShipsOnlyOwnWindows(t *testing.T) {
	const size = 8
	reads := make([]int, size)
	c, cl, _ := queryClusterWith(t, lassen(size), powermon.Config{
		SampleInterval: 2 * time.Second,
		CollectTimeout: 2 * time.Second,
	}, func(rank int32, m *powermon.Module) query.Source { return metaCounter{m, &reads[rank]} })
	idA, err := c.Submit(job.Spec{App: "gemm", Nodes: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Submit(job.Spec{App: "lammps", Nodes: 3}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	c.RunFor(5 * time.Minute)
	end := c.Now().Seconds()

	exprs := append(pushdownExprs(idA), `sum by (job) (avg_over_time(node_power_watts{rank="2"}[4m]))`)
	checked, idle := 0, 0
	for _, expr := range exprs {
		e, err := query.Parse(expr)
		if err != nil {
			t.Fatalf("parse %q: %v", expr, err)
		}
		if !e.NeedsJobs() {
			continue
		}
		checked++
		clear(reads)
		if _, err := cl.Eval(expr, 0, end); err != nil {
			t.Fatalf("eval %q: %v", expr, err)
		}
		evalReads := append([]int(nil), reads...)
		pushed, ref, _ := evalBoth(t, c, cl, expr, end)
		if string(pushed) != string(ref) {
			t.Fatalf("%s:\npushdown  %s\nreference %s", expr, pushed, ref)
		}
		spec, err := cl.Plan(expr, 0, end)
		if err != nil {
			t.Fatalf("plan %q: %v", expr, err)
		}
		bodies, err := query.RankWindows(e, spec, size)
		if err != nil {
			t.Fatalf("%s: split: %v", expr, err)
		}
		for rank := int32(0); rank < size; rank++ {
			want := ownWindows(e, spec, rank)
			body, ok := bodies[rank]
			label := fmt.Sprintf("%s rank %d", expr, rank)
			if len(want) == 0 {
				idle++
				if ok {
					t.Fatalf("%s: no window, but body %s", label, body)
				}
				if evalReads[rank] != 0 {
					t.Fatalf("%s: no window, but the rank read storage", label)
				}
				continue
			}
			var got []query.JobWindow
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("%s: body %s: %v", label, body, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: body %s, want %+v", label, body, want)
			}
			if evalReads[rank] != 1 {
				t.Fatalf("%s: read storage %d times, want once", label, evalReads[rank])
			}
		}
		if len(bodies) > size {
			t.Fatalf("%s: %d bodies for %d ranks", expr, len(bodies), size)
		}
	}
	if checked < 5 || idle == 0 {
		t.Fatalf("checked %d job-scoped expressions with %d idle ranks; the test proved little", checked, idle)
	}
}
