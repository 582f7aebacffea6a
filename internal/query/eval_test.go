package query

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"fluxpower/internal/flux/job"
	"fluxpower/internal/flux/msg"
	"fluxpower/internal/stats"
)

// TestFoldLocalAttributesEmptyRead: a rank that consulted a degraded
// tier and got zero covering buckets must still report the tier in
// Sources — an incomplete answer has to be attributable to the storage
// that produced it. Only ranks the plan skipped carry no source.
func TestFoldLocalAttributesEmptyRead(t *testing.T) {
	spec := PlanSpec{StartSec: 0, EndSec: 60}

	e, err := Parse("sum(avg_over_time(node_power_watts[60s]))")
	if err != nil {
		t.Fatal(err)
	}
	out := FoldLocal(e, spec, 0, LocalData{Source: "tier:600", Complete: false})
	if len(out.Sources) != 1 || out.Sources[0] != "tier:600" {
		t.Fatalf("empty degraded read lost its source: %+v", out)
	}
	if out.Complete {
		t.Fatalf("degraded read reported complete: %+v", out)
	}

	// A rank excluded by the rank matcher never read anything and must
	// not claim a source.
	e2, err := Parse(`sum(avg_over_time(node_power_watts{rank="1"}[60s]))`)
	if err != nil {
		t.Fatal(err)
	}
	skipped := FoldLocal(e2, spec, 0, LocalData{Source: SourceRaw, Complete: true})
	if len(skipped.Sources) != 0 {
		t.Fatalf("skipped rank claimed sources: %+v", skipped)
	}
	if !skipped.Complete {
		t.Fatalf("skipped rank reported incomplete: %+v", skipped)
	}
}

// TestResolvePlanRejectsNonFinite: NaN compares false against
// everything, so without an explicit check a NaN bound slips past both
// the end<=0 "now" default and the empty-window guard and poisons the
// plan (and the JSON encoding of the result). All non-finite bounds are
// EINVAL.
func TestResolvePlanRejectsNonFinite(t *testing.T) {
	m := New(Config{})
	const expr = "sum(avg_over_time(node_power_watts[60s]))"
	cases := []struct{ start, end float64 }{
		{math.NaN(), 100},
		{0, math.NaN()},
		{math.Inf(1), 100},
		{math.Inf(-1), 100},
		{0, math.Inf(1)},
		{0, math.Inf(-1)},
	}
	for _, tc := range cases {
		_, _, err := m.resolvePlan(EvalRequest{Expr: expr, StartSec: tc.start, EndSec: tc.end})
		if err == nil {
			t.Fatalf("start=%v end=%v accepted", tc.start, tc.end)
		}
		pe, ok := err.(*planError)
		if !ok || pe.code != msg.EINVAL {
			t.Fatalf("start=%v end=%v: got %T %v, want EINVAL planError", tc.start, tc.end, err, err)
		}
	}
}

// unionSortedByMap is the map-and-sort union unionSorted replaced, kept
// as its oracle.
func unionSortedByMap(a, b []string) []string {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, s := range append(append([]string(nil), a...), b...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// TestUnionSortedMatchesMapUnion: the linear merge agrees with the
// map-based union on seeded random sorted, duplicate-free lists drawn
// from the engine's source labels — equal, disjoint, nested, empty.
func TestUnionSortedMatchesMapUnion(t *testing.T) {
	labels := []string{SourceRaw, "tier:60", "tier:600", SourceStoreRaw, "tsdb:60", "tsdb:600"}
	sort.Strings(labels)
	rng := rand.New(rand.NewSource(1))
	subset := func() []string {
		var out []string
		for _, l := range labels {
			if rng.Intn(3) == 0 {
				out = append(out, l)
			}
		}
		return out
	}
	for i := 0; i < 5000; i++ {
		a, b := subset(), subset()
		if i%4 == 0 {
			b = slices.Clone(a) // the common case: every rank read the same
		}
		got, want := unionSorted(a, b), unionSortedByMap(a, b)
		if !slices.Equal(got, want) {
			t.Fatalf("unionSorted(%q, %q) = %q, want %q", a, b, got, want)
		}
	}
	same := []string{SourceRaw}
	if n := testing.AllocsPerRun(100, func() { unionSorted(same, []string{SourceRaw}) }); n != 0 {
		t.Fatalf("merging equal source lists allocated %v times", n)
	}
}

// TestJobWindows pins the planner's attribution windows: only a RUN job
// is open-ended. A finished job whose end equals its start — it ran for
// no time — gets no window, where inferring "still running" from
// EndSec <= StartSec used to charge it with the rest of the window.
func TestJobWindows(t *testing.T) {
	ranks := []int32{1, 2}
	recs := []jobRecord{
		{ID: 9, State: job.StateInactive, Ranks: ranks, StartSec: 40, EndSec: 40}, // zero-length, finished
		{ID: 3, State: job.StateRun, Ranks: ranks, StartSec: 50},                  // running
		{ID: 4, State: job.StateInactive, Ranks: ranks, StartSec: 10, EndSec: 70}, // clipped at both ends
		{ID: 5, State: job.StateSched},                                            // never started
		{ID: 6, State: job.StateRun, StartSec: 30},                                // no ranks
		{ID: 7, State: job.StateInactive, Ranks: ranks, StartSec: 0, EndSec: 20},  // before the window
		{ID: 8, State: job.StateRun, Ranks: ranks, StartSec: 120},                 // starts after it
	}
	got := jobWindows(recs, 20, 100)
	want := []JobWindow{
		{ID: 3, Ranks: ranks, StartSec: 50, EndSec: 100},
		{ID: 4, Ranks: ranks, StartSec: 20, EndSec: 70},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("jobWindows:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestMergePartialInPlace: the combiner folds b into a's own group map
// and top-k sketch. Every combining order of three partials gives the
// same JSON, b is left as it was, and a merge whose groups a already
// holds allocates nothing.
func TestMergePartialInPlace(t *testing.T) {
	mk := func(rank int, sources ...string) Partial {
		p := Partial{Series: 2, Complete: rank != 1, Sources: sources, Groups: map[string]GroupAgg{}, Top: stats.NewTopK(3)}
		for i, key := range []string{"", "lassen", "tioga"}[:1+rank%3] {
			v := float64(100*rank + i)
			p.Groups[key] = GroupAgg{}.add(v).add(v / 2)
			p.Top.Add(strconv.Itoa(10*rank+i), v)
		}
		return p
	}
	parts := func() []Partial {
		return []Partial{mk(0, SourceRaw), mk(1, SourceRaw, "tier:60"), mk(2, SourceRaw)}
	}
	encode := func(p Partial) string {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := ""
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		ps := parts()
		before := encode(ps[order[1]])
		agg, _ := MergePartial(ps[order[0]], ps[order[1]])
		if got := encode(ps[order[1]]); got != before {
			t.Fatalf("order %v: merging changed b:\n%s\n%s", order, before, got)
		}
		agg, _ = MergePartial(agg, ps[order[2]])
		if got := encode(agg); want == "" {
			want = got
		} else if got != want {
			t.Fatalf("order %v: %s, first order %s", order, got, want)
		}
	}
	// A first merge into the empty partial copies b, so folding more in
	// leaves b untouched.
	ps := parts()
	before := encode(ps[2])
	agg, _ := MergePartial(Partial{Complete: true}, ps[2])
	agg, _ = MergePartial(agg, ps[1])
	if got := encode(ps[2]); got != before {
		t.Fatalf("folding into a copy of b changed b:\n%s\n%s", before, got)
	}
	a, b := mk(2, SourceRaw), mk(2, SourceRaw)
	a.Top, b.Top = nil, nil
	if n := testing.AllocsPerRun(20, func() { a, _ = MergePartial(a, b) }); n != 0 {
		t.Errorf("merging known groups allocated %v times", n)
	}
	// AllocsPerRun merges once more than it counts: 1 + 21 partials.
	if g := a.Groups["tioga"]; g.Series != 2*22 {
		t.Errorf("tioga group after 21 merges holds %d series, want 44", g.Series)
	}
}
