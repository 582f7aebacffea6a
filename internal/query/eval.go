package query

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"fluxpower/internal/stats"
	"fluxpower/internal/variorum"
)

// quantize converts a per-series scalar to integer microunits. This is
// the engine's determinism boundary: everything after it — cross-rank
// sums, counts, exact max/min — is exactly associative, so the TBON's
// merge order cannot change the answer.
func quantize(v float64) int64 { return int64(math.Round(v * 1e6)) }

// GroupAgg is one group's mergeable cross-series aggregate.
type GroupAgg struct {
	// Series counts the series folded into the group.
	Series int `json:"series"`
	// SumQ is the sum of quantized series values, in microunits.
	SumQ int64 `json:"sum_q"`
	// Max and Min are the exact extreme series values.
	Max float64 `json:"max"`
	Min float64 `json:"min"`
}

// add folds one series scalar in.
func (g GroupAgg) add(v float64) GroupAgg {
	if g.Series == 0 || v > g.Max {
		g.Max = v
	}
	if g.Series == 0 || v < g.Min {
		g.Min = v
	}
	g.Series++
	g.SumQ += quantize(v)
	return g
}

// merge combines two group aggregates built over disjoint series.
func (g GroupAgg) merge(o GroupAgg) GroupAgg {
	if o.Series == 0 {
		return g
	}
	if g.Series == 0 {
		return o
	}
	if o.Max > g.Max {
		g.Max = o.Max
	}
	if o.Min < g.Min {
		g.Min = o.Min
	}
	g.Series += o.Series
	g.SumQ += o.SumQ
	return g
}

// value finalizes the group under an operator.
func (g GroupAgg) value(op string) float64 {
	switch op {
	case OpSum:
		return float64(g.SumQ) / 1e6
	case OpAvg:
		if g.Series == 0 {
			return 0
		}
		return float64(g.SumQ) / 1e6 / float64(g.Series)
	case OpCount:
		return float64(g.Series)
	case OpMax:
		return g.Max
	case OpMin:
		return g.Min
	}
	return 0
}

// Partial is the mergeable payload crossing TBON links: per-group
// aggregates and/or a top-k sketch, never per-series data. Its size is
// O(groups + k) regardless of window length or node count below.
type Partial struct {
	// Series counts all series folded anywhere below.
	Series int `json:"series"`
	// Complete is false when any contributing rank answered from an
	// archive that lost part of the window.
	Complete bool `json:"complete"`
	// Sources is the sorted union of resolutions actually read.
	Sources []string `json:"sources,omitempty"`
	// Groups maps group key to aggregate (key "" = ungrouped).
	Groups map[string]GroupAgg `json:"groups,omitempty"`
	// Top is the series top-k sketch (series-topk queries only).
	Top *stats.TopK `json:"top,omitempty"`
}

// MergePartial combines two partials built over disjoint rank sets. It
// is the reduce combiner; exact integer/extreme arithmetic makes it
// insensitive to the tree's combining order. It folds b into a in place
// — a's group map and top-k sketch — and returns a, so the caller must
// not use a afterwards. b is only read, and the result shares nothing
// with it that a later merge modifies.
func MergePartial(a, b Partial) (Partial, error) {
	a.Series += b.Series
	a.Complete = a.Complete && b.Complete
	a.Sources = unionSorted(a.Sources, b.Sources)
	if len(b.Groups) > 0 && a.Groups == nil {
		a.Groups = make(map[string]GroupAgg, len(b.Groups))
	}
	for k, g := range b.Groups {
		a.Groups[k] = a.Groups[k].merge(g)
	}
	switch {
	case b.Top == nil:
	case a.Top == nil:
		a.Top = &stats.TopK{K: b.Top.K, Entries: slices.Clone(b.Top.Entries)}
	default:
		a.Top.MergeTopK(b.Top)
	}
	return a, nil
}

// unionSorted merges two sorted, duplicate-free source lists. Ranks
// almost always read the same resolution, so equal lists — the common
// case at every combine — come back as a without allocating.
func unionSorted(a, b []string) []string {
	if len(b) == 0 || slices.Equal(a, b) {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// seriesAcc accumulates one series' window.
type seriesAcc struct {
	agg             stats.Agg
	firstTs, firstV float64
	lastTs, lastV   float64
	points          int
}

// addPoint folds one (timestamp, value) observation.
func (s *seriesAcc) addPoint(ts, v float64) {
	if s.points == 0 || ts < s.firstTs {
		s.firstTs, s.firstV = ts, v
	}
	if s.points == 0 || ts >= s.lastTs {
		s.lastTs, s.lastV = ts, v
	}
	s.agg.Add(v)
	s.points++
}

// addBucket folds one downsampled bucket: the full per-sample aggregate
// for avg/max/min/sum, the (midpoint, mean) point for rate.
func (s *seriesAcc) addBucket(mid float64, a stats.Agg) {
	if a.Count == 0 {
		return
	}
	v := a.Mean()
	if s.points == 0 || mid < s.firstTs {
		s.firstTs, s.firstV = mid, v
	}
	if s.points == 0 || mid >= s.lastTs {
		s.lastTs, s.lastV = mid, v
	}
	s.agg.Merge(a)
	s.points++
}

// scalar evaluates the window function over the accumulated series.
func (s *seriesAcc) scalar(fn string) float64 {
	switch fn {
	case FnAvgOverTime:
		return s.agg.Mean()
	case FnMaxOverTime:
		return s.agg.Max
	case FnMinOverTime:
		return s.agg.Min
	case FnSumOverTime:
		return s.agg.Sum
	case FnRate:
		if s.points < 2 || s.lastTs <= s.firstTs {
			return 0
		}
		return (s.lastV - s.firstV) / (s.lastTs - s.firstTs)
	}
	return 0
}

// sampleValue extracts one component's value from a raw sample; ok is
// false where the platform cannot measure the component.
func sampleValue(p *variorum.NodePower, comp string) (float64, bool) {
	switch comp {
	case "node":
		return p.TotalWatts(), true
	case "cpu":
		return p.CPUWatts(), true
	case "gpu":
		return p.TotalGPUWatts(), true
	case "mem":
		v := p.MemWatts()
		return v, v != variorum.Unsupported
	}
	return 0, false
}

// bucketAgg extracts one component's aggregate from a bucket.
func bucketAgg(b *Bucket, comp string) stats.Agg {
	switch comp {
	case "node":
		return b.Power.Node
	case "cpu":
		return b.Power.CPU
	case "gpu":
		return b.Power.GPU
	case "mem":
		return b.Power.Mem
	}
	return stats.Agg{}
}

// seriesID identifies one node-local series.
type seriesID struct {
	job  uint64 // 0 = no job attribution
	comp string
}

// key renders the series' label set for top-k entries. Label order is
// fixed (component, job, rank) so keys compare stably everywhere.
func (id seriesID) key(rank int32) string {
	var b strings.Builder
	b.WriteString("component=")
	b.WriteString(id.comp)
	if id.job > 0 {
		b.WriteString(",job=")
		b.WriteString(strconv.FormatUint(id.job, 10))
	}
	b.WriteString(",rank=")
	b.WriteString(strconv.FormatInt(int64(rank), 10))
	return b.String()
}

// groupKey renders the series' projection onto the by-labels. By is
// sorted at parse time, so equal projections render identically on
// every rank.
func (id seriesID) groupKey(by []string, rank int32) string {
	if len(by) == 0 {
		return ""
	}
	parts := make([]string, 0, len(by))
	for _, l := range by {
		switch l {
		case LabelJob:
			parts = append(parts, "job="+strconv.FormatUint(id.job, 10))
		case LabelRank:
			parts = append(parts, "rank="+strconv.FormatInt(int64(rank), 10))
		case LabelComponent:
			parts = append(parts, "component="+id.comp)
		}
	}
	return strings.Join(parts, ",")
}

// FoldLocal evaluates one rank's share of the plan over its copied-out
// records, producing the mergeable partial. The fetch service's replies
// and the reference evaluator fold through it; the pushdown's reads feed
// the same folder through readPlanned. Byte-identical results fall out
// of sharing the kernel and the records.
func FoldLocal(e *Expr, spec PlanSpec, rank int32, data LocalData) Partial {
	f := newFolder(e, rankJobs(e, spec, rank), rank)
	data.visit(f.sample, f.bucket)
	return f.partial(data.Source, data.Complete)
}

// folder is the single evaluation kernel: it folds one rank's records,
// fed one at a time and oldest first, into the rank's partial. It keeps
// no pointer it is handed, so a Scanner may feed it the storage's own
// slots.
type folder struct {
	e        *Expr
	rank     int32
	selected bool // false: the rank matcher excludes the rank
	comps    []string
	// jobs are the rank's job windows when byJob, the expression being
	// job-scoped; first[i] is the series slot of jobs[i]'s job.
	byJob bool
	jobs  []JobWindow
	first []int
	// accs holds one series per (job, component): slot j·len(comps)+c
	// is job jobIDs[j]'s component comps[c] (job 0 when not job-scoped).
	jobIDs []uint64
	accs   []seriesAcc
}

// newFolder prepares the series a rank can contribute; jobs are the
// rank's own job windows (rankJobs), used when the expression is
// job-scoped. A rank the rank matcher excludes folds nothing.
func newFolder(e *Expr, jobs []JobWindow, rank int32) folder {
	f := folder{e: e, rank: rank, selected: rankSelected(e, rank)}
	if !f.selected {
		return f
	}
	f.comps = selectedComponents(e)
	if f.byJob = e.NeedsJobs(); !f.byJob {
		f.jobIDs = []uint64{0}
	} else {
		f.jobs = jobs
		f.first = make([]int, len(f.jobs))
		for i, w := range f.jobs {
			j := slices.Index(f.jobIDs, w.ID)
			if j < 0 {
				j = len(f.jobIDs)
				f.jobIDs = append(f.jobIDs, w.ID)
			}
			f.first[i] = j * len(f.comps)
		}
	}
	f.accs = make([]seriesAcc, len(f.jobIDs)*len(f.comps))
	return f
}

// sample folds one raw sample into every series whose window holds it.
func (f *folder) sample(p *variorum.NodePower) {
	if !f.byJob {
		f.addSample(0, p)
		return
	}
	for i := range f.jobs {
		if w := &f.jobs[i]; p.Timestamp >= w.StartSec && p.Timestamp < w.EndSec {
			f.addSample(f.first[i], p)
		}
	}
}

func (f *folder) addSample(slot int, p *variorum.NodePower) {
	for c, comp := range f.comps {
		if v, ok := sampleValue(p, comp); ok {
			f.accs[slot+c].addPoint(p.Timestamp, v)
		}
	}
}

// bucket folds one downsampled bucket into every series whose window
// holds its midpoint.
func (f *folder) bucket(b *Bucket) {
	mid := b.MidSec()
	if !f.byJob {
		f.addBucket(0, mid, b)
		return
	}
	for i := range f.jobs {
		if w := &f.jobs[i]; mid >= w.StartSec && mid < w.EndSec {
			f.addBucket(f.first[i], mid, b)
		}
	}
}

func (f *folder) addBucket(slot int, mid float64, b *Bucket) {
	for c, comp := range f.comps {
		f.accs[slot+c].addBucket(mid, bucketAgg(b, comp))
	}
}

// partial evaluates the window function per series and folds the
// scalars into the groups or the top-k sketch; source and complete
// describe the read. A rank the rank matcher excludes answers an empty
// complete partial with no source. Otherwise the source is attributed
// whenever a read happened, not only when it returned records: a
// degraded coarsest tier with zero covering buckets still needs to show
// up in X-Source for the Complete=false answer to be explainable.
func (f *folder) partial(source string, complete bool) Partial {
	out := Partial{Complete: true}
	if f.selected {
		out.Complete = complete
		if source != "" {
			out.Sources = []string{source}
		}
	}
	seriesTopK := f.e.Op == OpTopK && f.e.InnerOp == ""
	if seriesTopK && f.selected {
		out.Top = stats.NewTopK(f.e.K)
	}
	for i := range f.accs {
		s := &f.accs[i]
		if s.points == 0 {
			continue
		}
		id := seriesID{job: f.jobIDs[i/len(f.comps)], comp: f.comps[i%len(f.comps)]}
		v := s.scalar(f.e.Fn)
		out.Series++
		if seriesTopK {
			out.Top.Add(id.key(f.rank), v)
			continue
		}
		if out.Groups == nil {
			out.Groups = make(map[string]GroupAgg)
		}
		k := id.groupKey(f.e.By, f.rank)
		out.Groups[k] = out.Groups[k].add(v)
	}
	return out
}

// rankSelected applies the rank matcher.
func rankSelected(e *Expr, rank int32) bool {
	for _, m := range e.Matchers {
		if m.Label == LabelRank {
			r, _ := strconv.ParseInt(m.Value, 10, 32)
			if int32(r) != rank {
				return false
			}
		}
	}
	return true
}

// selectedComponents intersects the metric's components with any
// component matchers.
func selectedComponents(e *Expr) []string {
	comps := e.Components()
	for _, m := range e.Matchers {
		if m.Label != LabelComponent {
			continue
		}
		var keep []string
		for _, c := range comps {
			if c == m.Value {
				keep = append(keep, c)
			}
		}
		comps = keep
	}
	return comps
}

// jobFilter returns the job matcher's id, if the expression has one.
func jobFilter(e *Expr) (uint64, bool) {
	var id uint64
	found := false
	for _, m := range e.Matchers {
		if m.Label == LabelJob {
			id, _ = strconv.ParseUint(m.Value, 10, 64)
			found = true
		}
	}
	return id, found
}

// rankJobs returns the plan's job windows this rank participates in,
// after the job matcher.
func rankJobs(e *Expr, spec PlanSpec, rank int32) []JobWindow {
	id, filtered := jobFilter(e)
	var out []JobWindow
	for _, w := range spec.Jobs {
		if filtered && w.ID != id {
			continue
		}
		if w.contains(rank) {
			out = append(out, w)
		}
	}
	return out
}

// GroupValue is one row of a query result.
type GroupValue struct {
	// Key is the group's label projection ("" for ungrouped queries,
	// the full series key for series topk).
	Key string `json:"key"`
	// Value is the finalized aggregate.
	Value float64 `json:"value"`
	// Series counts the series behind the row.
	Series int `json:"series"`
}

// Result is a completed query.
type Result struct {
	// Expr is the canonical expression evaluated.
	Expr string `json:"expr"`
	// StartSec/EndSec are the absolute window actually evaluated.
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
	// Groups are the result rows: key-sorted, or value-sorted and
	// truncated to k for topk.
	Groups []GroupValue `json:"groups"`
	// Series counts all series folded cluster-wide.
	Series int `json:"series"`
	// RanksCovered/RanksMissing account every target rank.
	RanksCovered int `json:"ranks_covered"`
	RanksMissing int `json:"ranks_missing"`
	// Partial is true when any rank's contribution is missing.
	Partial bool `json:"partial"`
	// Complete is false when the window outran some archive's memory or
	// ranks are missing — the data answered is all there is, not all
	// there was.
	Complete bool `json:"complete"`
	// Sources lists the resolutions actually read, sorted.
	Sources []string `json:"sources,omitempty"`
}

// Finalize turns the merged partial into the client-facing result.
func Finalize(e *Expr, spec PlanSpec, agg Partial, covered, missing int) Result {
	out := Result{
		Expr:         e.String(),
		StartSec:     spec.StartSec,
		EndSec:       spec.EndSec,
		Series:       agg.Series,
		RanksCovered: covered,
		RanksMissing: missing,
		Partial:      missing > 0,
		Complete:     covered > 0 && missing == 0 && agg.Complete,
		Sources:      agg.Sources,
	}
	switch {
	case e.Op == OpTopK && e.InnerOp == "":
		if agg.Top != nil {
			for _, entry := range agg.Top.Top() {
				out.Groups = append(out.Groups, GroupValue{Key: entry.Key, Value: entry.Value, Series: 1})
			}
		}
	case e.Op == OpTopK:
		for k, g := range agg.Groups {
			out.Groups = append(out.Groups, GroupValue{Key: k, Value: g.value(e.groupOp()), Series: g.Series})
		}
		sort.Slice(out.Groups, func(i, j int) bool {
			if out.Groups[i].Value != out.Groups[j].Value {
				return out.Groups[i].Value > out.Groups[j].Value
			}
			return out.Groups[i].Key < out.Groups[j].Key
		})
		if len(out.Groups) > e.K {
			out.Groups = out.Groups[:e.K]
		}
	default:
		for k, g := range agg.Groups {
			out.Groups = append(out.Groups, GroupValue{Key: k, Value: g.value(e.Op), Series: g.Series})
		}
		sort.Slice(out.Groups, func(i, j int) bool { return out.Groups[i].Key < out.Groups[j].Key })
	}
	if out.Groups == nil {
		out.Groups = []GroupValue{}
	}
	return out
}

// EvalRecords is the single-node reference evaluator: fold every
// rank's fetched records with the same kernel the pushdown uses and
// finalize. Differential tests (and the experiment's correctness gate)
// compare its result byte-for-byte against the distributed one.
func EvalRecords(e *Expr, spec PlanSpec, replies []FetchReply, size int) Result {
	agg := Partial{Complete: true}
	seen := make(map[int32]bool, len(replies))
	for _, r := range replies {
		if seen[r.Rank] {
			continue
		}
		seen[r.Rank] = true
		agg, _ = MergePartial(agg, FoldLocal(e, spec, r.Rank, r.LocalData))
	}
	covered := len(seen)
	missing := size - covered
	if missing < 0 {
		missing = 0
	}
	return Finalize(e, spec, agg, covered, missing)
}
