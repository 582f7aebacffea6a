package query

import (
	"strconv"

	"fluxpower/internal/variorum"
)

// Bucket is one downsampled archive bucket, the engine's resolution-
// independent record: the same type the in-memory tiers and the durable
// tier logs hold, so sources hand their buckets over without a copy.
type Bucket = variorum.Bucket

// TierMeta describes one downsampled tier a node can answer from.
type TierMeta struct {
	// PeriodSec is the bucket length.
	PeriodSec float64 `json:"period_sec"`
	// LostEndSec is the coverage watermark: the newest point before
	// which data has been lost. -Inf means complete history.
	LostEndSec float64 `json:"lost_end_sec"`
	// Durable marks tiers read from the on-disk store rather than the
	// in-memory archive.
	Durable bool `json:"durable,omitempty"`
	// Source labels the tier's reads (see TierSource). The source builds
	// it once, where it creates the tier; every plan shares it.
	Source string `json:"-"`
}

// SourceMeta is the planner's view of one node's storage: what
// resolutions exist and how far back each still reaches. Tiers must be
// listed in planner preference order — finest first, memory before
// durable at equal period.
type SourceMeta struct {
	RawPeriodSec float64    `json:"raw_period_sec"`
	MaxRawPoints int        `json:"max_raw_points"`
	RawLostTs    float64    `json:"raw_lost_ts"`   // raw ring loss watermark (-Inf = none)
	HasStore     bool       `json:"has_store"`     // durable raw blocks exist
	StoreLostTs  float64    `json:"store_lost_ts"` // store GC watermark (-Inf = none)
	Tiers        []TierMeta `json:"tiers,omitempty"`
}

// Source is the node-local storage the engine reads, implemented by the
// power monitor module. Defined here (and not in powermon) so powermon
// can import query without a cycle. Each read method returns a copy the
// caller owns: the fetch service ships it, the reference evaluator
// folds it. A Source that also implements Scanner lets the pushdown
// fold raw and in-memory tier windows without that copy.
type Source interface {
	// QueryMeta snapshots the planner metadata.
	QueryMeta() SourceMeta
	// QueryRaw returns ring samples with Timestamp in [start, end].
	QueryRaw(start, end float64) []variorum.NodePower
	// QueryStoreRaw returns durable raw samples in [start, end].
	QueryStoreRaw(start, end float64) ([]variorum.NodePower, error)
	// QueryTier returns the tier's buckets intersecting [start, end].
	QueryTier(periodSec float64, durable bool, start, end float64) []Bucket
}

// Scanner is the optional in-place read path of a Source. Each method
// calls fn on exactly the records the matching Source method would
// return, in the same order, while holding the source's lock: fn must
// not keep the pointer past the call, must not modify the record and
// must not call back into the source.
type Scanner interface {
	// ScanRaw visits the ring samples QueryRaw(start, end) returns.
	ScanRaw(start, end float64, fn func(*variorum.NodePower))
	// ScanTier visits the buckets QueryTier(periodSec, false, start,
	// end) returns and reports whether an in-memory tier has the
	// period; when it does not, fn is never called.
	ScanTier(periodSec, start, end float64, fn func(*Bucket)) bool
}

// Source labels reported in results and the X-Source header.
const (
	SourceRaw      = "raw"      // in-memory full-rate ring
	SourceStoreRaw = "tsdb:raw" // durable raw blocks
)

// TierSource labels a tier's reads: "tier:60" in-memory, "tsdb:600"
// durable.
func TierSource(periodSec float64, durable bool) string {
	period := strconv.FormatFloat(periodSec, 'g', -1, 64)
	if durable {
		return "tsdb:" + period
	}
	return "tier:" + period
}

// localPlan is one node's resolution choice for a window.
type localPlan struct {
	useRaw      bool
	useStoreRaw bool
	tier        *TierMeta
	source      string
	complete    bool
}

// selectLocal picks the cheapest resolution that covers [start, end]:
// raw ring when the window is short enough and still fully buffered,
// else the finest tier (memory before durable) whose lost buckets all
// ended by start, else durable raw blocks, else the coarsest tier —
// flagged incomplete because even the longest memory lost the window's
// beginning. The fallback means a query degrades to a partial answer,
// never an error.
func selectLocal(meta SourceMeta, start, end float64) localPlan {
	short := (end-start)/meta.RawPeriodSec <= float64(meta.MaxRawPoints) && meta.RawPeriodSec > 0
	if start > meta.RawLostTs && short {
		return selectRaw(meta, start)
	}
	for i := range meta.Tiers {
		t := &meta.Tiers[i]
		if start >= t.LostEndSec {
			return localPlan{tier: t, source: t.Source, complete: true}
		}
	}
	if raw := selectRaw(meta, start); raw.useStoreRaw && raw.complete && short {
		return raw
	}
	if n := len(meta.Tiers); n > 0 {
		t := &meta.Tiers[n-1]
		return localPlan{tier: t, source: t.Source, complete: false}
	}
	return localPlan{useRaw: true, source: SourceRaw, complete: start > meta.RawLostTs}
}

// selectRaw plans a read that must return raw samples whatever the
// window's length: the ring while it still holds start, else the
// durable blocks, else the ring, incomplete. A sample lost at start
// itself was in the window, so raw coverage is strict. selectLocal
// shares these steps.
func selectRaw(meta SourceMeta, start float64) localPlan {
	if start > meta.RawLostTs || !meta.HasStore {
		return localPlan{useRaw: true, source: SourceRaw, complete: start > meta.RawLostTs}
	}
	return localPlan{useStoreRaw: true, source: SourceStoreRaw, complete: start > meta.StoreLostTs}
}

// JobWindow is one job's attribution window inside the query window.
type JobWindow struct {
	ID    uint64  `json:"id"`
	Ranks []int32 `json:"ranks,omitempty"`
	// [StartSec, EndSec) is the attribution interval, already clipped
	// to the query window by the planner.
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
}

// contains reports whether the window claims rank r.
func (w JobWindow) contains(r int32) bool {
	for _, x := range w.Ranks {
		if x == r {
			return true
		}
	}
	return false
}

// PlanSpec is the resolved query: the canonical expression (each rank
// re-parses it — expressions are small, records are not), the absolute
// window, and the job windows the root resolved once so every rank
// attributes identically. Plan and Fetch carry it whole; a Fetch
// without an expression is a raw read of the window, the monitor's
// collect, so its body is the collect's {start_sec, end_sec}. The pushdown
// ships it down the reduce tree without Jobs and sends each rank only
// its own windows, without their rank lists, as that rank's reduce
// body: a rank decodes the windows it ran, not every job's.
type PlanSpec struct {
	Expr     string      `json:"expr,omitempty"`
	StartSec float64     `json:"start_sec"`
	EndSec   float64     `json:"end_sec"`
	Jobs     []JobWindow `json:"jobs,omitempty"`
}

// LocalData is what one rank's planner selected and read: raw samples
// or buckets, never both. It is both the reduce combiner's input and
// the payload the fetch service ships for the raw-fetch baseline, which
// is what guarantees reference evaluation sees the same records the
// pushdown folded.
type LocalData struct {
	Samples  []variorum.NodePower `json:"samples,omitempty"`
	Buckets  []Bucket             `json:"buckets,omitempty"`
	Source   string               `json:"source"`
	Complete bool                 `json:"complete"`
}

// FetchReply is one rank's answer to the per-rank read (FetchService):
// its LocalData, tagged with its origin. Hostname is set on raw reads
// only, so plan reads ship no more than the records.
type FetchReply struct {
	Rank     int32  `json:"rank"`
	Hostname string `json:"hostname,omitempty"`
	LocalData
}

// visit hands each record to sample or bucket, oldest first.
func (d *LocalData) visit(sample func(*variorum.NodePower), bucket func(*Bucket)) {
	for i := range d.Samples {
		sample(&d.Samples[i])
	}
	for i := range d.Buckets {
		bucket(&d.Buckets[i])
	}
}

// readPlanned reads the records lp selected. Without visitors it copies
// them into the result; with visitors it hands each to sample or bucket,
// oldest first, in place for a Scanner's ring and in-memory tiers. A
// durable raw read that fails degrades to the ring, flagged incomplete:
// a node with a broken store answers what memory holds.
func readPlanned(src Source, lp localPlan, start, end float64, sample func(*variorum.NodePower), bucket func(*Bucket)) LocalData {
	out := LocalData{Source: lp.source, Complete: lp.complete}
	sc, scan := src.(Scanner)
	scan = scan && sample != nil
	switch {
	case lp.useStoreRaw:
		samples, err := src.QueryStoreRaw(start, end)
		if err != nil {
			return readPlanned(src, localPlan{useRaw: true, source: SourceRaw}, start, end, sample, bucket)
		}
		out.Samples = samples
	case lp.useRaw && scan:
		sc.ScanRaw(start, end, sample)
		return out
	case lp.useRaw:
		out.Samples = src.QueryRaw(start, end)
	case scan && !lp.tier.Durable && sc.ScanTier(lp.tier.PeriodSec, start, end, bucket):
		return out
	default:
		out.Buckets = src.QueryTier(lp.tier.PeriodSec, lp.tier.Durable, start, end)
	}
	if sample != nil {
		out.visit(sample, bucket)
	}
	return out
}

// ReadRaw copies out a node's raw samples in [start, end] as selectRaw
// plans them: the per-rank read without an expression.
func ReadRaw(src Source, start, end float64) LocalData {
	return readPlanned(src, selectRaw(src.QueryMeta(), start), start, end, nil, nil)
}

// ReadPlan copies out the records spec selects on rank: what the
// pushdown folds there, unfolded. A rank the rank matcher excludes, or
// one without a job window in a job-scoped plan, reads nothing and
// answers empty and complete, as its reduce Local does.
func ReadPlan(src Source, spec PlanSpec, rank int32) (LocalData, error) {
	e, err := Parse(spec.Expr)
	if err != nil {
		return LocalData{}, err
	}
	if !rankSelected(e, rank) || (e.NeedsJobs() && len(rankJobs(e, spec, rank)) == 0) {
		return LocalData{Complete: true}, nil
	}
	lp := selectLocal(src.QueryMeta(), spec.StartSec, spec.EndSec)
	return readPlanned(src, lp, spec.StartSec, spec.EndSec, nil, nil), nil
}

// Visit plans [start, end] on src as the pushdown does and hands each
// selected record to sample or bucket. It reports the source read, its
// bucket period (0 for raw samples) and whether it reached back to
// start.
func Visit(src Source, start, end float64, sample func(*variorum.NodePower), bucket func(*Bucket)) (source string, periodSec float64, complete bool) {
	lp := selectLocal(src.QueryMeta(), start, end)
	data := readPlanned(src, lp, start, end, sample, bucket)
	if lp.tier != nil {
		periodSec = lp.tier.PeriodSec
	}
	return data.Source, periodSec, data.Complete
}

// foldSource plans one node's share of the window [start, end] and
// folds it into the rank's partial; jobs are the rank's own job windows.
func foldSource(src Source, e *Expr, start, end float64, jobs []JobWindow, rank int32) Partial {
	f := newFolder(e, jobs, rank)
	source, _, complete := Visit(src, start, end, f.sample, f.bucket)
	return f.partial(source, complete)
}
