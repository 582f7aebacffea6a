package query

import (
	"fmt"
	"math"
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

// tierSource labels a tier read: "tier:60" in-memory, "tsdb:600" durable.
func tierSource(t TierMeta) string {
	period := strconv.FormatFloat(t.PeriodSec, 'g', -1, 64)
	if t.Durable {
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
// else the finest tier (memory before durable) whose retention reaches
// start, else durable raw blocks, else the coarsest tier available —
// flagged incomplete because even the longest memory lost the window's
// beginning. The fallback means a query degrades to a partial answer,
// never an error.
func selectLocal(meta SourceMeta, start, end float64) localPlan {
	points := (end - start) / meta.RawPeriodSec
	maxPts := float64(meta.MaxRawPoints)
	if meta.RawPeriodSec <= 0 {
		points = math.Inf(1)
	}
	if start > meta.RawLostTs && points <= maxPts {
		return localPlan{useRaw: true, source: SourceRaw, complete: true}
	}
	for i := range meta.Tiers {
		t := &meta.Tiers[i]
		if start >= t.LostEndSec {
			return localPlan{tier: t, source: tierSource(*t), complete: true}
		}
	}
	if meta.HasStore && start > meta.StoreLostTs && points <= maxPts {
		return localPlan{useStoreRaw: true, source: SourceStoreRaw, complete: true}
	}
	if n := len(meta.Tiers); n > 0 {
		t := &meta.Tiers[n-1]
		return localPlan{tier: t, source: tierSource(*t), complete: false}
	}
	return localPlan{useRaw: true, source: SourceRaw, complete: start > meta.RawLostTs}
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
// attributes identically. Plan and Fetch carry it whole. The pushdown
// ships it down the reduce tree without Jobs and sends each rank only
// its own windows, without their rank lists, as that rank's reduce
// body: a rank decodes the windows it ran, not every job's.
type PlanSpec struct {
	Expr     string      `json:"expr"`
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

// FetchReply is one rank's LocalData, tagged with its origin.
type FetchReply struct {
	Rank int32 `json:"rank"`
	LocalData
}

// readLocal plans and reads one node's share of the window.
func readLocal(src Source, start, end float64) (LocalData, error) {
	return readPlanned(src, selectLocal(src.QueryMeta(), start, end), start, end)
}

// readPlanned reads the records lp selected, copied out of src.
func readPlanned(src Source, lp localPlan, start, end float64) (LocalData, error) {
	out := LocalData{Source: lp.source, Complete: lp.complete}
	switch {
	case lp.useRaw:
		out.Samples = src.QueryRaw(start, end)
	case lp.useStoreRaw:
		samples, err := src.QueryStoreRaw(start, end)
		if err != nil {
			return LocalData{}, fmt.Errorf("query: store read: %w", err)
		}
		out.Samples = samples
	default:
		out.Buckets = src.QueryTier(lp.tier.PeriodSec, lp.tier.Durable, start, end)
	}
	return out, nil
}

// foldSource plans one node's share of the window [start, end] and
// folds it into the rank's partial; jobs are the rank's own job windows.
// Raw-ring and in-memory tier windows of a Scanner are folded where they
// lie; everything else — durable reads, sources without a Scanner — is
// copied out by readPlanned and folded from the copy. Both feed the
// same folder the same records in the same order, so the partial does
// not depend on the path.
func foldSource(src Source, e *Expr, start, end float64, jobs []JobWindow, rank int32) (Partial, error) {
	lp := selectLocal(src.QueryMeta(), start, end)
	if sc, ok := src.(Scanner); ok && (lp.useRaw || lp.tier != nil && !lp.tier.Durable) {
		f := newFolder(e, jobs, rank, lp.source, lp.complete)
		if lp.useRaw {
			sc.ScanRaw(start, end, f.sample)
			return f.partial(), nil
		}
		if sc.ScanTier(lp.tier.PeriodSec, start, end, f.bucket) {
			return f.partial(), nil
		}
	}
	data, err := readPlanned(src, lp, start, end)
	if err != nil {
		return Partial{}, err
	}
	return foldData(e, jobs, rank, data), nil
}
