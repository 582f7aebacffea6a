package query

// FoldSource exposes the pushdown's per-rank read-and-fold to the
// external test package, taking the full plan as FoldLocal does.
func FoldSource(src Source, e *Expr, spec PlanSpec, rank int32) Partial {
	return foldSource(src, e, spec.StartSec, spec.EndSec, rankJobs(e, spec, rank), rank)
}

// RankWindows exposes the pushdown's per-rank split of the job windows.
var RankWindows = rankWindows
