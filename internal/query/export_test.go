package query

// FoldSource exposes the pushdown's per-rank read-and-fold to the
// external test package.
var FoldSource = foldSource
