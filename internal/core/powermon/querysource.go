package powermon

import (
	"cmp"
	"math"
	"slices"

	"fluxpower/internal/query"
	"fluxpower/internal/variorum"
)

// The monitor is the query engine's node-local storage: the raw ring,
// the in-memory archive tiers, and the durable store all surface
// through query.Source so the planner can pick the cheapest resolution
// covering a window. The interface lives in internal/query (powermon
// imports query, not the reverse) to keep the dependency acyclic.
// The module also implements query.Scanner, so the engine folds raw and
// in-memory tier windows where they lie instead of copying them out.
// The monitor's own collect and aggregate read through the same planner
// (query.ReadRaw, query.Visit), so no window is resolved twice.

var (
	_ query.Source  = (*Module)(nil)
	_ query.Scanner = (*Module)(nil)
)

// QueryMeta implements query.Source: a snapshot of what resolutions
// exist on this node and how far back each still reaches, in planner
// preference order — raw described by its own fields, then tiers finest
// first with in-memory tiers before durable ones of equal period.
func (m *Module) QueryMeta() query.SourceMeta {
	m.mu.Lock()
	defer m.mu.Unlock()
	meta := query.SourceMeta{
		RawPeriodSec: m.cfg.SampleInterval.Seconds(),
		MaxRawPoints: m.cfg.MaxRawPoints,
		RawLostTs:    m.arch.rawLostTs,
		StoreLostTs:  math.Inf(-1),
	}
	var periods []float64
	if m.store != nil {
		periods = m.store.TierPeriods()
	}
	if n := len(m.arch.tiers) + len(periods); n > 0 {
		meta.Tiers = make([]query.TierMeta, 0, n)
	}
	for _, t := range m.arch.tiers {
		meta.Tiers = append(meta.Tiers, query.TierMeta{
			PeriodSec:  t.fold.PeriodSec,
			LostEndSec: t.lostEndSec,
			Source:     t.source,
		})
	}
	if m.store != nil {
		meta.HasStore = true
		meta.StoreLostTs = m.store.LostBeforeSec()
		for _, period := range periods {
			lost := math.Inf(1) // empty tier log covers nothing
			if first, _, ok := m.store.TierCoverage(period); ok {
				lost = first
			}
			meta.Tiers = append(meta.Tiers, query.TierMeta{
				PeriodSec:  period,
				LostEndSec: lost,
				Durable:    true,
				Source:     m.storeSources[period],
			})
		}
	}
	slices.SortStableFunc(meta.Tiers, func(a, b query.TierMeta) int {
		return cmp.Compare(a.PeriodSec, b.PeriodSec)
	})
	return meta
}

// QueryRaw implements query.Source: ring samples in [start, end].
func (m *Module) QueryRaw(start, end float64) []variorum.NodePower {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.arch.raw.query(start, end)
}

// ScanRaw implements query.Scanner: fn visits the ring samples QueryRaw
// would return, in the same order, under the module lock, as one reused
// record whose channel slices alias the ring.
func (m *Module) ScanRaw(start, end float64, fn func(*variorum.NodePower)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.arch.raw.scan(start, end, fn)
}

// ScanTier implements query.Scanner: fn visits the in-memory tier's
// buckets QueryTier would return, in place and in the same order, under
// the module lock. It reports false, visiting nothing, when no
// in-memory tier has the period.
func (m *Module) ScanTier(periodSec, start, end float64, fn func(*query.Bucket)) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.arch.tiers {
		if t.fold.PeriodSec == periodSec {
			t.scan(start, end, fn)
			return true
		}
	}
	return false
}

// QueryStoreRaw implements query.Source: durable raw samples in
// [start, end]. The store has its own lock; only the reference is taken
// under the module's.
func (m *Module) QueryStoreRaw(start, end float64) ([]variorum.NodePower, error) {
	m.mu.Lock()
	st := m.store
	m.mu.Unlock()
	if st == nil {
		return nil, nil
	}
	return st.SelectRange(start, end)
}

// QueryTier implements query.Source: the tier's buckets intersecting
// [start, end], from the in-memory archive or the durable tier logs.
func (m *Module) QueryTier(periodSec float64, durable bool, start, end float64) []query.Bucket {
	if durable {
		m.mu.Lock()
		st := m.store
		m.mu.Unlock()
		if st == nil {
			return nil
		}
		return st.SelectTier(periodSec, start, end)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.arch.tiers {
		if t.fold.PeriodSec == periodSec {
			return t.buckets(start, end)
		}
	}
	return nil
}
