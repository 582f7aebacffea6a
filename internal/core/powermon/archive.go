package powermon

import (
	"math"
	"time"

	"fluxpower/internal/query"
	"fluxpower/internal/ringbuf"
	"fluxpower/internal/variorum"
)

// TierSpec configures one downsampled archive tier: samples are folded
// into fixed Period buckets, and the newest Buckets buckets are kept.
// Retention is therefore Period × Buckets — coarser tiers remember
// further back at lower resolution. Buckets is a bound: the tier's ring
// grows to it as buckets finalize.
type TierSpec struct {
	Period  time.Duration
	Buckets int
}

// DefaultTiers is the two-tier archive the node agent keeps alongside
// the raw ring: 1-minute buckets for a day, 10-minute buckets for a
// week. With the raw ring's ~55 hours (100k × 2 s) of full-rate data,
// a job query picks the finest tier that still covers its window.
func DefaultTiers() []TierSpec {
	return []TierSpec{
		{Period: time.Minute, Buckets: 1440},
		{Period: 10 * time.Minute, Buckets: 1008},
	}
}

// DefaultMaxRawPoints bounds how many raw samples a window may span
// before the query planner prefers a downsampled tier, for the monitor's
// aggregate and the engine's pushdown alike. The collect, which must
// return raw samples, is not bounded by it.
const DefaultMaxRawPoints = 10_000

// tier is one downsampling resolution: the shared fold plus a ring of
// the buckets it finalized.
type tier struct {
	fold variorum.Fold
	ring *ringbuf.Ring[variorum.Bucket]
	// source labels the tier's planned reads, built once here.
	source string
	// lostEndSec is the coverage watermark: the EndSec of the newest
	// bucket this tier has lost (to ring eviction, or known-missing at
	// restore time). -Inf means nothing was ever lost. Tracking loss
	// explicitly — rather than inferring it from Evicted() and the
	// oldest survivor — keeps coverage exact when the ring is seeded
	// from recovery or holds a sparse history.
	lostEndSec float64
	// open is scan's copy of the still-accumulating bucket: visiting it
	// through a field, not a local, keeps the scan allocation-free.
	open variorum.Bucket
}

// archive is the node agent's storage: the raw full-rate ring plus the
// downsampled tiers, all fed by the same Push.
type archive struct {
	raw   *rawRing
	tiers []*tier
	// rawLostTs is the raw ring's loss watermark: the timestamp of the
	// newest sample no longer held (evicted, or never loaded at restore).
	// -Inf means the ring still holds everything it was ever given.
	rawLostTs float64
}

func newArchive(rawSamples int, specs []TierSpec) *archive {
	a := &archive{
		raw:       newRawRing(rawSamples),
		rawLostTs: math.Inf(-1),
	}
	for _, s := range specs {
		if s.Period <= 0 || s.Buckets <= 0 {
			continue
		}
		a.tiers = append(a.tiers, &tier{
			fold:       variorum.Fold{PeriodSec: s.Period.Seconds()},
			ring:       ringbuf.New[variorum.Bucket](s.Buckets),
			source:     query.TierSource(s.Period.Seconds(), false),
			lostEndSec: math.Inf(-1),
		})
	}
	return a
}

// push folds one sample into the raw ring and every tier.
func (a *archive) push(p variorum.NodePower) {
	if a.raw.Len() == a.raw.Cap() {
		if oldest, ok := a.raw.Oldest(); ok && oldest > a.rawLostTs {
			a.rawLostTs = oldest
		}
	}
	a.raw.push(&p)
	for _, t := range a.tiers {
		t.push(p)
	}
}

// pushBucket retires a finalized bucket into the tier ring, advancing
// the loss watermark past whatever the ring evicts to make room.
func (t *tier) pushBucket(b variorum.Bucket) {
	if t.ring.Len() == t.ring.Cap() {
		if oldest, ok := t.ring.Oldest(); ok && oldest.EndSec > t.lostEndSec {
			t.lostEndSec = oldest.EndSec
		}
	}
	t.ring.Push(b)
}

func (t *tier) push(p variorum.NodePower) {
	if b, ok := t.fold.Push(p); ok {
		t.pushBucket(b)
	}
}

// bucketStart is the tier rings' window key.
func bucketStart(b variorum.Bucket) float64 { return b.StartSec }

// scan visits the tier's finalized buckets intersecting [start, end],
// oldest first, then the still-accumulating bucket if it intersects too.
// Every bucket is handed over in place — the open one as the tier's own
// copy of it — so fn must not keep the pointer.
func (t *tier) scan(start, end float64, fn func(*variorum.Bucket)) {
	// Keyed on StartSec the ring over-selects by up to one period at the
	// left edge; skip buckets that end before the window starts.
	t.ring.ScanRange(start-t.fold.PeriodSec, end, bucketStart, func(b *variorum.Bucket) {
		if b.EndSec > start {
			fn(b)
		}
	})
	if cur, ok := t.fold.Current(); ok && cur.StartSec <= end && cur.EndSec > start {
		t.open = cur
		fn(&t.open)
	}
}

// buckets returns a copy of what scan visits, in one allocation.
func (t *tier) buckets(start, end float64) []variorum.Bucket {
	lo, hi := t.ring.IndexRange(start-t.fold.PeriodSec, end, bucketStart)
	var out []variorum.Bucket
	t.scan(start, end, func(b *variorum.Bucket) {
		if out == nil {
			out = make([]variorum.Bucket, 0, hi-lo+1) // +1: the open bucket
		}
		out = append(out, *b)
	})
	return out
}

// restore seeds a fresh archive from durable state after a crash:
// samples is the store's full raw history oldest-first, lostBefore the
// store's own loss watermark (GC), and tiers the persisted compaction
// buckets per period. Persisted buckets are adopted wholesale — they
// were computed from complete data — and raw samples replay into each
// tier only past its last adopted bucket, so nothing double-counts. The
// only tolerated drift is the one inter-sample energy segment at each
// tier's replay seam, the same segment a cold start drops.
func (a *archive) restore(samples []variorum.NodePower, lostBefore float64, tiers map[float64][]variorum.Bucket) {
	if lostBefore > a.rawLostTs {
		a.rawLostTs = lostBefore
	}
	if excess := len(samples) - a.raw.Cap(); excess > 0 {
		// The ring keeps only the newest capacity-worth; the newest
		// sample not loaded is its loss watermark.
		if ts := samples[excess-1].Timestamp; ts > a.rawLostTs {
			a.rawLostTs = ts
		}
	}
	for i := range samples {
		a.raw.push(&samples[i])
	}
	for _, t := range a.tiers {
		replayFrom := math.Inf(-1)
		for _, b := range tiers[t.fold.PeriodSec] {
			t.pushBucket(b)
			if b.EndSec > replayFrom {
				replayFrom = b.EndSec
			}
		}
		for _, p := range samples {
			if p.Timestamp >= replayFrom {
				t.push(p)
			}
		}
	}
}

// tierStats describes one tier for power-monitor.stats.
type tierStats struct {
	PeriodSec float64 `json:"period_sec"`
	Buckets   int     `json:"buckets"`
	Capacity  int     `json:"capacity"`
	Evicted   uint64  `json:"evicted"`
	OldestSec float64 `json:"oldest_sec,omitempty"`
}

func (a *archive) stats() []tierStats {
	out := make([]tierStats, 0, len(a.tiers))
	for _, t := range a.tiers {
		ts := tierStats{
			PeriodSec: t.fold.PeriodSec,
			Buckets:   t.ring.Len(),
			Capacity:  t.ring.Cap(),
			Evicted:   t.ring.Evicted(),
		}
		if oldest, ok := t.ring.Oldest(); ok {
			ts.OldestSec = oldest.StartSec
		} else if cur, ok := t.fold.Current(); ok {
			ts.OldestSec = cur.StartSec
		}
		out = append(out, ts)
	}
	return out
}
