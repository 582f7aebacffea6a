package powermon

import (
	"math"
	"testing"
	"time"

	"fluxpower/internal/query"
	"fluxpower/internal/variorum"
)

// rawCovers is the planner's verdict on whether the archive's raw ring
// still holds a window starting at start: the completeness of a collect
// on a node without a store.
func rawCovers(a *archive, start float64) bool {
	return query.ReadRaw(archiveModule(a, 0), start, start).Complete
}

// tierCovers is the planner's verdict on whether the archive's only tier
// reaches back to start: the completeness of an aggregate over a window
// too long for the raw ring, which the tier answers either way.
func tierCovers(t *testing.T, a *archive, start float64) bool {
	t.Helper()
	p := windowPartial(a, start, start+1e9)
	if p.CoarsestTierSec != a.tiers[0].fold.PeriodSec {
		t.Fatalf("window from %v answered from tier %vs, want the %vs tier", start, p.CoarsestTierSec, a.tiers[0].fold.PeriodSec)
	}
	return p.Complete
}

// TestCoverageEvictionBoundary pins archive coverage at the exact
// eviction boundary. Coverage is tracked with explicit loss watermarks
// (rawLostTs / lostEndSec), not inferred from Evicted() plus the oldest
// survivor — the inferred form lied for seeded rings (restore pushes
// history without incrementing Evicted) and was over-conservative when a
// window started in the gap between the newest evicted element and the
// oldest survivor.
func TestCoverageEvictionBoundary(t *testing.T) {
	const period = 60.0
	cases := []struct {
		name string
		// cap raw ring at this many samples; push samples at these times.
		cap   int
		times []float64
		start float64
		want  bool
	}{
		{"no eviction, start before first sample", 4, []float64{100, 102}, 50, true},
		{"no eviction, start at first sample", 4, []float64{100, 102}, 100, true},
		{"eviction, start strictly before evicted", 2, []float64{100, 102, 104}, 99, false},
		{"eviction, start exactly at evicted sample", 2, []float64{100, 102, 104}, 100, false},
		{"eviction, start in gap after evicted", 2, []float64{100, 102, 104}, 101, true},
		{"eviction, start at oldest survivor", 2, []float64{100, 102, 104}, 102, true},
		{"eviction, start after oldest survivor", 2, []float64{100, 102, 104}, 103, true},
	}
	for _, tc := range cases {
		t.Run("raw/"+tc.name, func(t *testing.T) {
			a := newArchive(tc.cap, nil)
			for _, ts := range tc.times {
				a.push(sample(ts, 100))
			}
			if got := rawCovers(a, tc.start); got != tc.want {
				t.Fatalf("rawCovers(%v) = %v, want %v (lost watermark %v)",
					tc.start, got, tc.want, a.rawLostTs)
			}
		})
	}

	tierCases := []struct {
		name string
		// buckets of ring capacity; samples pushed at these times create
		// and finalize 60 s buckets.
		buckets int
		times   []float64
		start   float64
		want    bool
	}{
		{"no eviction", 4, []float64{10, 70, 130}, 0, true},
		// Buckets [0,60) and [60,120) finalized, [0,60) evicted:
		// its EndSec 60 is the watermark.
		{"eviction, start before lost bucket end", 1, []float64{10, 70, 130}, 59, false},
		{"eviction, start exactly at lost bucket end", 1, []float64{10, 70, 130}, 60, true},
		{"eviction, start after lost bucket end", 1, []float64{10, 70, 130}, 61, true},
	}
	for _, tc := range tierCases {
		t.Run("tier/"+tc.name, func(t *testing.T) {
			a := newArchive(100, []TierSpec{{Period: time.Minute, Buckets: tc.buckets}})
			for _, ts := range tc.times {
				a.push(sample(ts, 100))
			}
			tr := a.tiers[0]
			if got := tierCovers(t, a, tc.start); got != tc.want {
				t.Fatalf("covers(%v) = %v, want %v (lost watermark %v)",
					tc.start, got, tc.want, tr.lostEndSec)
			}
		})
	}
}

// TestCoverageAfterRestore pins the case the old Evicted()-based
// inference got wrong: a ring seeded with partial history has
// Evicted() == 0, yet must not claim coverage of the missing past.
func TestCoverageAfterRestore(t *testing.T) {
	a := newArchive(3, []TierSpec{{Period: time.Minute, Buckets: 2}})
	var samples []variorum.NodePower
	for i := 0; i < 6; i++ {
		samples = append(samples, sample(100+float64(i)*2, 100)) // ts 100..110
	}
	a.restore(samples, math.Inf(-1), nil)

	if a.raw.Len() != 3 {
		t.Fatalf("ring holds %d samples, want 3", a.raw.Len())
	}
	// Samples at 100, 102, 104 were never loaded (cap 3 keeps 106..110):
	// claiming coverage of them would be a lie.
	if rawCovers(a, 100) || rawCovers(a, 104) {
		t.Fatalf("rawCovers claims the unloaded past (watermark %v)", a.rawLostTs)
	}
	if !rawCovers(a, 106) || !rawCovers(a, 200) {
		t.Fatalf("rawCovers denies the loaded range (watermark %v)", a.rawLostTs)
	}

	// The store's own GC loss watermark must be adopted too — here the
	// ring has room for everything, so Evicted() == 0 and the old
	// inference would have claimed full coverage despite the GC'd past.
	b := newArchive(100, nil)
	b.restore(samples, 95, nil)
	if b.raw.Evicted() != 0 {
		t.Fatalf("Evicted = %d, want 0", b.raw.Evicted())
	}
	if rawCovers(b, 90) || rawCovers(b, 95) {
		t.Fatal("rawCovers ignores the store's GC watermark")
	}
	if !rawCovers(b, 96) {
		t.Fatal("rawCovers over-extends the store's GC watermark")
	}

	// Adopted tier buckets beyond ring capacity advance the tier
	// watermark exactly like live eviction.
	c := newArchive(100, []TierSpec{{Period: time.Minute, Buckets: 2}})
	buckets := []variorum.Bucket{
		{StartSec: 0, EndSec: 60},
		{StartSec: 60, EndSec: 120},
		{StartSec: 120, EndSec: 180},
	}
	c.restore(nil, math.Inf(-1), map[float64][]variorum.Bucket{60: buckets})
	tr := c.tiers[0]
	if tierCovers(t, c, 59) {
		t.Fatalf("tier covers evicted adopted bucket (watermark %v)", tr.lostEndSec)
	}
	if !tierCovers(t, c, 60) {
		t.Fatalf("tier denies surviving adopted range (watermark %v)", tr.lostEndSec)
	}
}

// TestRestoreTierReplayNoDoubleCount: raw samples replay into a tier
// only past its last adopted bucket, so a bucket is never fed twice.
func TestRestoreTierReplayNoDoubleCount(t *testing.T) {
	// Live reference: samples at 2 s cadence through three 60 s buckets.
	live := newArchive(1000, []TierSpec{{Period: time.Minute, Buckets: 10}})
	var samples []variorum.NodePower
	for ts := 2.0; ts < 180; ts += 2 {
		p := sample(ts, 100+ts)
		samples = append(samples, p)
		live.push(p)
	}

	// Recovered: the first bucket arrives persisted, the rest replay raw.
	liveBuckets := ringBuckets(live.tiers[0])
	rec := newArchive(1000, []TierSpec{{Period: time.Minute, Buckets: 10}})
	rec.restore(samples, math.Inf(-1), map[float64][]variorum.Bucket{60: {liveBuckets[0]}})

	recBuckets := ringBuckets(rec.tiers[0])
	if len(recBuckets) != len(liveBuckets) {
		t.Fatalf("recovered %d buckets, live has %d", len(recBuckets), len(liveBuckets))
	}
	for i := range liveBuckets {
		lb, rb := liveBuckets[i], recBuckets[i]
		if rb.StartSec != lb.StartSec || rb.EndSec != lb.EndSec {
			t.Fatalf("bucket %d bounds [%v,%v), want [%v,%v)", i, rb.StartSec, rb.EndSec, lb.StartSec, lb.EndSec)
		}
		if rb.Power.Node.Count != lb.Power.Node.Count {
			t.Fatalf("bucket %d count %d, want %d", i, rb.Power.Node.Count, lb.Power.Node.Count)
		}
		// The replay seam (first replayed sample) legitimately drops one
		// inter-sample energy segment; every bucket past the seam is exact.
		if i >= 2 && rb.EnergyJ != lb.EnergyJ {
			t.Fatalf("bucket %d energy %v, want %v", i, rb.EnergyJ, lb.EnergyJ)
		}
	}
}

// ringBuckets copies a tier's finalized buckets out of its ring, oldest
// first.
func ringBuckets(t *tier) []variorum.Bucket {
	out := make([]variorum.Bucket, t.ring.Len())
	for i := range out {
		out[i] = t.ring.At(i)
	}
	return out
}
