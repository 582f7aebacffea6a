package powermon

import (
	"math"
	"runtime"
	"testing"
	"time"

	"fluxpower/internal/variorum"
)

// archiveModule wraps a bare archive in a module sampling every 2 s with
// the given raw-point cap (0 = the default): the planner's inputs.
func archiveModule(a *archive, maxRawPoints int) *Module {
	cfg := Config{SampleInterval: 2 * time.Second, MaxRawPoints: maxRawPoints}
	return &Module{cfg: cfg.withDefaults(), arch: a}
}

// windowPartial is the monitor's window aggregate over a bare archive.
func windowPartial(a *archive, start, end float64) AggPartial {
	return archiveModule(a, 0).windowPartial(start, end)
}

// sample builds a minimal NodePower at ts seconds drawing w watts.
func sample(ts, w float64) variorum.NodePower {
	return variorum.NodePower{
		Timestamp:      ts,
		NodeWatts:      w,
		SocketCPUWatts: []float64{w / 2},
		SocketMemWatts: []float64{w / 10},
		GPUWatts:       []float64{w / 4},
	}
}

func TestTierBucketing(t *testing.T) {
	a := newArchive(1000, []TierSpec{{Period: 10 * time.Second, Buckets: 100}})
	// 2 s cadence for 35 s: buckets [0,10) [10,20) [20,30) finalized,
	// [30,40) still accumulating.
	for ts := 2.0; ts <= 34; ts += 2 {
		a.push(sample(ts, 100))
	}
	tr := a.tiers[0]
	if got := tr.ring.Len(); got != 3 {
		t.Fatalf("finalized buckets: %d, want 3", got)
	}
	if cur, ok := tr.fold.Current(); !ok || cur.StartSec != 30 {
		t.Fatalf("current bucket: set=%v start=%v", ok, cur.StartSec)
	}
	oldest, _ := tr.ring.Oldest()
	// Bucket [0,10) saw samples at 2..8 (ts=10 belongs to the next bucket).
	if oldest.StartSec != 0 || oldest.Power.Node.Count != 4 {
		t.Fatalf("first bucket: start=%v count=%d", oldest.StartSec, oldest.Power.Node.Count)
	}
	if oldest.Power.Node.Mean() != 100 || oldest.Power.Node.Max != 100 {
		t.Fatalf("first bucket stats: %+v", oldest.Power.Node)
	}
	// Constant 100 W: every inter-sample segment integrates to 2·100 J.
	// The first bucket holds the 3 segments ending at 4, 6, 8 (the segment
	// 8→10 is charged to the bucket where it ends).
	if math.Abs(oldest.EnergyJ-600) > 1e-9 {
		t.Fatalf("first bucket energy: %v, want 600", oldest.EnergyJ)
	}
}

func TestTierEnergyMatchesRaw(t *testing.T) {
	// Varying power: total energy folded into tier buckets must equal the
	// raw trapezoid over the same span, because each segment is charged to
	// exactly one bucket.
	a := newArchive(1000, []TierSpec{{Period: 10 * time.Second, Buckets: 100}})
	for i := 0; i < 50; i++ {
		ts := 2.0 * float64(i+1)
		a.push(sample(ts, 100+50*math.Sin(float64(i))))
	}
	raw := windowPartial(a, 0, 1000)
	if raw.CoarsestTierSec != 0 {
		t.Fatalf("short covered window answered from tier %vs", raw.CoarsestTierSec)
	}
	var tierTotal float64
	var ta variorum.PowerAgg
	for _, b := range a.tiers[0].buckets(0, 1000) {
		tierTotal += b.EnergyJ
		ta.Merge(b.Power)
	}
	if math.Abs(raw.EnergySumJ-tierTotal) > 1e-6 {
		t.Fatalf("tier energy %v != raw energy %v", tierTotal, raw.EnergySumJ)
	}
	// And the merged per-component stats must match the raw aggregate.
	if ta.Node.Count != raw.Power.Node.Count ||
		math.Abs(ta.Node.Sum-raw.Power.Node.Sum) > 1e-9 ||
		ta.Node.Max != raw.Power.Node.Max ||
		ta.Node.Min != raw.Power.Node.Min {
		t.Fatalf("tier agg %+v != raw agg %+v", ta.Node, raw.Power.Node)
	}
}

func TestAggregateSelectsRawForShortCoveredWindow(t *testing.T) {
	a := newArchive(1000, DefaultTiers())
	for ts := 2.0; ts <= 60; ts += 2 {
		a.push(sample(ts, 200))
	}
	wa := archiveModule(a, 100).windowPartial(10, 30)
	if wa.CoarsestTierSec != 0 {
		t.Fatalf("short covered window answered from tier %vs", wa.CoarsestTierSec)
	}
	if !wa.Complete {
		t.Fatal("covered window reported incomplete")
	}
	// Samples at 10..30 inclusive: 11 points.
	if wa.Power.Node.Count != 11 {
		t.Fatalf("raw window count: %d", wa.Power.Node.Count)
	}
}

func TestAggregateFallsBackToTierWhenWindowTooLong(t *testing.T) {
	// Raw still covers the window, but it would span more than
	// maxRawPoints samples — the archive must answer from a tier.
	a := newArchive(1000, []TierSpec{{Period: 10 * time.Second, Buckets: 100}})
	for ts := 2.0; ts <= 100; ts += 2 {
		a.push(sample(ts, 200))
	}
	wa := archiveModule(a, 5).windowPartial(0, 100)
	if wa.CoarsestTierSec != 10 {
		t.Fatalf("long window answered from tier %vs, want 10", wa.CoarsestTierSec)
	}
	if !wa.Complete {
		t.Fatal("tier covers the window; should be complete")
	}
	if wa.Power.Node.Count != 50 || wa.Power.Node.Mean() != 200 {
		t.Fatalf("tier window agg: %+v", wa.Power.Node)
	}
}

func TestAggregateFallsBackToTierAfterRawEviction(t *testing.T) {
	// A 5-slot raw ring forgets the window start; the tier remembers.
	a := newArchive(5, []TierSpec{{Period: 10 * time.Second, Buckets: 100}})
	for ts := 2.0; ts <= 60; ts += 2 {
		a.push(sample(ts, 200))
	}
	if rawCovers(a, 10) {
		t.Fatal("raw ring should have evicted ts=10")
	}
	wa := windowPartial(a, 10, 60)
	if wa.CoarsestTierSec != 10 {
		t.Fatalf("evicted raw window answered from tier %vs, want 10", wa.CoarsestTierSec)
	}
	if !wa.Complete {
		t.Fatal("tier still covers the window; should be complete")
	}
}

func TestAggregateIncompleteWhenNothingCovers(t *testing.T) {
	// Tiny raw ring AND tiny tier: both forgot the window start. The
	// archive answers from the coarsest tier but flags the result.
	a := newArchive(5, []TierSpec{{Period: 4 * time.Second, Buckets: 3}})
	for ts := 2.0; ts <= 100; ts += 2 {
		a.push(sample(ts, 200))
	}
	wa := windowPartial(a, 0, 100)
	if wa.Complete {
		t.Fatal("window predating all retention reported complete")
	}
	if wa.Power.Node.Count == 0 {
		t.Fatal("fallback aggregate returned no data at all")
	}
}

func TestAggregateNoTiersFallsBackToRaw(t *testing.T) {
	// Explicit empty (non-nil) tier list disables tiering; the raw ring is
	// all there is, and eviction shows up as Complete=false.
	a := newArchive(5, []TierSpec{})
	for ts := 2.0; ts <= 40; ts += 2 {
		a.push(sample(ts, 200))
	}
	wa := windowPartial(a, 0, 40)
	if wa.CoarsestTierSec != 0 {
		t.Fatalf("no tiers configured but TierSec=%v", wa.CoarsestTierSec)
	}
	if wa.Complete {
		t.Fatal("evicted raw window reported complete")
	}
	if wa.Power.Node.Count != 5 {
		t.Fatalf("raw fallback count: %d, want 5 (ring size)", wa.Power.Node.Count)
	}
}

// TestDefaultArchiveFootprint: the paper's ring size (§III-A) is a bound,
// not a footprint. A module with the default 100 000-sample ring and
// both default tiers retains a few bytes after its first sample, where
// allocating the bounds up front would cost ~15.6 MB.
func TestDefaultArchiveFootprint(t *testing.T) {
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	m := New(Config{})
	m.arch.push(sample(2, 100))
	retained := liveHeap() - before
	if m.arch.raw.Cap() != DefaultBufferSamples || m.arch.raw.Len() != 1 {
		t.Fatalf("raw ring %d/%d, want 1/%d", m.arch.raw.Len(), m.arch.raw.Cap(), DefaultBufferSamples)
	}
	for i, spec := range DefaultTiers() {
		if got := m.arch.tiers[i].ring.Cap(); got != spec.Buckets {
			t.Fatalf("tier %v holds up to %d buckets, want %d", spec.Period, got, spec.Buckets)
		}
	}
	if retained > 64<<10 {
		t.Fatalf("default module retains %d KB after one sample, want < 64 KB", retained>>10)
	}
}

func TestTierRetentionEviction(t *testing.T) {
	// 3 buckets of 4 s: retention 12 s. After 100 s the tier no longer
	// covers early starts but still covers recent ones.
	a := newArchive(1000, []TierSpec{{Period: 4 * time.Second, Buckets: 3}})
	for ts := 2.0; ts <= 100; ts += 2 {
		a.push(sample(ts, 100))
	}
	tr := a.tiers[0]
	if tierCovers(t, a, 10) {
		t.Fatal("3x4s tier claims to cover ts=10 after 100s")
	}
	if !tierCovers(t, a, 95) {
		t.Fatal("tier should cover the recent past")
	}
	if tr.ring.Len() != 3 {
		t.Fatalf("tier ring length %d, want 3", tr.ring.Len())
	}
}
