package powermon

import (
	"reflect"
	"testing"
	"time"

	"fluxpower/internal/variorum"
)

// scanModule builds a monitor whose raw ring and 10 s tier have both
// wrapped: 30 samples at 2 s (ts 2..60) into a 16-sample ring keep ts
// 30..60 with the backing array's seam between ts 32 and 34; six
// finalized buckets into a 4-bucket ring keep [20, 60), and [60, 70)
// is still accumulating.
func scanModule(t *testing.T) *Module {
	t.Helper()
	m := New(Config{
		SampleInterval: 2 * time.Second,
		BufferSamples:  16,
		Tiers:          []TierSpec{{Period: 10 * time.Second, Buckets: 4}},
	})
	for ts := 2.0; ts <= 60; ts += 2 {
		m.arch.push(sample(ts, 100+ts))
	}
	if m.arch.raw.Evicted() == 0 || m.arch.tiers[0].ring.Evicted() == 0 {
		t.Fatal("fixture rings have not wrapped")
	}
	return m
}

// sameRecords compares a scan's visits with a query's copy, treating nil
// and empty alike.
func sameRecords[T any](visited, copied []T) bool {
	return len(visited) == len(copied) && (len(visited) == 0 || reflect.DeepEqual(visited, copied))
}

// TestScanMatchesQuery: ScanRaw and ScanTier visit exactly the records
// QueryRaw and QueryTier copy out, in the same order — across the wrap
// seams, with and without the open tier bucket, and for empty windows.
func TestScanMatchesQuery(t *testing.T) {
	m := scanModule(t)
	windows := []struct {
		name       string
		start, end float64
	}{
		{"across the raw seam", 31, 40},
		{"whole ring", 0, 1000},
		{"open bucket only", 61, 65},
		{"finalized and open buckets", 25, 65},
		{"finalized only", 21, 49},
		{"bucket edge", 40, 40},
		{"evicted past", 0, 5},
		{"future", 100, 200},
		{"inverted", 50, 40},
	}
	const period = 10
	for _, w := range windows {
		var raw []variorum.NodePower
		m.ScanRaw(w.start, w.end, func(p *variorum.NodePower) { raw = append(raw, *p) })
		if want := m.QueryRaw(w.start, w.end); !sameRecords(raw, want) {
			t.Errorf("%s: ScanRaw visited %d samples, QueryRaw returned %d:\n%+v\n%+v", w.name, len(raw), len(want), raw, want)
		}
		var buckets []variorum.Bucket
		if !m.ScanTier(period, w.start, w.end, func(b *variorum.Bucket) { buckets = append(buckets, *b) }) {
			t.Fatalf("%s: ScanTier does not know the %d s tier", w.name, period)
		}
		if want := m.QueryTier(period, false, w.start, w.end); !sameRecords(buckets, want) {
			t.Errorf("%s: ScanTier visited %d buckets, QueryTier returned %d:\n%+v\n%+v", w.name, len(buckets), len(want), buckets, want)
		}
	}

	// The open bucket is visited: [25, 65] ends with [60, 70).
	var last variorum.Bucket
	m.ScanTier(period, 25, 65, func(b *variorum.Bucket) { last = *b })
	if last.StartSec != 60 || last.Power.Node.Count != 1 {
		t.Fatalf("last bucket of [25, 65]: %+v, want the open [60, 70) with one sample", last)
	}
	if m.ScanTier(600, 0, 1000, func(*variorum.Bucket) { t.Fatal("visited a bucket of a missing tier") }) {
		t.Fatal("ScanTier reported a 600 s tier the monitor does not keep")
	}
}

// TestScanInPlaceAllocatesNothing: folding a window through the scan
// methods copies nothing out — not the ring's samples, not the tier's
// buckets, not the open bucket.
func TestScanInPlaceAllocatesNothing(t *testing.T) {
	m := scanModule(t)
	var sum float64
	addSample := func(p *variorum.NodePower) { sum += p.NodeWatts }
	addBucket := func(b *variorum.Bucket) { sum += b.EnergyJ }
	if n := testing.AllocsPerRun(50, func() { m.ScanRaw(0, 1000, addSample) }); n != 0 {
		t.Errorf("ScanRaw allocated %v times per scan", n)
	}
	if n := testing.AllocsPerRun(50, func() { m.ScanTier(10, 0, 1000, addBucket) }); n != 0 {
		t.Errorf("ScanTier allocated %v times per scan", n)
	}
	// A window aggregate allocates a fixed amount — the planner's
	// metadata snapshot and the fold state — however many records it
	// folds: none of them is copied out. A tier read allocates no more
	// than a raw one: its label was built with the tier.
	aggAllocs := func(start, end float64) float64 {
		return testing.AllocsPerRun(50, func() { m.windowPartial(start, end) })
	}
	if one, all := aggAllocs(59, 60), aggAllocs(30, 60); one != all {
		t.Errorf("a raw window aggregate allocated %v times over one sample, %v over the whole ring", one, all)
	}
	if one, all := aggAllocs(0, 25), aggAllocs(0, 1000); one != all {
		t.Errorf("a tier window aggregate allocated %v times over one bucket, %v over every bucket", one, all)
	}
	if raw, tier := aggAllocs(30, 60), aggAllocs(0, 1000); tier > raw {
		t.Errorf("a tier window aggregate allocated %v times, a raw one %v", tier, raw)
	}
	if n := testing.AllocsPerRun(50, func() { m.arch.tiers[0].buckets(20, 65) }); n != 1 {
		t.Errorf("buckets allocated %v times, want exactly one", n)
	}
	if sum == 0 {
		t.Fatal("scans visited nothing")
	}
}
