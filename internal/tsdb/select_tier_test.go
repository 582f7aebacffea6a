package tsdb

import (
	"math"
	"testing"
)

// TestSelectTierBoundaries is the windowed tier-read contract, table-
// driven at the bucket edges: a bucket belongs to [start, end] exactly
// when EndSec > start and StartSec <= end — the same ownership rule the
// in-memory archive uses, so planner code can treat both sources alike.
func TestSelectTierBoundaries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig()) // 60 s tier
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := appendN(t, s, 1000, 0) // 2 s cadence
	if err := s.Maintain(want[len(want)-1].Timestamp); err != nil {
		t.Fatal(err)
	}
	recs := s.TierRecords(60)
	if len(recs) < 5 {
		t.Fatalf("need at least 5 tier buckets, have %d", len(recs))
	}
	first, last := recs[0], recs[len(recs)-1]

	cases := []struct {
		name       string
		start, end float64
		wantFirst  float64 // StartSec of first expected bucket
		wantCount  int
	}{
		{"exact one bucket minus edges", recs[1].StartSec + 1, recs[1].EndSec - 1, recs[1].StartSec, 1},
		{"window equals bucket: right edge pulls the neighbor in", recs[1].StartSec, recs[1].EndSec, recs[1].StartSec, 2},
		{"start at EndSec excludes the bucket", recs[1].EndSec, recs[3].EndSec - 1, recs[2].StartSec, 2},
		{"end at StartSec includes the bucket", recs[1].StartSec + 1, recs[3].StartSec, recs[1].StartSec, 3},
		{"everything", math.Inf(-1), math.Inf(1), first.StartSec, len(recs)},
		{"before all data", first.StartSec - 1000, first.StartSec - 1, 0, 0},
		{"after all data", last.EndSec, last.EndSec + 1000, 0, 0},
		{"unconfigured period", 0, math.Inf(1), 0, 0},
	}
	for _, tc := range cases {
		period := 60.0
		if tc.name == "unconfigured period" {
			period = 600
		}
		got := s.SelectTier(period, tc.start, tc.end)
		if len(got) != tc.wantCount {
			t.Fatalf("%s: got %d buckets, want %d", tc.name, len(got), tc.wantCount)
		}
		if tc.wantCount > 0 && got[0].StartSec != tc.wantFirst {
			t.Fatalf("%s: first bucket starts %.0f, want %.0f", tc.name, got[0].StartSec, tc.wantFirst)
		}
		// Every returned bucket must actually intersect the window.
		for _, b := range got {
			if !(b.EndSec > tc.start && b.StartSec <= tc.end) {
				t.Fatalf("%s: bucket [%.0f,%.0f) outside window [%.1f,%.1f]",
					tc.name, b.StartSec, b.EndSec, tc.start, tc.end)
			}
		}
	}

	firstStart, lastEnd, ok := s.TierCoverage(60)
	if !ok || firstStart != first.StartSec || lastEnd != last.EndSec {
		t.Fatalf("TierCoverage = (%.0f, %.0f, %v), want (%.0f, %.0f, true)",
			firstStart, lastEnd, ok, first.StartSec, last.EndSec)
	}
	if _, _, ok := s.TierCoverage(600); ok {
		t.Fatal("TierCoverage ok for unconfigured period")
	}
	if ps := s.TierPeriods(); len(ps) != 1 || ps[0] != 60 {
		t.Fatalf("TierPeriods = %v", ps)
	}
}

// TestCrashedStoreAnswersNoTierRead: after Crash every tier read answers
// as SelectRange does — nothing — so no planner reads a tier log from a
// store that can no longer serve its raw blocks.
func TestCrashedStoreAnswersNoTierRead(t *testing.T) {
	s, err := Open(t.TempDir(), testConfig()) // 60 s tier
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, s, 1000, 0)
	if err := s.Maintain(want[len(want)-1].Timestamp); err != nil {
		t.Fatal(err)
	}
	if len(s.TierRecords(60)) == 0 {
		t.Fatal("no tier buckets before the crash")
	}
	s.Crash()
	if _, err := s.SelectRange(math.Inf(-1), math.Inf(1)); err == nil {
		t.Fatal("SelectRange answered after Crash")
	}
	if got := s.SelectTier(60, math.Inf(-1), math.Inf(1)); len(got) != 0 {
		t.Fatalf("SelectTier answered %d buckets after Crash", len(got))
	}
	if got := s.TierRecords(60); len(got) != 0 {
		t.Fatalf("TierRecords answered %d buckets after Crash", len(got))
	}
	if ps := s.TierPeriods(); len(ps) != 0 {
		t.Fatalf("TierPeriods = %v after Crash", ps)
	}
	if _, _, ok := s.TierCoverage(60); ok {
		t.Fatal("TierCoverage ok after Crash")
	}
}

// TestSelectTierAcrossGCWatermark: GC deletes raw blocks but never tier
// logs, so a window reaching below the loss watermark still reads
// buckets there — the planner's "coarse history outlives raw history"
// contract.
func TestSelectTierAcrossGCWatermark(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := appendN(t, s, 2000, 0)
	now := want[len(want)-1].Timestamp
	if err := s.Maintain(now); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.cfg.RetainBytes = s.blockBytes / 4
	s.mu.Unlock()
	if err := s.Maintain(now); err != nil {
		t.Fatal(err)
	}
	lost := s.LostBeforeSec()
	if math.IsInf(lost, -1) {
		t.Fatal("GC deleted nothing; cannot exercise the watermark")
	}
	// A window straddling the watermark still reads tier buckets on both
	// sides of it.
	got := s.SelectTier(60, lost-120, lost+120)
	if len(got) == 0 {
		t.Fatal("no tier buckets across the GC watermark")
	}
	var below, above bool
	for _, b := range got {
		if b.StartSec < lost {
			below = true
		}
		if b.EndSec > lost {
			above = true
		}
	}
	if !below || !above {
		t.Fatalf("buckets do not straddle the watermark %.0f: below=%v above=%v", lost, below, above)
	}
	// And the whole pre-watermark history is still readable.
	all := s.SelectTier(60, math.Inf(-1), lost)
	if len(all) == 0 || all[0].StartSec > want[0].Timestamp {
		t.Fatalf("tier history before watermark unreadable: %d buckets", len(all))
	}
}
