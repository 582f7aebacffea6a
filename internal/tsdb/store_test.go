package tsdb

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fluxpower/internal/variorum"
)

func testConfig() Config {
	return Config{
		BlockSamples:   64,
		SegmentBytes:   8 << 10,
		SyncEvery:      8,
		RetainBytes:    -1,
		TierPeriodsSec: []float64{60},
	}
}

func appendN(t *testing.T, s *Store, n, from int) []variorum.NodePower {
	t.Helper()
	var out []variorum.NodePower
	for i := from; i < from+n; i++ {
		p := mkSample(i)
		if err := s.Append(p); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		out = append(out, p)
	}
	return out
}

func TestStoreAppendSelectReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, s, 1000, 0)

	got, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, got, want)

	// A bounded range straddling block and head.
	lo, hi := want[100].Timestamp, want[990].Timestamp
	ranged, err := s.SelectRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, ranged, want[100:991])

	h := s.Health()
	if h.AppendedSamples != 1000 {
		t.Fatalf("AppendedSamples = %d", h.AppendedSamples)
	}
	if h.SealedBlocks != 1000/64 {
		t.Fatalf("SealedBlocks = %d, want %d", h.SealedBlocks, 1000/64)
	}
	if h.HeadSamples != 1000%64 {
		t.Fatalf("HeadSamples = %d, want %d", h.HeadSamples, 1000%64)
	}
	if h.DurableSamples+h.UnsyncedSamples != h.AppendedSamples {
		t.Fatalf("durability accounting: %+v", h)
	}
	if h.BytesOnDisk == 0 {
		t.Fatal("BytesOnDisk = 0")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean close loses nothing.
	s2, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err = s2.All()
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, got, want)
	h = s2.Health()
	if h.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", h.Recoveries)
	}
	if h.TornRecords != 0 || h.DroppedSegments != 0 || h.DroppedBlocks != 0 {
		t.Fatalf("clean reopen reported damage: %+v", h)
	}

	// Appends continue seamlessly after recovery.
	more := appendN(t, s2, 100, 1000)
	got, err = s2.All()
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, got, append(append([]variorum.NodePower{}, want...), more...))
}

func TestStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	// Disable every implicit durability path (seal, rotation, SyncEvery):
	// only the explicit Sync below makes data durable.
	cfg.BlockSamples = 1 << 30
	cfg.SegmentBytes = 1 << 40
	cfg.SyncEvery = 1 << 30
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, s, 500, 0)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 37, 500) // un-synced tail, doomed

	h := s.Health()
	if h.DurableSamples != 500 || h.UnsyncedSamples != 37 {
		t.Fatalf("pre-crash health: %+v", h)
	}
	if h.LastFsyncLagSec != 37*2 {
		t.Fatalf("LastFsyncLagSec = %v, want %v", h.LastFsyncLagSec, 37*2)
	}
	s.Crash()

	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the durable prefix: nothing more, nothing less, byte-equal.
	sameJSON(t, got, want)
	h = s2.Health()
	if h.AppendedSamples != 500 || h.DurableSamples != 500 {
		t.Fatalf("post-recovery health: %+v", h)
	}
	if h.Recoveries != 1 {
		t.Fatalf("Recoveries = %d", h.Recoveries)
	}
}

func TestStoreCrashImmediatelyAfterOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Crash()
	s2, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("recovered %d samples from empty store", len(got))
	}
}

func TestStoreTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.BlockSamples = 1 << 30 // keep everything in the WAL
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, s, 20, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record: chop a few bytes off the newest segment.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments on disk")
	}
	last := segs[len(segs)-1].path
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	// The torn record is truncated, not fatal: the clean prefix survives.
	sameJSON(t, got, want[:19])
	h := s2.Health()
	if h.TornRecords == 0 {
		t.Fatalf("TornRecords = 0 after torn tail: %+v", h)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The tear was repaired on disk: a third open is clean.
	s3, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if h := s3.Health(); h.TornRecords != 0 {
		t.Fatalf("tear not repaired: %+v", h)
	}
	got, err = s3.All()
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, got, want[:19])
}

func TestStoreGarbageAppendedToSegment(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.BlockSamples = 1 << 30
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, s, 10, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, got, want)
}

func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.BlockSamples = 1 << 30 // no seals: force multi-segment WAL recovery
	cfg.SegmentBytes = 2 << 10
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, s, 200, 0)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.Segments < 3 {
		t.Fatalf("Segments = %d, want several", h.Segments)
	}
	s.Crash()

	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, got, want)
}

func TestStoreSchemaChangeSealsEarly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var want []variorum.NodePower
	for i := 0; i < 10; i++ {
		p := mkSample(i)
		want = append(want, p)
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 10; i < 20; i++ {
		p := mkTiogaSample(i)
		want = append(want, p)
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if h := s.Health(); h.SealedBlocks != 1 {
		t.Fatalf("SealedBlocks = %d, want 1 (early seal at schema change)", h.SealedBlocks)
	}
	got, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, got, want)
}

// TestStoreRejectsUnencodableSample appends one sample whose shape no
// block can hold between normal ones: Append must refuse that sample
// alone, and the store must keep appending, sealing and recovering.
func TestStoreRejectsUnencodableSample(t *testing.T) {
	for name, oversize := range map[string]func(*variorum.NodePower){
		"hostname": func(p *variorum.NodePower) { p.Hostname = strings.Repeat("h", 5000) },
		"gpus":     func(p *variorum.NodePower) { p.GPUWatts = make([]float64, 256) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig()
			cfg.BlockSamples = 2
			s, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := appendN(t, s, 1, 0)
			bad := mkSample(1)
			oversize(&bad)
			if err := s.Append(bad); err == nil {
				t.Fatal("Append accepted a sample no block can encode")
			}
			want = append(want, appendN(t, s, 6, 2)...)
			if h := s.Health(); h.SealedBlocks != 3 || h.HeadSamples != 1 {
				t.Fatalf("after the rejected sample: %d blocks sealed, %d in head; want 3 and 1", h.SealedBlocks, h.HeadSamples)
			}
			got, err := s.All()
			if err != nil {
				t.Fatal(err)
			}
			sameJSON(t, got, want)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err = Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got, err = s.All(); err != nil {
				t.Fatal(err)
			}
			sameJSON(t, got, want)
		})
	}
}

// expectedTiers independently folds samples into buckets with the
// documented semantics, as a pin against the store's compactor.
func expectedTiers(samples []variorum.NodePower, period float64) []variorum.Bucket {
	var out []variorum.Bucket
	var cur variorum.Bucket
	curSet := false
	var lastTS, lastW float64
	for _, p := range samples {
		start := math.Trunc(p.Timestamp/period) * period
		if curSet && start != cur.StartSec {
			out = append(out, cur)
			curSet = false
		}
		if !curSet {
			cur = variorum.Bucket{StartSec: start, EndSec: start + period}
			curSet = true
		}
		w := p.TotalWatts()
		if lastTS > 0 && p.Timestamp > lastTS {
			cur.EnergyJ += (p.Timestamp - lastTS) * (w + lastW) / 2
		}
		cur.Power.Add(p)
		lastTS, lastW = p.Timestamp, w
	}
	return out // open final bucket intentionally omitted
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, s, 1000, 0) // 2 s cadence: ts 10 .. 2008
	if err := s.Maintain(want[len(want)-1].Timestamp); err != nil {
		t.Fatal(err)
	}
	recs := s.TierRecords(60)
	if len(recs) == 0 {
		t.Fatal("no tier records after Maintain")
	}

	// Only sealed samples are compacted, and only finalized buckets
	// emitted: expected output is the independent fold over sealed
	// samples, minus its open final bucket.
	sealed := want[:len(want)-len(want)%64]
	exp := expectedTiers(sealed, 60)
	if len(recs) != len(exp) {
		t.Fatalf("got %d tier records, want %d", len(recs), len(exp))
	}
	for i := range exp {
		if recs[i] != exp[i] {
			t.Fatalf("tier[%d] = %+v, want %+v", i, recs[i], exp[i])
		}
	}

	// Idempotent: a second Maintain adds nothing.
	if err := s.Maintain(want[len(want)-1].Timestamp); err != nil {
		t.Fatal(err)
	}
	if again := s.TierRecords(60); len(again) != len(recs) {
		t.Fatalf("second Maintain grew tier log: %d -> %d", len(recs), len(again))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tier records survive restart.
	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs2 := s2.TierRecords(60)
	if len(recs2) != len(recs) {
		t.Fatalf("recovered %d tier records, want %d", len(recs2), len(recs))
	}
	for i := range recs {
		if recs[i] != recs2[i] {
			t.Fatalf("recovered tier[%d] = %+v, want %+v", i, recs2[i], recs[i])
		}
	}
}

func TestStoreGC(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, s, 2000, 0)
	now := want[len(want)-1].Timestamp
	if err := s.Maintain(now); err != nil {
		t.Fatal(err)
	}
	before := s.Health()
	if lost := s.LostBeforeSec(); !math.IsInf(lost, -1) {
		t.Fatalf("loss watermark %v before any GC", lost)
	}

	// Shrink the budget and run GC.
	s.mu.Lock()
	s.cfg.RetainBytes = before.BytesOnDisk / 4
	s.mu.Unlock()
	if err := s.Maintain(now); err != nil {
		t.Fatal(err)
	}
	after := s.Health()
	if after.SealedBlocks >= before.SealedBlocks {
		t.Fatalf("GC deleted nothing: %d -> %d blocks", before.SealedBlocks, after.SealedBlocks)
	}
	lost := s.LostBeforeSec()
	if math.IsInf(lost, -1) {
		t.Fatal("LostBeforeSec still -Inf after GC")
	}
	if want[0].Timestamp > lost {
		t.Fatal("the watermark does not cover the oldest sample GC deleted")
	}
	if kept, err := s.All(); err != nil || len(kept) == 0 || kept[0].Timestamp <= lost {
		t.Fatalf("the store lost samples past its watermark %v (err %v)", lost, err)
	}

	// GC never outruns compaction: every deleted sample lives inside a
	// persisted tier bucket.
	if thr := s.TierRecords(60)[len(s.TierRecords(60))-1].EndSec; lost >= thr {
		t.Fatalf("GC deleted uncompacted data: lost %.0f, compacted through %.0f", lost, thr)
	}
	got, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("GC deleted everything")
	}
	// Survivors are an exact suffix of the input.
	sameJSON(t, got, want[len(want)-len(got):])
	// Tier records still describe the deleted range.
	if recs := s.TierRecords(60); recs[0].StartSec > want[0].Timestamp {
		t.Fatalf("tier history starts at %.0f, after oldest raw %.0f", recs[0].StartSec, want[0].Timestamp)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The loss watermark survives restart via meta.json.
	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LostBeforeSec(); got != lost {
		t.Fatalf("recovered LostBeforeSec = %v, want %v", got, lost)
	}

	// And degrades conservatively if meta.json is lost.
	s2.Close()
	if err := os.Remove(filepath.Join(dir, "meta.json")); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.LostBeforeSec(); math.IsInf(got, -1) || got < lost {
		t.Fatalf("watermark after meta loss = %v, want ≥ %v", got, lost)
	}
}

func TestStoreClosedAndCrashedOps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err) // double close is a no-op
	}
	if err := s.Append(mkSample(0)); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync after Close succeeded")
	}
	if _, err := s.All(); err == nil {
		t.Fatal("All after Close succeeded")
	}

	s2, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s2.Crash()
	s2.Crash() // idempotent
	if err := s2.Close(); err != nil {
		t.Fatal("Close after Crash must be a no-op, got", err)
	}
}

func TestStoreCorruptBlockFallsBackToWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, s, 100, 0) // one 64-sample block + 36 in the WAL
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the sealed block: its samples are gone (the WAL segment
	// covering them was deleted at seal), but recovery must carry on with
	// the un-sealed tail rather than fail.
	blocks, err := filepath.Glob(filepath.Join(dir, "blk-*.blk"))
	if err != nil || len(blocks) != 1 {
		t.Fatalf("blocks on disk: %v, %v", blocks, err)
	}
	data, err := os.ReadFile(blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(blocks[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.All()
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, got, want[64:])
	if h := s2.Health(); h.DroppedBlocks != 1 {
		t.Fatalf("DroppedBlocks = %d, want 1", h.DroppedBlocks)
	}
}
