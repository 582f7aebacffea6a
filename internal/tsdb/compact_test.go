package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fluxpower/internal/variorum"
)

// refold is the from-scratch oracle: one fresh fold over every sample
// ever sealed, minus its open bucket.
func refold(sealed []variorum.NodePower, period float64) []variorum.Bucket {
	f := variorum.Fold{PeriodSec: period}
	var out []variorum.Bucket
	for _, p := range sealed {
		if b, ok := f.Push(p); ok {
			out = append(out, b)
		}
	}
	return out
}

// readTierLog decodes a tier log straight from disk, independently of
// the store's index.
func readTierLog(t *testing.T, dir string, period float64) []variorum.Bucket {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("tier-%g.log", period)))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, torn := splitFrames(data)
	if torn {
		t.Fatalf("tier %g log has a torn tail while the store is open", period)
	}
	var out []variorum.Bucket
	for _, payload := range payloads {
		var r variorum.Bucket
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// TestCompactionCarryMatchesRefold is the differential oracle for the
// carried fold: seeded random sequences of appends (with time gaps),
// schema-change early seals, Maintain, GC and Crash+Open — including a
// crash right after a seal, between the block fsync and the tier-log
// flush, and a tier log torn after its fsync. After every step each
// tier log holds a prefix of the from-scratch fold over all sealed
// samples, field for field; after every Maintain it holds all of it.
// Reopen therefore never duplicates, drops or alters a bucket.
func TestCompactionCarryMatchesRefold(t *testing.T) {
	periods := []float64{60, 300}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			cfg := testConfig()
			cfg.TierPeriodsSec = periods
			gc := seed%2 == 0 // odd seeds keep every block, so a torn log can be regenerated
			s, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()

			var sealed, head []variorum.NodePower
			tick := 0 // next sample's position on the 2 s grid
			tioga := false
			seal := func() {
				sealed = append(sealed, head...)
				head = nil
			}
			appendOne := func() {
				mk := mkSample
				if tioga {
					mk = mkTiogaSample
				}
				p := mk(tick)
				tick++
				if len(head) > 0 && schemaOf(p) != schemaOf(head[0]) {
					seal()
				}
				if err := s.Append(p); err != nil {
					t.Fatal(err)
				}
				if head = append(head, p); len(head) >= cfg.BlockSamples {
					seal()
				}
			}
			reopen := func(whileDown func()) {
				s.Crash()
				if whileDown != nil {
					whileDown()
				}
				if s, err = Open(dir, cfg); err != nil {
					t.Fatal(err)
				}
				// Only the un-synced tail of the head is lost.
				h := s.Health()
				if h.HeadSamples > len(head) || h.AppendedSamples != uint64(len(sealed)+h.HeadSamples) {
					t.Fatalf("reopened with %d head / %d appended; model has %d sealed + %d head",
						h.HeadSamples, h.AppendedSamples, len(sealed), len(head))
				}
				tick -= len(head) - h.HeadSamples
				head = head[:h.HeadSamples]
			}
			sizes, checked := map[float64]int64{}, 0 // log sizes and bucket total at the last full check
			logSize := func(p float64) int64 {
				fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("tier-%g.log", p)))
				if err != nil {
					return 0
				}
				return fi.Size()
			}
			check := func(step int, what string, caughtUp bool) {
				t.Helper()
				if what == "append" || what == "schema change" {
					// Only Maintain and Open write a tier log: between them
					// its bytes, already checked, must not move.
					for _, p := range periods {
						if logSize(p) != sizes[p] {
							t.Fatalf("step %d (%s): tier %g log changed size outside Maintain", step, what, p)
						}
					}
					if h := s.Health(); h.TierRecords != checked {
						t.Fatalf("step %d (%s): Health.TierRecords = %d, was %d", step, what, h.TierRecords, checked)
					}
					return
				}
				total := 0
				for _, p := range periods {
					sizes[p] = logSize(p)
					want := refold(sealed, p)
					got := readTierLog(t, dir, p)
					if caughtUp && len(got) != len(want) {
						t.Fatalf("step %d (%s) tier %g: log holds %d buckets after Maintain, refold gives %d",
							step, what, p, len(got), len(want))
					}
					if len(got) > len(want) {
						t.Fatalf("step %d (%s) tier %g: log holds %d buckets, refold only %d", step, what, p, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("step %d (%s) tier %g bucket %d:\n log    %+v\n refold %+v", step, what, p, i, got[i], want[i])
						}
					}
					// The store's own read path sees exactly the log.
					if recs := s.TierRecords(p); len(recs) != len(got) || (len(got) > 0 && recs[len(recs)-1] != got[len(got)-1]) {
						t.Fatalf("step %d (%s) tier %g: TierRecords returns %d buckets, log holds %d", step, what, p, len(recs), len(got))
					}
					total += len(got)
				}
				checked = total
				if h := s.Health(); h.TierRecords != total {
					t.Fatalf("step %d (%s): Health.TierRecords = %d, logs hold %d", step, what, h.TierRecords, total)
				}
			}

			for step := 0; step < 250; step++ {
				what, caughtUp := "", false
				switch k := rng.Intn(10); {
				case k < 4:
					what = "append"
					if rng.Intn(6) == 0 {
						tick += rng.Intn(40) // an idle stretch: shifts blocks against bucket edges
					}
					for n := 1 + rng.Intn(50); n > 0; n-- {
						appendOne()
					}
				case k == 4:
					what = "schema change"
					tioga = !tioga
					appendOne()
				case k < 7:
					what, caughtUp = "maintain", true
					if gc {
						s.mu.Lock()
						s.cfg.RetainBytes = s.blockBytes / 2
						s.mu.Unlock()
					}
					if err := s.Maintain(float64(10 + 2*tick)); err != nil {
						t.Fatal(err)
					}
				case k == 7:
					what = "crash"
					reopen(nil)
				case k == 8:
					what = "seal then crash"
					for n := len(sealed); len(sealed) == n; {
						appendOne()
					}
					reopen(nil)
				default:
					what = "torn tier log"
					if gc {
						continue
					}
					path := filepath.Join(dir, "tier-60.log")
					if fi, err := os.Stat(path); err == nil && fi.Size() > 40 {
						reopen(func() {
							if err := os.Truncate(path, fi.Size()-int64(1+rng.Intn(40))); err != nil {
								t.Fatal(err)
							}
						})
					}
				}
				check(step, what, caughtUp)
			}
			if err := s.Maintain(float64(10 + 2*tick)); err != nil {
				t.Fatal(err)
			}
			check(250, "final maintain", true)
			if got := len(readTierLog(t, dir, 60)); got < 50 {
				t.Fatalf("run too short to mean anything: %d buckets", got)
			}
			if gc && math.IsInf(s.LostBeforeSec(), -1) {
				t.Fatal("GC never deleted a block")
			}
		})
	}
}

// TestPrimingBlockSurvivesGC pins the case the oracle above only meets
// by chance: a block boundary that falls exactly on a bucket boundary.
// The first bucket after it takes its opening trapezoid segment from the
// last sample of the block before, so GC has to leave that block for the
// next Open to prime from.
func TestPrimingBlockSurvivesGC(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.BlockSamples = 30 // 60 s of samples: with ts = 2i every block starts on a bucket edge
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var all []variorum.NodePower
	for i := 0; i < 30*8; i++ {
		p := mkSample(i)
		p.Timestamp = float64(2 * i)
		all = append(all, p)
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	s.cfg.RetainBytes = 1 // delete everything GC is allowed to
	s.mu.Unlock()
	if err := s.Maintain(1000); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.SealedBlocks != 2 {
		t.Fatalf("%d blocks retained, want the newest and its priming block", h.SealedBlocks)
	}
	s.Crash()
	if s, err = Open(dir, cfg); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 30 * 8; i < 30*10; i++ {
		p := mkSample(i)
		p.Timestamp = float64(2 * i)
		all = append(all, p)
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Maintain(1000); err != nil {
		t.Fatal(err)
	}
	want, got := refold(all, 60), s.TierRecords(60)
	if len(got) != len(want) {
		t.Fatalf("%d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d after GC and reopen:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

// TestMaintainIdleTouchesNoBlocks: once the tier logs have caught up, a
// maintenance pass that follows fresh appends but no new seal reads no
// block file — every block is moved out of reach and the pass still
// succeeds — and allocates a small constant, whatever the block size.
func TestMaintainIdleTouchesNoBlocks(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.BlockSamples = 512
	cfg.SyncEvery = 1 << 20 // only Maintain syncs
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	next := len(appendN(t, s, 1100, 0)) // two blocks sealed, 76 samples in the head
	if err := s.Maintain(float64(2 * next)); err != nil {
		t.Fatal(err)
	}
	before := s.TierRecords(60)
	if len(before) == 0 {
		t.Fatal("no tier records to have caught up with")
	}
	blocks, err := filepath.Glob(filepath.Join(dir, "blk-*.blk"))
	if err != nil || len(blocks) != 2 {
		t.Fatalf("blocks on disk: %v (%v)", blocks, err)
	}
	aside := filepath.Join(dir, "aside")
	if err := os.Mkdir(aside, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := os.Rename(b, filepath.Join(aside, filepath.Base(b))); err != nil {
			t.Fatal(err)
		}
	}

	samples := make([]variorum.NodePower, 0, 5*64)
	for i := 0; i < cap(samples); i++ {
		samples = append(samples, mkSample(next+i))
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() { // 51 passes × 5 appends stay inside the head
		for k := 0; k < 5; k++ {
			if err := s.Append(samples[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if err := s.Maintain(samples[i-1].Timestamp); err != nil {
			t.Fatalf("Maintain with no new seal touched a block: %v", err)
		}
	})
	// Five appends marshal five samples and regrow the WAL's pending
	// buffer; the pass itself adds nothing that scales with a block.
	if allocs > 40 {
		t.Fatalf("5 appends + idle Maintain allocate %v times, want a small constant", allocs)
	}
	if idle := testing.AllocsPerRun(20, func() { _ = s.Maintain(samples[i-1].Timestamp) }); idle != 0 {
		t.Fatalf("Maintain with nothing new allocates %v times, want 0", idle)
	}
	if h := s.Health(); h.UnsyncedSamples != 0 || h.SealedBlocks != 2 {
		t.Fatalf("after idle passes: %+v", h)
	}
	if after := s.TierRecords(60); len(after) != len(before) {
		t.Fatalf("idle passes changed the tier log: %d -> %d buckets", len(before), len(after))
	}
}

// tierWindows is the boundary table of TestSelectTierBoundaries,
// extended with windows whose edges sit on and beside resident index
// entries, where the disk-backed read switches byte ranges.
func tierWindows(recs []variorum.Bucket) [][2]float64 {
	first, last := recs[0], recs[len(recs)-1]
	w := [][2]float64{
		{recs[1].StartSec + 1, recs[1].EndSec - 1},
		{recs[1].StartSec, recs[1].EndSec},
		{recs[1].EndSec, recs[3].EndSec - 1},
		{recs[1].StartSec + 1, recs[3].StartSec},
		{math.Inf(-1), math.Inf(1)},
		{first.StartSec - 1000, first.StartSec - 1},
		{last.EndSec, last.EndSec + 1000},
		{last.StartSec, last.StartSec},
		{recs[5].StartSec, recs[2].StartSec}, // inverted
	}
	w = append(w, [2]float64{recs[len(recs)/3].StartSec + 1, recs[2*len(recs)/3].StartSec + 1})
	for i := tierIndexEvery; i < len(recs); i += tierIndexEvery {
		e := recs[i]
		w = append(w,
			[2]float64{e.StartSec, e.StartSec},
			[2]float64{e.StartSec - 1, e.StartSec - 1},
			[2]float64{e.StartSec - 1, e.StartSec},
			[2]float64{recs[i-1].EndSec, e.EndSec},
			[2]float64{recs[i-2].StartSec + 1, e.StartSec + 1},
		)
	}
	return w
}

// checkSelectTier compares the disk-backed SelectTier with the plain
// in-memory filter over ref on every window of the table.
func checkSelectTier(t *testing.T, s *Store, period float64, ref []variorum.Bucket, when string) {
	t.Helper()
	for _, w := range tierWindows(ref) {
		var want []variorum.Bucket
		for _, r := range ref {
			if r.EndSec > w[0] && r.StartSec <= w[1] {
				want = append(want, r)
			}
		}
		got := s.SelectTier(period, w[0], w[1])
		if len(got) != len(want) {
			t.Fatalf("%s: window [%v, %v]: %d buckets, want %d", when, w[0], w[1], len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: window [%v, %v] bucket %d = %+v, want %+v", when, w[0], w[1], i, got[i], want[i])
			}
		}
	}
}

// TestTierResidentStateBounded: what the store keeps in memory per tier
// is one index entry per tierIndexEvery buckets, from N buckets to 8N,
// and the windowed read over the log agrees with the in-memory filter —
// live, across reopen, and across a torn tail.
func TestTierResidentStateBounded(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.TierPeriodsSec = []float64{4} // two samples a bucket: many buckets, quickly
	cfg.BlockSamples, cfg.SyncEvery = 100, 1<<20
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	const n = 100
	var all []variorum.NodePower
	grow := func(buckets int) []variorum.Bucket {
		all = append(all, appendN(t, s, 2*buckets-len(all), len(all))...)
		if err := s.Maintain(all[len(all)-1].Timestamp); err != nil {
			t.Fatal(err)
		}
		sealed := all[:len(all)-len(all)%cfg.BlockSamples]
		return expectedTiers(sealed, 4)
	}
	resident := func(buckets int) {
		t.Helper()
		tr := s.tier(4)
		if tr.count != buckets {
			t.Fatalf("tier counts %d buckets, want %d", tr.count, buckets)
		}
		if want := (buckets + tierIndexEvery - 1) / tierIndexEvery; len(tr.index) != want {
			t.Fatalf("%d resident index entries for %d buckets, want %d", len(tr.index), buckets, want)
		}
	}

	ref := grow(n)
	resident(len(ref))
	checkSelectTier(t, s, 4, ref, "N buckets")
	small := len(s.tier(4).index)

	ref = grow(8 * n)
	resident(len(ref))
	if grew := len(s.tier(4).index) - small; grew > (len(ref)+tierIndexEvery-1)/tierIndexEvery {
		t.Fatalf("index grew by %d entries for %d buckets", grew, len(ref))
	}
	checkSelectTier(t, s, 4, ref, "8N buckets")

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, cfg); err != nil {
		t.Fatal(err)
	}
	resident(len(ref))
	checkSelectTier(t, s, 4, ref, "after reopen")

	// Tear the tail mid-frame: recovery keeps the clean prefix, and the
	// next pass regenerates the lost bucket from the blocks still there.
	s.Crash()
	path := filepath.Join(dir, "tier-4.log")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, cfg); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.TornRecords != 1 {
		t.Fatalf("TornRecords = %d, want 1", h.TornRecords)
	}
	resident(len(ref) - 1)
	checkSelectTier(t, s, 4, ref[:len(ref)-1], "torn tail")
	if err := s.Maintain(all[len(all)-1].Timestamp); err != nil {
		t.Fatal(err)
	}
	resident(len(ref))
	checkSelectTier(t, s, 4, ref, "torn tail regenerated")
}

// TestTierLogUndecodableFrameKeepsPrefix: a frame with a good CRC whose
// payload is not a variorum.Bucket cuts the log back to the buckets before it.
// Recovery does that by truncating to the frame boundary — it never
// rewrites the bytes it keeps and leaves no temporary file — so a crash
// at any point of it leaves the good prefix on disk; a second Open is a
// fixed point.
func TestTierLogUndecodableFrameKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, s, 1000, 0)
	if err := s.Maintain(want[len(want)-1].Timestamp); err != nil {
		t.Fatal(err)
	}
	recs := s.TierRecords(60)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "tier-60.log")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads, _, _ := splitFrames(orig)
	keep := 10
	var prefix []byte
	for _, p := range payloads[:keep] {
		prefix = appendFrame(prefix, p)
	}
	bad := appendFrame(append([]byte(nil), prefix...), []byte(`{"start_sec":"not a number"}`))
	for _, p := range payloads[keep:] {
		bad = appendFrame(bad, p)
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	for pass := 1; pass <= 2; pass++ {
		s, err := Open(dir, cfg)
		if err != nil {
			t.Fatalf("open %d: %v", pass, err)
		}
		got := s.TierRecords(60)
		if len(got) != keep {
			t.Fatalf("open %d: %d buckets, want the %d before the bad frame", pass, len(got), keep)
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("open %d: bucket %d = %+v, want %+v", pass, i, got[i], recs[i])
			}
		}
		s.Crash() // no Maintain: the log must stay as recovery left it
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, prefix) {
			t.Fatalf("open %d: log is %d bytes, want the untouched %d-byte prefix", pass, len(onDisk), len(prefix))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if n := e.Name(); n != "meta.json" && n != "tier-60.log" && filepath.Ext(n) != ".blk" && filepath.Ext(n) != ".log" {
				t.Fatalf("open %d left %s behind", pass, n)
			}
		}
	}

	// The blocks are all still there, so the next pass regenerates every
	// bucket the bad frame cost.
	s, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Maintain(want[len(want)-1].Timestamp); err != nil {
		t.Fatal(err)
	}
	if got := s.TierRecords(60); len(got) != len(recs) || got[len(got)-1] != recs[len(recs)-1] {
		t.Fatalf("regenerated %d buckets, want %d", len(got), len(recs))
	}
}
