package tsdb

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fluxpower/internal/variorum"
)

// blockStore opens a store of 250-sample blocks (500 s at mkSample's 2 s
// cadence) holding n samples.
func blockStore(tb testing.TB, n int) *Store {
	tb.Helper()
	s, err := Open(tb.TempDir(), Config{BlockSamples: 250})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Append(mkSample(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// A durable read costs what its window holds, not what its blocks hold:
// a 10-row and a 240-row window inside one block allocate alike, and a
// handful of times per overlapping block.
func TestSelectRangeAllocsFollowBlocks(t *testing.T) {
	s := blockStore(t, 1100) // four blocks and a 100-sample head
	defer s.Close()
	allocs := func(lo, hi, rows int) float64 {
		min, max := mkSample(lo).Timestamp, mkSample(hi).Timestamp
		return testing.AllocsPerRun(20, func() {
			got, err := s.SelectRange(min, max)
			if err != nil || len(got) != rows {
				t.Fatalf("SelectRange: %d rows, %v; want %d", len(got), err, rows)
			}
		})
	}
	narrow := allocs(300, 309, 10)
	wide := allocs(255, 494, 240)
	if narrow != wide || wide > 10 {
		t.Fatalf("allocs per read: 10 rows %v, 240 rows %v; want equal and at most 10", narrow, wide)
	}
	if two := allocs(400, 599, 200); two > 2*10 {
		t.Fatalf("a window over two blocks allocates %v times, want at most 20", two)
	}
}

// Every sample SelectRange returns owns its channel slices, capped so
// that appending to one cannot reach another: head rows no longer alias
// the store's head, and block rows no longer share the scan's view.
func TestSelectRangeOwnsSamples(t *testing.T) {
	s := blockStore(t, 300) // one block and a 50-sample head
	defer s.Close()
	var want []variorum.NodePower
	for i := 0; i < 300; i++ {
		want = append(want, mkSample(i))
	}
	got, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		p := &got[i]
		for _, ch := range [][]float64{p.SocketCPUWatts, p.SocketMemWatts, p.SocketGPUWatts, p.GPUWatts} {
			if len(ch) != cap(ch) {
				t.Fatalf("sample %d: channel len %d cap %d", i, len(ch), cap(ch))
			}
			for j := range ch {
				ch[j] = -1
			}
		}
	}
	again, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, again, want)
	for i := 1; i < len(again); i++ {
		if &again[i].GPUWatts[0] == &again[i-1].GPUWatts[0] {
			t.Fatalf("samples %d and %d share a channel slice", i-1, i)
		}
	}
}

// A head replayed from the WAL is not shape-checked the way Append checks
// it: a WAL holding a Tioga-shaped run and then a wider Lassen-shaped
// record still reads back whole, without overrunning the head's slab.
func TestSelectRangeMixedShapeWALHead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{BlockSamples: 250, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want []variorum.NodePower
	for i := 0; i < 5; i++ {
		want = append(want, mkTiogaSample(i))
		if err := s.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("WAL segments: %d, %v", len(segs), err)
	}
	want = append(want, mkSample(5))
	payload, err := json.Marshal(want[5])
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(appendFrame(nil, payload)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Config{BlockSamples: 250})
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

// scanMatchesFilter requires scanBlock over [min, max] to hand fn, in
// order and bit for bit, exactly the rows of decode-then-filter, and to
// tell fn the window's row count on every call.
func scanMatchesFilter(t *testing.T, img []byte, all []variorum.NodePower, min, max float64) {
	t.Helper()
	var want []variorum.NodePower
	for _, p := range all {
		if inWindow(p.Timestamp, min, max) {
			want = append(want, p)
		}
	}
	k := 0
	_, err := scanBlock(img, min, max, func(n int, p variorum.NodePower) {
		if n != len(want) || k >= len(want) || !bitsEqual(p, want[k]) {
			t.Fatalf("[%v, %v]: row %d (n=%d) differs from decode-then-filter's %d rows", min, max, k, n, len(want))
		}
		k++
	})
	if err != nil || k != len(want) {
		t.Fatalf("[%v, %v]: scanned %d rows, err %v; want %d", min, max, k, err, len(want))
	}
}

func TestScanBlockMatchesDecodeThenFilter(t *testing.T) {
	var samples []variorum.NodePower
	for i := 0; i < 100; i++ {
		p := mkTiogaSample(i)
		if i%17 == 5 { // Append does not enforce order
			p.Timestamp = 10 + float64((i*37)%100)*2
		}
		samples = append(samples, p)
	}
	samples[42].Timestamp = math.NaN()
	img, err := encodeBlock(samples)
	if err != nil {
		t.Fatal(err)
	}
	_, all, err := decodeBlock(img)
	if err != nil || len(all) != len(samples) {
		t.Fatalf("decodeBlock: %d rows, %v", len(all), err)
	}
	inf := math.Inf(1)
	for _, w := range [][2]float64{
		{-inf, inf}, {1, 0}, {-inf, 9}, {208, inf}, {10, 10}, {50, 70}, {31, 129}, {-inf, 100},
	} {
		scanMatchesFilter(t, img, all, w[0], w[1])
	}
}

// A stray file named like a block but larger than any block can be is
// dropped at Open by its size, without being read.
func TestOpenDropsOversizedBlockFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, blockName(0))
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, maxBlockBytes+1<<20); err != nil { // sparse
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Open(dir, Config{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if h := s.Health(); h.DroppedBlocks != 1 || h.SealedBlocks != 0 {
		t.Fatalf("health after a 65 MB block file: %+v", h)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("Open allocated %d bytes over an oversized block file, want under 1 MB", d)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("oversized block file still on disk: %v", err)
	}
}
