package tsdb_test

import (
	"testing"
	"time"

	"fluxpower/internal/core/powermon"
	"fluxpower/internal/hw"
	"fluxpower/internal/simtime"
	"fluxpower/internal/tsdb"
	"fluxpower/internal/variorum"
)

// countWriter counts bytes without buffering them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestStoreFootprintAndRecovery ingests 20 000 samples of one Lassen
// node at the 2 s cadence, alternating job phases every 20 simulated
// minutes so the codecs see both long constant runs and value changes.
// On disk the store must take at most a quarter of the same samples as
// the paper's job CSV (powermon.WriteCSV), and a cold restart must read
// every sample back in under a second.
func TestStoreFootprintAndRecovery(t *testing.T) {
	const samples = 20_000
	node, err := hw.NewNode("store-bench", hw.LassenConfig(), 20240601)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Blocks seal every 512 samples (~17 simulated minutes), so the
	// uncompressed WAL tail stays small next to the sealed history.
	cfg := tsdb.Config{BlockSamples: 512}
	s, err := tsdb.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	phases := []hw.Demand{
		{CPUW: []float64{150, 150}, MemW: 80, GPUW: []float64{200, 200, 200, 200}},
		{CPUW: []float64{185, 170}, MemW: 95, GPUW: []float64{290, 285, 295, 280}},
		{CPUW: []float64{90, 95}, MemW: 55, GPUW: []float64{120, 130, 115, 125}},
		{CPUW: []float64{60, 60}, MemW: 40}, // idle GPUs
	}
	all := make([]variorum.NodePower, 0, samples)
	start := time.Now()
	for i := 0; i < samples; i++ {
		if i%600 == 0 {
			node.SetDemand(phases[(i/600)%len(phases)])
		}
		p := variorum.GetNodePower(node, simtime.Time(time.Duration(i)*2*time.Second))
		all = append(all, p)
		if err := s.Append(p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// One maintenance pass, as the module's timer would run it.
	if err := s.Maintain(all[len(all)-1].Timestamp); err != nil {
		t.Fatal(err)
	}
	ingestPerSec := samples / time.Since(start).Seconds()
	h := s.Health()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var csv countWriter
	if err := powermon.WriteCSV(&csv, powermon.JobPower{
		JobID: 1, App: "store-bench",
		Nodes: []powermon.NodeSamples{{Rank: 0, Hostname: node.Name(), Complete: true, Samples: all}},
	}); err != nil {
		t.Fatal(err)
	}

	rstart := time.Now()
	s2, err := tsdb.Open(dir, cfg)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	got, err := s2.All()
	if err != nil {
		t.Fatalf("recovery read: %v", err)
	}
	recoveryMs := float64(time.Since(rstart)) / float64(time.Millisecond)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	ratio := float64(h.BytesOnDisk) / float64(csv.n)
	t.Logf("%d samples: ingest %.0f/s, %d bytes on disk (%.1f per sample, %d sealed blocks) vs %d CSV bytes, ratio %.3f; recovered %d in %.1f ms",
		samples, ingestPerSec, h.BytesOnDisk, float64(h.BytesOnDisk)/samples, h.SealedBlocks,
		csv.n, ratio, len(got), recoveryMs)
	if h.BytesOnDisk <= 0 || csv.n <= 0 || ratio > 0.25 {
		t.Errorf("disk %d bytes vs CSV %d bytes: ratio %.3f, bar is 0.25", h.BytesOnDisk, csv.n, ratio)
	}
	if h.SealedBlocks < 1 {
		t.Errorf("no block sealed")
	}
	if len(got) != samples {
		t.Errorf("recovered %d of %d ingested samples", len(got), samples)
	}
	if recoveryMs >= 1000 {
		t.Errorf("cold recovery took %.1f ms, bar is < 1000 ms", recoveryMs)
	}
}
