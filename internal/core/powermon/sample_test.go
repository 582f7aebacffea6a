package powermon

import (
	"testing"
	"time"

	"fluxpower/internal/hw"
	"fluxpower/internal/simtime"
)

// TestSampleWithoutStoreAllocatesNothing pins the memory-only sampling
// path: once the raw ring and the tiers are full, reading the node and
// recording the sample allocates nothing, because the read goes into the
// module's scratch buffer and the archive copies the values.
func TestSampleWithoutStoreAllocatesNothing(t *testing.T) {
	node, err := hw.NewNode("n0", hw.LassenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{BufferSamples: 64, Tiers: []TierSpec{{Period: 10 * time.Second, Buckets: 4}}})
	now := simtime.Time(0)
	step := func() {
		now = now.Add(2 * time.Second)
		m.sample(node, now)
	}
	for i := 0; i < 200; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("a sample allocates %.1f times without a store, want 0", allocs)
	}
	if m.samples != 301 || m.arch.raw.Len() != 64 {
		t.Fatalf("%d samples recorded, raw ring holds %d; want 301 and 64", m.samples, m.arch.raw.Len())
	}
	if oldest, _ := m.arch.raw.Oldest(); oldest != now.Seconds()-63*2 {
		t.Fatalf("oldest raw sample at %v s, want %v s", oldest, now.Seconds()-63*2)
	}
}
