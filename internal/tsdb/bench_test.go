package tsdb

import (
	"testing"

	"fluxpower/internal/variorum"
)

func BenchmarkStoreAppend(b *testing.B) {
	s, err := Open(b.TempDir(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(mkSample(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreMaintainSteady is the module's maintenance timer in
// steady state: five fresh appends, then a pass, on a store that already
// holds sealed blocks. One iteration in BlockSamples/5 carries a seal
// and the tier flush that follows it; the rest must cost a WAL fsync.
func BenchmarkStoreMaintainSteady(b *testing.B) {
	s, err := Open(b.TempDir(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	n := 0
	for ; n < 2*DefaultBlockSamples+100; n++ {
		if err := s.Append(mkSample(n)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Maintain(mkSample(n).Timestamp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 5; k++ {
			if err := s.Append(mkSample(n)); err != nil {
				b.Fatal(err)
			}
			n++
		}
		if err := s.Maintain(mkSample(n).Timestamp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockEncode(b *testing.B) {
	samples := make([]variorum.NodePower, 4096)
	for i := range samples {
		samples[i] = mkSample(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeBlock(samples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockDecode(b *testing.B) {
	samples := make([]variorum.NodePower, 4096)
	for i := range samples {
		samples[i] = mkSample(i)
	}
	img, err := encodeBlock(samples)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeBlock(img); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreRecovery(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		b.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		if err := s.Append(mkSample(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Config{})
		if err != nil {
			b.Fatal(err)
		}
		all, err := s.All()
		if err != nil {
			b.Fatal(err)
		}
		if len(all) != n {
			b.Fatalf("recovered %d samples", len(all))
		}
		s.Crash() // avoid Close rewriting meta with ever-growing recoveries
	}
}
