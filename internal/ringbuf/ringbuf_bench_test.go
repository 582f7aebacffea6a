package ringbuf

import "testing"

// sample is a fixed-size record of nine float64s.
type sample struct {
	T    float64
	Vals [8]float64
}

// BenchmarkRingBufferPush measures Push into a 100,000-slot ring, the
// paper's buffer size.
func BenchmarkRingBufferPush(b *testing.B) {
	r := New[sample](100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(sample{T: float64(i)})
	}
}

// BenchmarkRingBufferSelect measures a window query: a quarter of a
// full ring selected out.
func BenchmarkRingBufferSelect(b *testing.B) {
	r := New[sample](100_000)
	for i := 0; i < 100_000; i++ {
		r.Push(sample{T: float64(i) * 2})
	}
	key := func(s sample) float64 { return s.T }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.SelectRange(100_000, 150_000, key); len(got) == 0 {
			b.Fatal("empty selection")
		}
	}
}

// BenchmarkRingBufferScan is BenchmarkRingBufferSelect's window folded
// in place: the same elements visited, none copied.
func BenchmarkRingBufferScan(b *testing.B) {
	r := New[sample](100_000)
	for i := 0; i < 100_000; i++ {
		r.Push(sample{T: float64(i) * 2})
	}
	key := func(s sample) float64 { return s.T }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		r.ScanRange(100_000, 150_000, key, func(s *sample) { sum += s.Vals[0] + 1 })
		if sum == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkRingBufferFill measures what growing on demand costs: filling
// an empty 100k ring to capacity, one Push per sample.
func BenchmarkRingBufferFill(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := New[sample](100_000)
		for j := 0; j < 100_000; j++ {
			r.Push(sample{T: float64(j)})
		}
	}
}
