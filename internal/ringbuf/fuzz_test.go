package ringbuf

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// FuzzSelectRange cross-checks the binary-search window query against
// the brute-force scan over At on fuzzer-chosen ring shapes: capacity,
// number of pushes (driving growth, wrap-around and eviction), key
// spacing and query window all vary. The ring starts partly filled one
// Push at a time and takes the rest of the keys in one PushAll, which
// may grow it and cross its capacity; the eager reference ring takes
// every key by Push and must end up holding the same elements. The
// property is exact agreement — SelectRange exists only as a faster
// scan for monotonic keys, and ScanRange only as SelectRange without
// the copy, so any divergence among the three is a bug.
func FuzzSelectRange(f *testing.F) {
	f.Add(int64(8), int64(5), 1.0, 3.0, int64(1))
	f.Add(int64(4), int64(16), 0.0, 100.0, int64(2)) // wrapped several times
	f.Add(int64(1), int64(3), 2.0, 2.0, int64(3))    // capacity 1, point window
	f.Add(int64(16), int64(0), 0.0, 10.0, int64(4))  // empty ring
	f.Add(int64(8), int64(8), 5.0, 1.0, int64(5))    // inverted window
	f.Add(int64(8), int64(8), -10.0, -1.0, int64(6)) // window before all keys
	f.Add(int64(8), int64(8), 1e12, 2e12, int64(7))  // window after all keys
	f.Add(int64(512), int64(4096), 100.0, 200.0, int64(8))

	f.Fuzz(func(t *testing.T, capacity, pushes int64, min, max float64, gapSeed int64) {
		if capacity <= 0 || capacity > 4096 {
			return // New panics on purpose for non-positive capacity
		}
		if pushes < 0 || pushes > 16384 {
			return
		}
		if math.IsNaN(min) || math.IsNaN(max) {
			return // a NaN window violates sort.Search's predicate contract
		}
		// Non-decreasing keys with seed-dependent spacing, including runs
		// of duplicates — the shape of monotonic sample timestamps.
		keys := make([]float64, pushes)
		key := 0.0
		for i := range keys {
			gap := float64((gapSeed+int64(i))%7) / 2 // 0, .5, 1, ... incl. repeats
			if gap < 0 {
				gap = -gap
			}
			key += gap
			keys[i] = key
		}
		r := New[float64](int(capacity))
		ref := newEager[float64](int(capacity))
		pre := int(uint64(gapSeed) % uint64(pushes+1))
		for _, k := range keys[:pre] {
			r.Push(k)
		}
		r.PushAll(keys[pre:])
		for _, k := range keys {
			ref.push(k)
		}
		if r.Len() != ref.length || r.Evicted() != ref.evicted {
			t.Fatalf("cap=%d pushes=%d split=%d: len/evicted %d/%d, eager %d/%d",
				capacity, pushes, pre, r.Len(), r.Evicted(), ref.length, ref.evicted)
		}
		for i := 0; i < ref.length; i++ {
			if r.At(i) != ref.at(i) {
				t.Fatalf("cap=%d pushes=%d split=%d: At(%d)=%v, eager %v", capacity, pushes, pre, i, r.At(i), ref.at(i))
			}
		}

		id := func(v float64) float64 { return v }
		got := r.SelectRange(min, max, id)
		want := scan(r, min, max, id)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("SelectRange disagrees with the scan:\ncap=%d pushes=%d window=[%v,%v]\nfast: %v\nscan: %v",
				capacity, pushes, min, max, got, want)
		}

		var visited []float64
		r.ScanRange(min, max, id, func(v *float64) { visited = append(visited, *v) })
		if !slices.Equal(visited, got) {
			t.Fatalf("ScanRange disagrees with SelectRange:\ncap=%d pushes=%d window=[%v,%v]\nscan:   %v\nselect: %v",
				capacity, pushes, min, max, visited, got)
		}

		lo, hi := r.IndexRange(min, max, id)
		if lo < 0 || hi < lo || hi > r.Len() {
			t.Fatalf("IndexRange out of bounds: [%d,%d) with len %d", lo, hi, r.Len())
		}
		if hi-lo != len(want) {
			t.Fatalf("IndexRange width %d != %d matches", hi-lo, len(want))
		}
	})
}
