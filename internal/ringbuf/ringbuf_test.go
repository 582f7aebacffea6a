package ringbuf

import (
	"slices"
	"testing"
	"testing/quick"
)

// scan is the brute-force window oracle: every live element whose key is
// inside [min, max], oldest first, read one at a time through At.
func scan[T any](r *Ring[T], min, max float64, key func(T) float64) []T {
	var out []T
	for i := 0; i < r.Len(); i++ {
		if k := key(r.At(i)); k >= min && k <= max {
			out = append(out, r.At(i))
		}
	}
	return out
}

func TestPushAndLen(t *testing.T) {
	r := New[int](3)
	if r.Len() != 0 || r.Cap() != 3 {
		t.Fatalf("fresh ring Len=%d Cap=%d", r.Len(), r.Cap())
	}
	for i := 1; i <= 3; i++ {
		if r.Push(i) {
			t.Fatalf("Push(%d) evicted before full", i)
		}
		if r.Len() != i {
			t.Fatalf("Len=%d after %d pushes", r.Len(), i)
		}
	}
}

func TestEvictionOrder(t *testing.T) {
	r := New[int](3)
	for i := 1; i <= 5; i++ {
		r.Push(i)
	}
	if r.Len() != 3 {
		t.Fatalf("Len=%d after wrap, want 3", r.Len())
	}
	if r.Evicted() != 2 {
		t.Fatalf("Evicted=%d, want 2", r.Evicted())
	}
	want := []int{3, 4, 5}
	for i, w := range want {
		if got := r.At(i); got != w {
			t.Fatalf("At(%d)=%d, want %d", i, got, w)
		}
	}
}

func TestOldestNewest(t *testing.T) {
	r := New[string](2)
	if _, ok := r.Oldest(); ok {
		t.Fatal("Oldest ok on empty ring")
	}
	r.Push("a")
	r.Push("b")
	r.Push("c")
	if v, _ := r.Oldest(); v != "b" {
		t.Fatalf("Oldest=%q, want b", v)
	}
	if v := r.At(r.Len() - 1); v != "c" {
		t.Fatalf("newest=%q, want c", v)
	}
}

func TestSelectRangeIsCopy(t *testing.T) {
	r := New[int](2)
	r.Push(1)
	r.Push(2)
	s := r.SelectRange(0, 10, func(v int) float64 { return float64(v) })
	r.Push(3) // overwrites the slot that held 1
	if len(s) != 2 || s[0] != 1 || s[1] != 2 {
		t.Fatalf("selection aliases the ring: %v", s)
	}
}

func TestSelectWindow(t *testing.T) {
	r := New[int](10)
	for i := 0; i < 10; i++ {
		r.Push(i)
	}
	got := r.SelectRange(3, 6, func(v int) float64 { return float64(v) })
	want := []int{3, 4, 5, 6}
	if !slices.Equal(got, want) {
		t.Fatalf("SelectRange=%v, want %v", got, want)
	}
}

func TestReset(t *testing.T) {
	r := New[int](3)
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len=%d after Reset", r.Len())
	}
	if r.Evicted() != 2 {
		t.Fatalf("Reset cleared eviction count: %d", r.Evicted())
	}
	r.Push(42)
	if v, _ := r.Oldest(); v != 42 {
		t.Fatalf("push after reset: %d", v)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	r := New[int](2)
	r.Push(1)
	for _, idx := range []int{-1, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) did not panic", idx)
				}
			}()
			r.At(idx)
		}()
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d) did not panic", c)
				}
			}()
			New[int](c)
		}()
	}
}

// Property: after any sequence of pushes into a ring of capacity c, the
// ring holds exactly the last min(n, c) values in push order.
func TestQuickRingHoldsSuffix(t *testing.T) {
	f := func(values []int, capRaw uint8) bool {
		c := int(capRaw%32) + 1
		r := New[int](c)
		for _, v := range values {
			r.Push(v)
		}
		n := len(values)
		wantLen := n
		if wantLen > c {
			wantLen = c
		}
		if r.Len() != wantLen {
			return false
		}
		for i := 0; i < wantLen; i++ {
			if r.At(i) != values[n-wantLen+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Evicted() always equals max(0, pushes - capacity).
func TestQuickEvictionCount(t *testing.T) {
	f := func(n uint16, capRaw uint8) bool {
		c := int(capRaw%64) + 1
		r := New[struct{}](c)
		for i := 0; i < int(n%2048); i++ {
			r.Push(struct{}{})
		}
		pushes := uint64(n % 2048)
		want := uint64(0)
		if pushes > uint64(c) {
			want = pushes - uint64(c)
		}
		return r.Evicted() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectRangeMatchesSelect(t *testing.T) {
	key := func(v float64) float64 { return v }
	r := New[float64](64)
	// Wrapped ring: keys 36..99 survive, monotonic oldest-to-newest.
	for i := 0; i < 100; i++ {
		r.Push(float64(i))
	}
	cases := [][2]float64{
		{40, 50},     // interior window
		{0, 36},      // clipped at the oldest survivor
		{99, 200},    // clipped at the newest
		{-10, 1000},  // whole ring
		{50.5, 50.9}, // empty: between samples
		{200, 300},   // empty: past the end
		{0, 10},      // empty: fully evicted
	}
	for _, c := range cases {
		want := scan(r, c[0], c[1], key)
		got := r.SelectRange(c[0], c[1], key)
		if len(want) != len(got) {
			t.Fatalf("window [%v,%v]: Select %d elements, SelectRange %d", c[0], c[1], len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("window [%v,%v][%d]: %v vs %v", c[0], c[1], i, want[i], got[i])
			}
		}
	}
}

// TestScanRangeInPlace: ScanRange hands out the ring's own slots —
// across the wrap seam, oldest first — and allocates nothing, which is
// the whole reason it exists next to SelectRange.
func TestScanRangeInPlace(t *testing.T) {
	key := func(v float64) float64 { return v }
	r := New[float64](8)
	for i := 0; i < 13; i++ { // wrapped: keys 5..12, seam between 7 and 8
		r.Push(float64(i))
	}
	var got []float64
	var slots []*float64
	r.ScanRange(6, 10, key, func(v *float64) {
		got = append(got, *v)
		slots = append(slots, v)
	})
	if want := []float64{6, 7, 8, 9, 10}; !slices.Equal(got, want) {
		t.Fatalf("ScanRange visited %v, want %v", got, want)
	}
	for i, p := range slots {
		if p != &r.buf[(r.head-r.length+len(r.buf)+1+i)%len(r.buf)] {
			t.Fatalf("visit %d is not the ring's own slot", i)
		}
	}
	sum := 0.0
	add := func(v *float64) { sum += *v }
	if n := testing.AllocsPerRun(100, func() { r.ScanRange(0, 100, key, add) }); n != 0 {
		t.Fatalf("ScanRange allocated %v times per scan", n)
	}
	r.ScanRange(20, 30, key, func(*float64) { t.Fatal("visited an element outside the window") })
	New[float64](4).ScanRange(0, 100, key, func(*float64) { t.Fatal("visited an element of an empty ring") })
}

func TestSelectRangeEmptyRing(t *testing.T) {
	r := New[float64](8)
	if got := r.SelectRange(0, 100, func(v float64) float64 { return v }); got != nil {
		t.Fatalf("empty ring returned %v", got)
	}
}

// BenchmarkRingSelectRange pins why the window query is a binary search:
// a small time window selected out of a full 100k-sample ring, against
// the full-ring scan the monitor used to do on every collect.
func BenchmarkRingSelectRange(b *testing.B) {
	const cap = 100_000
	key := func(v float64) float64 { return v }
	r := New[float64](cap)
	for i := 0; i < cap+cap/2; i++ { // wrapped, like a long-running agent
		r.Push(float64(i))
	}
	oldest, _ := r.Oldest()
	lo, hi := oldest+float64(cap)-32, oldest+float64(cap)-1 // 30-ish recent samples
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := scan(r, lo, hi, key)
			if len(out) == 0 {
				b.Fatal("empty window")
			}
		}
	})
	b.Run("binary-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := r.SelectRange(lo, hi, key)
			if len(out) == 0 {
				b.Fatal("empty window")
			}
		}
	})
}
