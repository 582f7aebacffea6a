// Package ringbuf implements a generic bounded circular buffer with
// binary-searched window reads over a non-decreasing key. The
// flux-power-monitor node agent keeps its downsampled archive tiers in
// it, one bucket per slot, and the power manager each rank's recent cap
// acknowledgements. (The agent's full-rate sample ring is a columnar
// ring of its own in internal/core/powermon, which stores no pointers.)
//
// A ring's capacity is a bound, not a footprint: its backing array starts
// empty and doubles as elements arrive, clamped at the capacity. Once
// full, the ring wraps and evicts the oldest elements; a tier query that
// reaches past the evicted region is reported as a *partial* data set,
// the completeness flag the monitor's CSV output carries.
package ringbuf

import (
	"fmt"
	"sort"
)

// Ring is a generic bounded circular buffer. The zero value is not
// usable; construct with New. Ring is not safe for concurrent use: in the
// simulation every ring is owned by a single node agent.
type Ring[T any] struct {
	// buf is the backing array. Until it reaches capacity the ring has
	// never wrapped in it: the live elements are buf[:length], oldest
	// first, and grow moves them into a larger array when it fills.
	buf      []T
	capacity int
	head     int    // index of the slot the next Push writes
	length   int    // number of live elements, <= capacity
	evicted  uint64 // total elements overwritten since creation
}

// New returns a ring holding at most capacity elements. It panics on a
// non-positive capacity, which would make every Push evict its own value.
// Nothing is allocated until the first Push.
func New[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("ringbuf: capacity %d must be positive", capacity))
	}
	return &Ring[T]{capacity: capacity}
}

// grow moves the live elements into a backing array of room for at least
// need of them: double the current one, at most the capacity. It is only
// called while the backing array is below capacity, so the ring has not
// wrapped in it.
func (r *Ring[T]) grow(need int) {
	buf := make([]T, min(max(need, 2*len(r.buf)), r.capacity))
	copy(buf, r.buf[:r.length])
	r.buf, r.head = buf, r.length
}

// Push appends v, evicting the oldest element when full. It reports whether
// an eviction occurred.
func (r *Ring[T]) Push(v T) (evictedOld bool) {
	if r.length == len(r.buf) && r.length < r.capacity {
		r.grow(r.length + 1)
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	if r.length < r.capacity {
		r.length++
		return false
	}
	r.evicted++
	return true
}

// PushAll appends vs in order, evicting the oldest elements as needed,
// and returns how many evictions occurred. It is observationally
// equivalent to calling Push on every element — same live elements, same
// order, same Evicted count — but costs at most one growth and two copy
// calls instead of one modulo-indexed store per element.
func (r *Ring[T]) PushAll(vs []T) (evicted int) {
	k := len(vs)
	if k == 0 {
		return 0
	}
	if need := min(r.length+k, r.capacity); need > len(r.buf) {
		r.grow(need)
	}
	n := len(r.buf)
	if k >= n {
		// Only the newest n inputs survive; everything previously live and
		// every older input is evicted.
		evicted = r.length + k - n
		copy(r.buf, vs[k-n:])
		r.head = 0
		r.length = n
		r.evicted += uint64(evicted)
		return evicted
	}
	if over := r.length + k - n; over > 0 {
		evicted = over
	}
	m := copy(r.buf[r.head:], vs)
	copy(r.buf, vs[m:])
	r.head = (r.head + k) % n
	r.length += k - evicted
	r.evicted += uint64(evicted)
	return evicted
}

// Len returns the number of live elements.
func (r *Ring[T]) Len() int { return r.length }

// Cap returns the ring's capacity: the most elements it will hold.
func (r *Ring[T]) Cap() int { return r.capacity }

// Evicted returns the total number of elements overwritten since creation.
func (r *Ring[T]) Evicted() uint64 { return r.evicted }

// At returns the i-th oldest live element (0 = oldest). It panics when i is
// out of [0, Len()).
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.length {
		panic(fmt.Sprintf("ringbuf: index %d out of range [0,%d)", i, r.length))
	}
	start := (r.head - r.length + len(r.buf)) % len(r.buf)
	return r.buf[(start+i)%len(r.buf)]
}

// Oldest returns the oldest live element. ok is false when empty.
func (r *Ring[T]) Oldest() (v T, ok bool) {
	if r.length == 0 {
		return v, false
	}
	return r.At(0), true
}

// IndexRange returns the half-open index interval [lo, hi) of live
// elements whose key falls inside [min, max], assuming key is
// non-decreasing over the live elements (oldest to newest) — true for
// the monitor's monotonic sample timestamps. Both bounds are found by
// binary search, so a window query costs O(log n + matches) instead of
// an O(n) scan.
func (r *Ring[T]) IndexRange(min, max float64, key func(T) float64) (lo, hi int) {
	lo = sort.Search(r.length, func(i int) bool { return key(r.At(i)) >= min })
	hi = lo + sort.Search(r.length-lo, func(i int) bool { return key(r.At(lo+i)) > max })
	return lo, hi
}

// span returns the live elements with indices [lo, hi) in place, oldest
// first: the part before the backing array's wrap seam in a and the
// rest in b. It requires 0 <= lo <= hi <= Len().
func (r *Ring[T]) span(lo, hi int) (a, b []T) {
	if hi <= lo {
		return nil, nil
	}
	n := len(r.buf)
	first := (r.head - r.length + n) % n // backing index of the oldest
	from, to := first+lo, first+hi
	switch {
	case to <= n:
		return r.buf[from:to], nil
	case from >= n:
		return r.buf[from-n : to-n], nil
	}
	return r.buf[from:], r.buf[:to-n]
}

// SelectRange returns a copy of the live elements whose key falls inside
// [min, max], oldest first, assuming key is non-decreasing over the live
// elements. It is the monitor's timestamp-window query for callers that
// keep the window; a caller that only folds it should use ScanRange,
// which visits the same elements without the copy.
func (r *Ring[T]) SelectRange(min, max float64, key func(T) float64) []T {
	a, b := r.span(r.IndexRange(min, max, key))
	if len(a) == 0 {
		return nil
	}
	return append(append(make([]T, 0, len(a)+len(b)), a...), b...)
}

// ScanRange calls fn on every live element SelectRange would return, in
// the same order (oldest first), in place: the pointer addresses the
// ring's own slot, so fn must neither keep it past the call nor modify
// the element's key. Nothing is copied or allocated, which is what lets
// a window aggregate fold a 100k-sample ring without materialising it.
// Like every Ring method it needs the owner's synchronisation: a
// concurrent Push may overwrite the slot fn is reading.
func (r *Ring[T]) ScanRange(min, max float64, key func(T) float64, fn func(*T)) {
	a, b := r.span(r.IndexRange(min, max, key))
	for i := range a {
		fn(&a[i])
	}
	for i := range b {
		fn(&b[i])
	}
}

// Reset discards all live elements. Capacity, eviction count and the
// backing array persist, so refilling a reset ring does not grow it
// again.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.head = 0
	r.length = 0
}
