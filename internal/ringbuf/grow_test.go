package ringbuf

import (
	"math/rand"
	"slices"
	"testing"
)

// eager is the reference ring: the whole capacity allocated up front and
// every element written by one modulo-indexed store, which is what Ring
// did before it grew on demand.
type eager[T any] struct {
	buf     []T
	head    int
	length  int
	evicted uint64
}

func newEager[T any](capacity int) *eager[T] { return &eager[T]{buf: make([]T, capacity)} }

func (e *eager[T]) push(v T) (evictedOld bool) {
	e.buf[e.head] = v
	e.head = (e.head + 1) % len(e.buf)
	if e.length < len(e.buf) {
		e.length++
		return false
	}
	e.evicted++
	return true
}

func (e *eager[T]) at(i int) T { return e.buf[(e.head-e.length+len(e.buf)+i)%len(e.buf)] }

func (e *eager[T]) reset() {
	clear(e.buf)
	e.head, e.length = 0, 0
}

// TestGrowMatchesEager is the differential test for growing on demand:
// seeded random sequences of Push, PushAll and Reset run against the
// on-demand ring and the eager reference, which must agree after every
// step on Len, Cap, Evicted, Oldest, every At and SelectRange windows.
// Every capacity's sequence includes a PushAll that starts below the
// capacity and ends past it.
func TestGrowMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	key := func(v int) float64 { return float64(v) }
	for _, capacity := range []int{1, 2, 3, 5, 8, 33, 100, 1000} {
		r, ref := New[int](capacity), newEager[int](capacity)
		next, crossed := 0, 0 // values count up, so keys are monotonic
		for step := 0; step < 400; step++ {
			what := "Push"
			switch op := rng.Intn(10); {
			case op < 6:
				if got, want := r.Push(next), ref.push(next); got != want {
					t.Fatalf("cap %d step %d: Push evicted=%v, eager %v", capacity, step, got, want)
				}
				next++
			case op < 9:
				what = "PushAll"
				batch := make([]int, rng.Intn(2*capacity+2))
				for i := range batch {
					batch[i] = next
					next++
				}
				if r.Len() < capacity && r.Len()+len(batch) > capacity {
					crossed++
				}
				want := 0
				for _, v := range batch {
					if ref.push(v) {
						want++
					}
				}
				if got := r.PushAll(batch); got != want {
					t.Fatalf("cap %d step %d: PushAll evicted %d, eager %d", capacity, step, got, want)
				}
			default:
				what = "Reset"
				r.Reset()
				ref.reset()
			}
			if r.Len() != ref.length || r.Cap() != len(ref.buf) || r.Evicted() != ref.evicted {
				t.Fatalf("cap %d step %d (%s): len/cap/evicted %d/%d/%d, eager %d/%d/%d", capacity, step, what,
					r.Len(), r.Cap(), r.Evicted(), ref.length, len(ref.buf), ref.evicted)
			}
			if len(r.buf) > capacity {
				t.Fatalf("cap %d step %d (%s): backing array of %d exceeds the capacity", capacity, step, what, len(r.buf))
			}
			oldest, ok := r.Oldest()
			if ok != (ref.length > 0) || (ok && oldest != ref.at(0)) {
				t.Fatalf("cap %d step %d (%s): Oldest = %d,%v", capacity, step, what, oldest, ok)
			}
			want := make([]int, ref.length)
			for i := range want {
				want[i] = ref.at(i)
				if got := r.At(i); got != want[i] {
					t.Fatalf("cap %d step %d (%s): At(%d) = %d, eager %d", capacity, step, what, i, got, want[i])
				}
			}
			for j := 0; j < 3; j++ {
				lo := float64(rng.Intn(next+2) - 1)
				hi := lo + float64(rng.Intn(capacity+2))
				var in []int
				for _, v := range want {
					if key(v) >= lo && key(v) <= hi {
						in = append(in, v)
					}
				}
				if got := r.SelectRange(lo, hi, key); !slices.Equal(got, in) {
					t.Fatalf("cap %d step %d (%s): SelectRange(%v, %v) = %v, eager %v", capacity, step, what, lo, hi, got, in)
				}
			}
		}
		if crossed == 0 {
			t.Fatalf("cap %d: no PushAll crossed the capacity", capacity)
		}
	}
}

// TestGrowAllocatesOnDemand pins the footprint: a new ring holds no
// backing array, a partly filled one at most twice what it holds, and a
// full one exactly its capacity.
func TestGrowAllocatesOnDemand(t *testing.T) {
	r := New[int](1000)
	if r.buf != nil {
		t.Fatalf("New allocated %d slots", len(r.buf))
	}
	for i := 1; i <= 1000; i++ {
		r.Push(i)
		if len(r.buf) > 2*i {
			t.Fatalf("%d pushes: backing array of %d", i, len(r.buf))
		}
	}
	r.Push(1001)
	if len(r.buf) != 1000 {
		t.Fatalf("full ring: backing array of %d, want 1000", len(r.buf))
	}
}
