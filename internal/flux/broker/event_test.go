package broker

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"fluxpower/internal/flux/msg"
	"fluxpower/internal/simtime"
)

// mapDedupe is the reference dedupe window: a set of the last
// evDedupeWindow distinct seqs to arrive, evicted in arrival order.
// seqWindow is checked against it.
type mapDedupe struct {
	seen  map[uint64]bool
	order []uint64
}

func (m *mapDedupe) admit(seq uint64) bool {
	if m.seen[seq] {
		return false
	}
	if m.seen == nil {
		m.seen = make(map[uint64]bool, evDedupeWindow)
	}
	m.seen[seq] = true
	m.order = append(m.order, seq)
	if len(m.order) > evDedupeWindow {
		delete(m.seen, m.order[0])
		m.order = m.order[1:]
	}
	return true
}

// inOrderArrivals yields n arrivals of a sequenced stream as a broker
// sees it across a reattach: seqs rise, some are dropped (gaps, now and
// then wider than the window), and some already-sent seqs less than
// reach behind the newest arrive again.
func inOrderArrivals(rng *rand.Rand, n int, reach uint64) []uint64 {
	out := make([]uint64, 0, n)
	var sent []uint64
	var high uint64
	for len(out) < n {
		switch p := rng.Float64(); {
		case p < 0.2 && high > 0:
			s := sent[len(sent)-1-rng.IntN(min(len(sent), int(reach)))]
			if high-s < reach {
				out = append(out, s)
			}
			continue
		case p < 0.21:
			high += 1 + uint64(rng.IntN(3*evDedupeWindow))
		default:
			high += 1 + uint64(rng.IntN(3)) // 0–2 dropped seqs
		}
		sent = append(sent, high)
		out = append(out, high)
	}
	return out
}

// reorderedArrivals displaces each arrival of a stream whose duplicates
// reach twice the window by up to maxShift positions.
func reorderedArrivals(rng *rand.Rand, n, maxShift int) []uint64 {
	out := inOrderArrivals(rng, n, 2*evDedupeWindow)
	for i := range out {
		j := i + rng.IntN(maxShift+1)
		if j < len(out) {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// checkDedupeAgainstMap drives seqWindow and the map reference with the
// same arrivals. The window must never drop a seq that has not arrived
// before, and for every arrival within evDedupeWindow of the high-water
// mark it must drop whatever the map drops; exact requires agreement.
// It returns how many duplicates the window dropped that the map had
// already evicted.
func checkDedupeAgainstMap(t *testing.T, arrivals []uint64, exact bool) (extra int) {
	t.Helper()
	var w seqWindow
	var ref mapDedupe
	arrived := make(map[uint64]bool, len(arrivals))
	for i, seq := range arrivals {
		inWindow := seq > w.high || w.high-seq < evDedupeWindow
		got, want := w.admit(seq), ref.admit(seq)
		if !got && !arrived[seq] {
			t.Fatalf("arrival %d: seq %d dropped on its first arrival", i, seq)
		}
		arrived[seq] = true
		if !inWindow || got == want {
			continue
		}
		if got || exact {
			t.Fatalf("arrival %d: seq %d (high %d): window fresh=%v, map fresh=%v", i, seq, w.high, got, want)
		}
		extra++
	}
	return extra
}

func TestDedupeWindowMatchesMapInOrder(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		checkDedupeAgainstMap(t, inOrderArrivals(rng, 50_000, evDedupeWindow), true)
	}
}

func TestDedupeWindowCoversMapReordered(t *testing.T) {
	extra := 0
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		extra += checkDedupeAgainstMap(t, reorderedArrivals(rng, 50_000, 64), false)
	}
	t.Logf("window dropped %d duplicates the map had already evicted", extra)
}

// countLink is a transport.Link to child rank that counts its sends.
type countLink struct {
	rank  int32
	sends atomic.Int64
}

func (l *countLink) Send(*msg.Message) error {
	l.sends.Add(1)
	return nil
}

func (l *countLink) Close() error { return nil }

// TestFloodAllocFree pins the per-event cost at a relay broker: dedupe,
// one local delivery and a flood to two children allocate nothing.
func TestFloodAllocFree(t *testing.T) {
	sched := simtime.NewScheduler()
	b, err := New(Options{Rank: 1, Size: 7, Fanout: 2, Clock: sched, Timers: sched})
	if err != nil {
		t.Fatal(err)
	}
	left, right := &countLink{rank: 3}, &countLink{rank: 4}
	b.AddChild(3, left)
	b.AddChild(4, right)
	got := 0
	b.Subscribe("alloc.test", func(*msg.Message) { got++ })
	ev, err := msg.NewEvent("alloc.test", 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		ev.Seq++
		b.Deliver(ev)
	})
	if allocs != 0 {
		t.Fatalf("flooding one event allocates %v times, want 0", allocs)
	}
	if runs := left.sends.Load(); got != int(runs) || right.sends.Load() != runs || runs == 0 {
		t.Fatalf("delivered %d locally, flooded %d and %d", got, runs, right.sends.Load())
	}
}

// TestFloodVisitsChildrenInRankOrder publishes on a 7-rank binary tree
// over synchronous links, so the delivery order is the flood's
// depth-first walk: every broker must visit its children by rank.
func TestFloodVisitsChildrenInRankOrder(t *testing.T) {
	want := []int32{0, 1, 3, 4, 2, 5, 6}
	for run := 0; run < 20; run++ {
		inst := newInstance(t, 7, 2)
		var order []int32
		for _, br := range inst.Brokers {
			rank := br.Rank()
			br.Subscribe("order.test", func(*msg.Message) { order = append(order, rank) })
		}
		if err := inst.Broker(6).Publish("order.test", nil); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(order, want) {
			t.Fatalf("run %d: delivered in order %v, want %v", run, order, want)
		}
	}
}

// TestFloodRacesChildListRebuild floods events while children are
// pruned and re-added on another goroutine. routeEvent ranges over the
// child list outside the lock, so under -race this fails if a rebuild
// ever writes the published slice in place.
func TestFloodRacesChildListRebuild(t *testing.T) {
	sched := simtime.NewScheduler()
	b, err := New(Options{Rank: 1, Size: 15, Fanout: 2, Clock: sched, Timers: sched})
	if err != nil {
		t.Fatal(err)
	}
	links := []*countLink{{rank: 3}, {rank: 4}, {rank: 7}, {rank: 8}}
	for _, l := range links {
		b.AddChild(l.rank, l)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			l := links[i%len(links)]
			b.pruneChild(l.rank)
			b.AddChild(l.rank, l)
		}
	}()
	ev, err := msg.NewEvent("race.test", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2000; seq++ {
		ev := ev.Copy()
		ev.Seq = seq
		b.Deliver(ev)
	}
	wg.Wait()
	var sends int64
	for _, l := range links {
		sends += l.sends.Load()
	}
	if sends == 0 {
		t.Fatal("no event reached a child")
	}
}
