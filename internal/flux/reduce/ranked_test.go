package reduce

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/transport"
	"fluxpower/internal/simtime"
)

// testRankBodies gives every rank r with r%3 != 1 a body naming it,
// plus one body for a rank outside the instance. want is what the echo
// reduction must report per rank: its own body, or "" for none.
func testRankBodies(size int) (bodies map[int32]json.RawMessage, want map[int32]string) {
	bodies = make(map[int32]json.RawMessage)
	want = make(map[int32]string)
	for r := int32(0); r < int32(size); r++ {
		want[r] = ""
		if r%3 == 1 {
			continue
		}
		bodies[r] = json.RawMessage(fmt.Sprintf(`{"rank":%d}`, r))
		want[r] = string(bodies[r])
	}
	bodies[int32(size)+5] = json.RawMessage(`{"rank":-1}`)
	return bodies, want
}

// checkSplit checks one rank's partition of a request carrying bodies:
// the rank keeps exactly its own entry, and each child part carries
// exactly the entries of the ranks that child currently owns.
func checkSplit(t *testing.T, r *Reducer[map[int32]string], bodies map[int32]json.RawMessage) {
	t.Helper()
	rank := r.b.Rank()
	_, own, parts, _ := r.partition(&treeRequest{RankBodies: bodies})
	if string(own) != string(bodies[rank]) {
		t.Fatalf("rank %d kept body %s, want %s", rank, own, bodies[rank])
	}
	forwarded := 0
	for _, p := range parts {
		for x, body := range p.bodies {
			if c, ok := r.b.OwningChild(x); !ok || c != p.rank {
				t.Fatalf("rank %d forwards rank %d's body to child %d, which does not own it", rank, x, p.rank)
			}
			if string(body) != string(bodies[x]) {
				t.Fatalf("rank %d forwards %s as rank %d's body, want %s", rank, body, x, bodies[x])
			}
			forwarded++
		}
	}
	owned := 0
	for x := range bodies {
		if _, ok := r.b.OwningChild(x); ok {
			owned++
		}
	}
	if forwarded != owned {
		t.Fatalf("rank %d forwards %d bodies, its subtree holds %d", rank, forwarded, owned)
	}
}

// checkEcho checks a complete echo reduction over want's ranks.
func checkEcho(t *testing.T, label string, res Result[map[int32]string], want map[int32]string) {
	t.Helper()
	if res.Partial || res.Missing != 0 || res.Ranks != len(want) {
		t.Fatalf("%s: ranks=%d missing=%d partial=%v, want %d ranks", label, res.Ranks, res.Missing, res.Partial, len(want))
	}
	if !reflect.DeepEqual(res.Aggregate, want) {
		t.Fatalf("%s: ranks saw %v, want %v", label, res.Aggregate, want)
	}
}

// TestReduceRankBodiesReachOnlyTheirRank: on 7-, 8- and 31-rank trees,
// every rank's Local sees exactly its own rank body, a rank without one
// sees none, and every hop forwards a child only its subtree's entries.
// Scoped to a target subset, untargeted ranks' bodies are not forwarded.
func TestReduceRankBodiesReachOnlyTheirRank(t *testing.T) {
	for _, tc := range []struct{ size, fanout int }{{7, 2}, {8, 2}, {31, 2}, {31, 4}} {
		label := fmt.Sprintf("size=%d k=%d", tc.size, tc.fanout)
		_, mods := simInstance(t, tc.size, tc.fanout)
		bodies, want := testRankBodies(tc.size)
		res, err := mods[0].echo.ReduceRanked(nil, nil, bodies, 0)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkEcho(t, label, res, want)
		for _, m := range mods {
			checkSplit(t, m.echo, bodies)
		}

		targets := []int32{int32(tc.size - 1), 2, 3, 0, 3}
		scoped, err := mods[0].echo.ReduceRanked(targets, nil, bodies, 0)
		if err != nil {
			t.Fatalf("%s scoped: %v", label, err)
		}
		checkEcho(t, label+" scoped", scoped, map[int32]string{
			0: want[0], 2: want[2], 3: want[3], int32(tc.size - 1): want[int32(tc.size-1)],
		})
		if targets[0] != int32(tc.size-1) || targets[4] != 3 {
			t.Fatalf("%s: ReduceRanked reordered the caller's targets: %v", label, targets)
		}
		_, _, parts, _ := mods[0].echo.partition(&treeRequest{Targets: []int32{0, 2, 3}, RankBodies: bodies})
		for _, p := range parts {
			for x := range p.bodies {
				if x != 2 && x != 3 {
					t.Fatalf("%s: untargeted rank %d's body forwarded to child %d", label, x, p.rank)
				}
			}
		}
	}
}

// TestReduceRankBodiesAfterHeal: once a crashed interior rank's orphans
// have reattached elsewhere, rank bodies follow the healed topology:
// every surviving rank still sees exactly its own body, and the crashed
// rank is counted missing.
func TestReduceRankBodiesAfterHeal(t *testing.T) {
	const size = 15
	const crashed = 3 // parent 1, children 7,8
	var dead atomic.Bool
	sched := simtime.NewScheduler()
	inst, err := broker.NewInstance(broker.InstanceOptions{
		Size:      size,
		Fanout:    2,
		Scheduler: sched,
		Heal:      &broker.HealConfig{Interval: 100 * time.Millisecond},
		WrapLink: func(from, to int32, l transport.Link) transport.Link {
			if from == crashed || to == crashed {
				return deadGate{inner: l, dead: &dead}
			}
			return l
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mods := make([]*testModule, size)
	if err := inst.LoadModuleAll(func(rank int32) broker.Module {
		mods[rank] = &testModule{cfg: Config{ChildTimeout: 300 * time.Millisecond}}
		return mods[rank]
	}); err != nil {
		t.Fatal(err)
	}
	sched.Run(simtime.Time(1 * time.Second))
	dead.Store(true)
	sched.Run(simtime.Time(5 * time.Second))
	if inst.Broker(7).CurrentParent() == crashed || inst.Broker(8).CurrentParent() == crashed {
		t.Fatal("orphans 7 and 8 did not reattach")
	}

	bodies, want := testRankBodies(size)
	delete(want, crashed)
	res, err := mods[0].echo.ReduceRanked(nil, nil, bodies, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Missing != 1 || res.Ranks != size-1 {
		t.Fatalf("post-heal: ranks=%d missing=%d partial=%v, want %d ranks and the crashed one missing", res.Ranks, res.Missing, res.Partial, size-1)
	}
	if !reflect.DeepEqual(res.Aggregate, want) {
		t.Fatalf("post-heal: ranks saw %v, want %v", res.Aggregate, want)
	}
	for r, m := range mods {
		if r != crashed {
			checkSplit(t, m.echo, bodies)
		}
	}
}

// nanReducers loads a rank-sum reducer on every rank of an instance;
// rank bad contributes NaN, an aggregate no reply can carry.
func nanReducers(t *testing.T, size int, loadAll func(func(int32) broker.Module) error, bad int32, cfg Config) []*Reducer[float64] {
	t.Helper()
	reducers := make([]*Reducer[float64], size)
	if err := loadAll(func(rank int32) broker.Module {
		return broker.ModuleFuncs{
			NameFn: "nan",
			InitFn: func(ctx *broker.Context) error {
				v := float64(rank)
				if rank == bad {
					v = math.NaN()
				}
				r, err := Register(ctx, "nan.sum", Op[float64]{
					Local: func(_, _ json.RawMessage) (float64, error) { return v, nil },
					Merge: func(a, b float64) (float64, error) { return a + b, nil },
				}, cfg)
				reducers[rank] = r
				return err
			},
		}
	}); err != nil {
		t.Fatal(err)
	}
	return reducers
}

// nanCases are the 7-rank binary tree's NaN placements: a leaf, an
// interior rank (whose merged aggregate carries the NaN for its whole
// subtree {1,3,4}) and the root.
var nanCases = []struct {
	bad          int32
	ranks, sum   int
	missingRanks int
}{
	{bad: 5, ranks: 6, sum: 21 - 5, missingRanks: 1},
	{bad: 1, ranks: 4, sum: 0 + 2 + 5 + 6, missingRanks: 3},
	{bad: 0, ranks: 0, sum: 0, missingRanks: 7},
}

func checkNaN(t *testing.T, label string, res Result[float64], ranks, sum, missing int) {
	t.Helper()
	if !res.Partial || res.Missing != missing || res.Ranks != ranks {
		t.Fatalf("%s: ranks=%d missing=%d partial=%v, want ranks=%d missing=%d", label, res.Ranks, res.Missing, res.Partial, ranks, missing)
	}
	if res.Aggregate != float64(sum) {
		t.Fatalf("%s: aggregate %v, want %d", label, res.Aggregate, sum)
	}
}

// TestReduceUnencodableAggregateCountsMissing: an aggregate that cannot
// be encoded costs exactly the ranks merged into it, answered at once
// rather than by the parent's timeout, at the root as at any other rank.
func TestReduceUnencodableAggregateCountsMissing(t *testing.T) {
	for _, tc := range nanCases {
		inst, err := broker.NewInstance(broker.InstanceOptions{Size: 7, Fanout: 2, Scheduler: simtime.NewScheduler()})
		if err != nil {
			t.Fatal(err)
		}
		reducers := nanReducers(t, 7, inst.LoadModuleAll, tc.bad, Config{})
		res, err := reducers[0].Reduce(nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkNaN(t, fmt.Sprintf("NaN on rank %d", tc.bad), res, tc.ranks, tc.sum, tc.missingRanks)
	}
}

// TestLiveReduceUnencodableAggregateCountsMissing is the live-TCP leg:
// a rank whose aggregate cannot be encoded still answers its parent, so
// the reduction returns well inside the child timeout.
func TestLiveReduceUnencodableAggregateCountsMissing(t *testing.T) {
	const timeout = 5 * time.Second
	for _, tc := range nanCases {
		li, err := broker.NewLiveInstance(broker.InstanceOptions{Size: 7, Fanout: 2})
		if err != nil {
			t.Fatal(err)
		}
		reducers := nanReducers(t, 7, li.LoadModuleAll, tc.bad, Config{ChildTimeout: timeout})
		start := time.Now()
		res, err := reducers[0].Reduce(nil, nil, timeout)
		elapsed := time.Since(start)
		li.Close()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("live, NaN on rank %d", tc.bad)
		checkNaN(t, label, res, tc.ranks, tc.sum, tc.missingRanks)
		if elapsed > timeout/5 {
			t.Fatalf("%s: took %v; the parent waited on its child's timeout", label, elapsed)
		}
	}
}

// reduceCountAllocsPerRank is the allocation count per rank of one
// whole-instance CountOp reduction over 64 simulated ranks (fanout 2),
// root included, rounded up: each rank's request and reply encode and
// decode, the child RPCs and futures, and the partition. It measured
// 23.3 (26.8 with the raw-message reply envelope).
const reduceCountAllocsPerRank = 24

// TestReduceCountAllocsPerRank pins the reducer's per-rank cost.
func TestReduceCountAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts vary")
	}
	const size = 64
	_, mods := simInstance(t, size, 2)
	allocs := testing.AllocsPerRun(50, func() {
		if res, err := mods[0].count.Reduce(nil, nil, 0); err != nil || res.Aggregate != size {
			t.Fatalf("count reduce: %+v, %v", res, err)
		}
	})
	perRank := allocs / size
	t.Logf("%.0f allocations, %.2f per rank", allocs, perRank)
	if perRank > reduceCountAllocsPerRank+1 {
		t.Fatalf("a whole-instance count reduction allocates %.2f times per rank, want at most %d", perRank, reduceCountAllocsPerRank+1)
	}
}
