package reduce

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/simtime"
)

// sumPartial is a reduction partial with enough structure to verify
// which ranks contributed: the rank sum plus min/max of contributors.
type sumPartial struct {
	Sum int32 `json:"sum"`
	Min int32 `json:"min"`
	Max int32 `json:"max"`
}

// testModule registers a count reducer, a rank-sum reducer and a
// rank-body echo reducer on each broker, as a power module would in its
// Init.
type testModule struct {
	count *Reducer[int]
	sum   *Reducer[sumPartial]
	echo  *Reducer[map[int32]string]
	cfg   Config
}

func (m *testModule) Name() string    { return "reduce-test" }
func (m *testModule) Shutdown() error { return nil }

func (m *testModule) Init(ctx *broker.Context) error {
	var err error
	if m.count, err = Register(ctx, "reduce-test.count", CountOp(), m.cfg); err != nil {
		return err
	}
	rank := ctx.Rank()
	m.sum, err = Register(ctx, "reduce-test.sum", Op[sumPartial]{
		Local: func(_, _ json.RawMessage) (sumPartial, error) {
			return sumPartial{Sum: rank, Min: rank, Max: rank}, nil
		},
		Merge: func(a, b sumPartial) (sumPartial, error) {
			if b.Min < a.Min {
				a.Min = b.Min
			}
			if b.Max > a.Max {
				a.Max = b.Max
			}
			a.Sum += b.Sum
			return a, nil
		},
	}, m.cfg)
	if err != nil {
		return err
	}
	m.echo, err = Register(ctx, "reduce-test.echo", echoOp(rank), m.cfg)
	return err
}

// echoOp reports, per contributing rank, the rank body it received
// (empty when it received none). Merge refuses to see a rank twice.
func echoOp(rank int32) Op[map[int32]string] {
	return Op[map[int32]string]{
		Local: func(_, own json.RawMessage) (map[int32]string, error) {
			return map[int32]string{rank: string(own)}, nil
		},
		Merge: func(a, b map[int32]string) (map[int32]string, error) {
			out := make(map[int32]string, len(a)+len(b))
			for r, v := range a {
				out[r] = v
			}
			for r, v := range b {
				if _, dup := out[r]; dup {
					return nil, fmt.Errorf("rank %d contributed twice", r)
				}
				out[r] = v
			}
			return out, nil
		},
	}
}

// simInstance builds a deterministic instance with the test module on
// every rank, returning the per-rank modules.
func simInstance(t *testing.T, size, fanout int) (*broker.Instance, []*testModule) {
	t.Helper()
	sched := simtime.NewScheduler()
	inst, err := broker.NewInstance(broker.InstanceOptions{Size: size, Fanout: fanout, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	mods := make([]*testModule, size)
	if err := inst.LoadModuleAll(func(rank int32) broker.Module {
		mods[rank] = &testModule{}
		return mods[rank]
	}); err != nil {
		t.Fatal(err)
	}
	return inst, mods
}

func TestReduceWholeInstance(t *testing.T) {
	for _, tc := range []struct{ size, fanout int }{{1, 2}, {2, 2}, {13, 2}, {13, 4}, {64, 16}} {
		inst, mods := simInstance(t, tc.size, tc.fanout)
		_ = inst
		res, err := mods[0].count.Reduce(nil, nil, 0)
		if err != nil {
			t.Fatalf("size=%d k=%d: %v", tc.size, tc.fanout, err)
		}
		if res.Partial || res.Missing != 0 {
			t.Fatalf("size=%d k=%d: partial=%v missing=%d", tc.size, tc.fanout, res.Partial, res.Missing)
		}
		if res.Ranks != tc.size || res.Aggregate != tc.size {
			t.Fatalf("size=%d k=%d: ranks=%d aggregate=%d", tc.size, tc.fanout, res.Ranks, res.Aggregate)
		}

		sum, err := mods[0].sum.Reduce(nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := int32(tc.size * (tc.size - 1) / 2)
		if sum.Aggregate.Sum != want || sum.Aggregate.Min != 0 || sum.Aggregate.Max != int32(tc.size-1) {
			t.Fatalf("size=%d k=%d: sum aggregate %+v, want sum=%d", tc.size, tc.fanout, sum.Aggregate, want)
		}
	}
}

func TestReduceScopedTargets(t *testing.T) {
	_, mods := simInstance(t, 13, 2)
	targets := []int32{3, 7, 8, 12, 0}
	res, err := mods[0].sum.Reduce(targets, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Ranks != len(targets) {
		t.Fatalf("scoped reduce: %+v", res)
	}
	if res.Aggregate.Sum != 3+7+8+12 || res.Aggregate.Min != 0 || res.Aggregate.Max != 12 {
		t.Fatalf("scoped aggregate %+v", res.Aggregate)
	}
}

func TestReduceDuplicateAndInvalidTargets(t *testing.T) {
	_, mods := simInstance(t, 13, 2)
	res, err := mods[0].count.Reduce([]int32{5, 5, 5, -1, 99}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicates collapse; ranks outside [0,size) are ignored entirely.
	if res.Ranks != 1 || res.Aggregate != 1 || res.Partial {
		t.Fatalf("dedup reduce: %+v", res)
	}
}

func TestReduceFromInternalRankCoversSubtree(t *testing.T) {
	// Rank 1's subtree in a 13-rank binary tree: {1,3,4,7,8,9,10}.
	_, mods := simInstance(t, 13, 2)
	res, err := mods[1].count.Reduce(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := broker.SubtreeSize(1, 2, 13); res.Aggregate != want || res.Partial {
		t.Fatalf("subtree reduce: %+v, want %d ranks", res, want)
	}
	// A target outside the subtree is unreachable by downward routing.
	out, err := mods[1].count.Reduce([]int32{1, 2}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Partial || out.Missing != 1 || out.Aggregate != 1 {
		t.Fatalf("out-of-scope target: %+v", out)
	}
}

func TestReduceDeadInternalRankDegradesToPartial(t *testing.T) {
	// Unloading the module on internal rank 1 removes its reduction
	// service: its broker still routes, but the whole subtree's
	// contribution is lost and the aggregate must say so.
	inst, mods := simInstance(t, 13, 2)
	if err := inst.Broker(1).UnloadModule("reduce-test"); err != nil {
		t.Fatal(err)
	}
	res, err := mods[0].count.Reduce(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	lost := broker.SubtreeSize(1, 2, 13)
	if !res.Partial || res.Missing != lost {
		t.Fatalf("dead internal rank: partial=%v missing=%d, want %d missing", res.Partial, res.Missing, lost)
	}
	if res.Ranks != 13-lost || res.Aggregate != 13-lost {
		t.Fatalf("surviving ranks: %+v", res)
	}

	// Scoped to live ranks only, the reduction is complete again.
	ok, err := mods[0].count.Reduce([]int32{0, 2, 5, 6, 11, 12}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok.Partial || ok.Ranks != 6 {
		t.Fatalf("live-only scope: %+v", ok)
	}
}

func TestReduceLocalErrorCountsMissing(t *testing.T) {
	sched := simtime.NewScheduler()
	inst, err := broker.NewInstance(broker.InstanceOptions{Size: 3, Fanout: 2, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	var reducers []*Reducer[int]
	if err := inst.LoadModuleAll(func(rank int32) broker.Module {
		return broker.ModuleFuncs{
			NameFn: "flaky",
			InitFn: func(ctx *broker.Context) error {
				op := CountOp()
				if rank == 2 {
					op.Local = func(_, _ json.RawMessage) (int, error) { return 0, fmt.Errorf("sensor offline") }
				}
				r, err := Register(ctx, "flaky.count", op, Config{})
				reducers = append(reducers, r)
				return err
			},
		}
	}); err != nil {
		t.Fatal(err)
	}
	res, err := reducers[0].Reduce(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Missing != 1 || res.Aggregate != 2 {
		t.Fatalf("local error: %+v", res)
	}
}

func TestRegisterRejectsIncompleteOp(t *testing.T) {
	sched := simtime.NewScheduler()
	inst, err := broker.NewInstance(broker.InstanceOptions{Size: 1, Fanout: 2, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	bad := broker.ModuleFuncs{
		NameFn: "bad",
		InitFn: func(ctx *broker.Context) error {
			_, err := Register(ctx, "bad.op", Op[int]{}, Config{})
			return err
		},
	}
	if err := inst.Broker(0).LoadModule(bad); err == nil {
		t.Fatal("incomplete op registered")
	}
}

func TestSubtreeSize(t *testing.T) {
	for _, tc := range []struct {
		r    int32
		k    int
		size int32
		want int
	}{
		{0, 2, 13, 13}, {1, 2, 13, 7}, {2, 2, 13, 5}, {5, 2, 13, 3}, {6, 2, 13, 1},
		{12, 2, 13, 1}, {0, 16, 792, 792}, {1, 16, 792, 273},
		{13, 2, 13, 0}, {-1, 2, 13, 0},
	} {
		if got := broker.SubtreeSize(tc.r, tc.k, tc.size); got != tc.want {
			t.Fatalf("SubtreeSize(%d,%d,%d) = %d, want %d", tc.r, tc.k, tc.size, got, tc.want)
		}
	}
	// Subtree sizes of root's children plus root itself must tile the tree.
	for _, tc := range []struct {
		k    int
		size int32
	}{{2, 13}, {3, 40}, {16, 792}} {
		total := 1
		for _, c := range broker.ChildRanks(0, tc.k, tc.size) {
			total += broker.SubtreeSize(c, tc.k, tc.size)
		}
		if total != int(tc.size) {
			t.Fatalf("k=%d size=%d: subtrees tile to %d", tc.k, tc.size, total)
		}
	}
}

// TestLiveReduceHungInternalRank is the live-mode acceptance path: over
// real TCP links, an internal rank whose reduction handler hangs costs
// one deadline and takes its subtree out of the aggregate; the query
// itself still answers, flagged partial.
func TestLiveReduceHungInternalRank(t *testing.T) {
	const timeout = 200 * time.Millisecond
	li, err := broker.NewLiveInstance(broker.InstanceOptions{Size: 7, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	mods := make([]*testModule, 7)
	for rank := int32(0); rank < 7; rank++ {
		if rank == 1 {
			// Hung reduction service: requests arrive, no response ever.
			if err := li.Broker(1).RegisterService("reduce-test.count", func(*broker.Request) {}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		mods[rank] = &testModule{cfg: Config{ChildTimeout: timeout, HopMargin: 20 * time.Millisecond}}
		if err := li.Broker(rank).LoadModule(mods[rank]); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	res, err := mods[0].count.Reduce(nil, nil, timeout)
	if err != nil {
		t.Fatalf("reduction with hung internal rank failed outright: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 4*timeout {
		t.Fatalf("partial reduction took %v, want ~%v", elapsed, timeout)
	}
	lost := broker.SubtreeSize(1, 2, 7)
	if !res.Partial || res.Missing != lost {
		t.Fatalf("hung rank 1: partial=%v missing=%d, want %d", res.Partial, res.Missing, lost)
	}
	if res.Aggregate != 7-lost {
		t.Fatalf("aggregate %d, want %d", res.Aggregate, 7-lost)
	}
}

// TestLiveReduceComplete sanity-checks the healthy live path.
func TestLiveReduceComplete(t *testing.T) {
	li, err := broker.NewLiveInstance(broker.InstanceOptions{Size: 7, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	mods := make([]*testModule, 7)
	for rank := int32(0); rank < 7; rank++ {
		mods[rank] = &testModule{}
		if err := li.Broker(rank).LoadModule(mods[rank]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := mods[0].sum.Reduce(nil, nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Ranks != 7 || res.Aggregate.Sum != 21 {
		t.Fatalf("live reduce: %+v", res)
	}
}
