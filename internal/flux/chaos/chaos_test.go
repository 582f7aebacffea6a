package chaos_test

import (
	"strings"
	"testing"
	"time"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/chaos"
	"fluxpower/internal/simtime"
)

// simRig is a small simulated instance with an injector wired into every
// TBON link, the shape every unit test here needs.
type simRig struct {
	sched *simtime.Scheduler
	inst  *broker.Instance
	inj   *chaos.Injector
	live  *chaos.Liveness // rank-0 instance
}

func newSimRig(t *testing.T, size int, plan chaos.Plan) *simRig {
	t.Helper()
	sched := simtime.NewScheduler()
	inj := chaos.New(plan)
	inst, err := broker.NewInstance(broker.InstanceOptions{
		Size:      size,
		Scheduler: sched,
		WrapLink:  inj.WrapLink,
	})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	inj.Bind(sched)
	r := &simRig{sched: sched, inst: inst, inj: inj}
	if err := inst.LoadModuleAll(func(rank int32) broker.Module {
		l := chaos.NewLiveness(time.Second)
		if rank == 0 {
			r.live = l
		}
		return l
	}); err != nil {
		t.Fatalf("load liveness: %v", err)
	}
	return r
}

func hasViolation(vs []chaos.Violation, invariant string) bool {
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

func TestGeneratePlanDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := chaos.GeneratePlan(seed, 16, 60)
		b := chaos.GeneratePlan(seed, 16, 60)
		if a.String() != b.String() {
			t.Fatalf("seed %d: GeneratePlan not deterministic:\n%s\n%s", seed, a, b)
		}
		if len(a.Links) == 0 {
			t.Fatalf("seed %d: plan has no link rules: %s", seed, a)
		}
		for _, n := range a.Nodes {
			if n.Rank == 0 {
				t.Fatalf("seed %d: plan crashes/hangs rank 0: %s", seed, a)
			}
		}
	}
	if chaos.GeneratePlan(1, 16, 60).String() == chaos.GeneratePlan(2, 16, 60).String() {
		t.Fatal("distinct seeds produced identical plans")
	}
}

func TestDisarmedInjectorIsTransparent(t *testing.T) {
	// A plan that would break everything — but the injector is never armed.
	plan := chaos.Plan{Seed: 1, Links: []chaos.LinkRule{{
		From: chaos.AnyRank, To: chaos.AnyRank, DropProb: 1,
	}}}
	r := newSimRig(t, 4, plan)
	for rank := int32(0); rank < 4; rank++ {
		if _, err := r.inst.Root().CallTimeout(rank, "broker.ping", nil, time.Second); err != nil {
			t.Fatalf("disarmed ping rank %d: %v", rank, err)
		}
	}
	if s := r.inj.Stats(); s.Sent != 0 {
		t.Fatalf("disarmed injector counted traffic: %+v", s)
	}
}

func TestDropFaultBlocksCalls(t *testing.T) {
	plan := chaos.Plan{Seed: 2, Links: []chaos.LinkRule{{
		From: chaos.AnyRank, To: chaos.AnyRank, DropProb: 1,
	}}}
	r := newSimRig(t, 4, plan)
	r.inj.Arm()
	if _, err := r.inst.Root().CallTimeout(3, "broker.ping", nil, time.Second); err == nil {
		t.Fatal("call through a 100%-lossy fabric succeeded")
	}
	if s := r.inj.Stats(); s.Dropped == 0 {
		t.Fatalf("no drops counted: %+v", s)
	}
	r.inj.Disarm()
	if _, err := r.inst.Root().CallTimeout(3, "broker.ping", nil, time.Second); err != nil {
		t.Fatalf("ping after disarm: %v", err)
	}
}

func TestCrashWindowClears(t *testing.T) {
	plan := chaos.Plan{Seed: 3, Nodes: []chaos.NodeRule{{
		Rank: 1, Kind: chaos.FaultCrash, Window: chaos.Window{StartSec: 0, EndSec: 5},
	}}}
	r := newSimRig(t, 4, plan)
	r.inj.Arm()
	if _, err := r.inst.Root().CallTimeout(1, "broker.ping", nil, time.Second); err == nil {
		t.Fatal("call to crashed rank succeeded")
	}
	if s := r.inj.Stats(); s.CrashedIn == 0 {
		t.Fatalf("no crashed-in sends counted: %+v", s)
	}
	r.sched.Advance(6 * time.Second) // crash window [0,5) passes
	if _, err := r.inst.Root().CallTimeout(1, "broker.ping", nil, time.Second); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
}

func TestHungRankAcceptsButNeverResponds(t *testing.T) {
	plan := chaos.Plan{Seed: 4, Nodes: []chaos.NodeRule{{
		Rank: 2, Kind: chaos.FaultHang, Window: chaos.Window{StartSec: 0},
	}}}
	r := newSimRig(t, 4, plan)
	calls := 0
	if err := r.inst.Broker(2).LoadModule(broker.ModuleFuncs{
		NameFn: "hangprobe",
		InitFn: func(ctx *broker.Context) error {
			return ctx.RegisterService("hangprobe.touch", func(req *broker.Request) {
				calls++
				_ = req.Respond(nil)
			})
		},
	}); err != nil {
		t.Fatalf("load probe: %v", err)
	}
	r.inj.Arm()
	if _, err := r.inst.Root().CallTimeout(2, "hangprobe.touch", nil, time.Second); err == nil {
		t.Fatal("call to hung rank returned a response")
	}
	if calls != 1 {
		t.Fatalf("hung rank ran handler %d times, want 1 (accepts but never responds)", calls)
	}
}

func TestCorruptionKeepsFrameBreaksPayload(t *testing.T) {
	plan := chaos.Plan{Seed: 5, Links: []chaos.LinkRule{{
		From: chaos.AnyRank, To: chaos.AnyRank, CorruptProb: 1,
	}}}
	r := newSimRig(t, 2, plan)
	r.inj.Arm()
	// broker.ping ignores its request payload, so the message survives the
	// corrupted downward hop; the response payload is corrupted on the way
	// back up and must fail to unmarshal at the caller.
	resp, err := r.inst.Root().CallTimeout(1, "broker.ping", nil, time.Second)
	if err != nil {
		t.Fatalf("corrupted ping did not deliver: %v", err)
	}
	var body struct {
		Rank int32 `json:"rank"`
	}
	if err := resp.Unmarshal(&body); err == nil {
		t.Fatalf("corrupted payload unmarshaled cleanly: %s", resp.Payload)
	}
	if s := r.inj.Stats(); s.Corrupted == 0 {
		t.Fatalf("no corruptions counted: %+v", s)
	}
}

func TestReorderHoldsThenReleases(t *testing.T) {
	plan := chaos.Plan{Seed: 6, Links: []chaos.LinkRule{{
		From: chaos.AnyRank, To: chaos.AnyRank, ReorderProb: 1,
	}}}
	r := newSimRig(t, 2, plan)
	r.inj.Arm()
	// First request is held in the reorder slot: no inline response.
	if _, err := r.inst.Root().CallTimeout(1, "broker.ping", nil, time.Second); err == nil {
		t.Fatal("held message answered inline")
	}
	// Second request overtakes the held one and releases it behind itself.
	if _, err := r.inst.Root().CallTimeout(1, "broker.ping", nil, time.Second); err != nil {
		t.Fatalf("overtaking ping failed: %v", err)
	}
	if s := r.inj.Stats(); s.Reordered == 0 {
		t.Fatalf("no reorders counted: %+v", s)
	}
	// Let the flush timer and any late responses drain, then verify no
	// matchtag leaked from the held exchange.
	r.inj.Disarm()
	r.sched.Advance(time.Second)
	if vs := chaos.Check(chaos.CheckConfig{Brokers: r.inst.Brokers}); len(vs) > 0 {
		t.Fatalf("leak after reorder: %v", vs)
	}
}

func TestPartitionConservation(t *testing.T) {
	// Cutting rank 1 off a 4-node fanout-2 tree severs its subtree {1,3}:
	// the sweep must report exactly those as missing — never double-counted,
	// never silently absorbed.
	plan := chaos.Plan{Seed: 7, Partitions: []chaos.PartitionRule{{
		Ranks: []int32{1}, Window: chaos.Window{StartSec: 0},
	}}}
	r := newSimRig(t, 4, plan)
	r.inj.Arm()
	res, err := r.live.Sweep(nil, time.Second)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.Ranks+res.Missing != 4 {
		t.Fatalf("conservation broken: covered %d + missing %d != 4", res.Ranks, res.Missing)
	}
	if res.Missing != 2 || !res.Partial {
		t.Fatalf("partition of rank 1 subtree: got covered=%d missing=%d partial=%v",
			res.Ranks, res.Missing, res.Partial)
	}
	r.inj.Disarm()
	res, err = r.live.Sweep(nil, time.Second)
	if err != nil {
		t.Fatalf("healed sweep: %v", err)
	}
	if res.Ranks != 4 || res.Missing != 0 || res.Partial {
		t.Fatalf("after heal: covered=%d missing=%d partial=%v", res.Ranks, res.Missing, res.Partial)
	}
}

func TestInjectionDeterministic(t *testing.T) {
	// The same plan driven by the same traffic must produce byte-identical
	// injector stats — the property that makes a failing seed replayable.
	run := func() chaos.Stats {
		plan := chaos.Plan{Seed: 42, Links: []chaos.LinkRule{
			{From: chaos.AnyRank, To: chaos.AnyRank, DropProb: 0.3},
			{From: chaos.AnyRank, To: chaos.AnyRank, DupProb: 0.25, CorruptProb: 0.2},
		}}
		r := newSimRig(t, 8, plan)
		r.inj.Arm()
		for i := 0; i < 40; i++ {
			rank := int32(i % 8)
			_, _ = r.inst.Root().CallTimeout(rank, "broker.ping", nil, time.Second)
		}
		r.sched.Advance(2 * time.Second)
		return r.inj.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same plan, same traffic, different stats:\n%+v\n%+v", a, b)
	}
	if a.Dropped == 0 || a.Duplicated == 0 || a.Corrupted == 0 {
		t.Fatalf("scenario exercised nothing: %+v", a)
	}
}

func TestCheckerPassesOnHealthyInstance(t *testing.T) {
	r := newSimRig(t, 8, chaos.Plan{Seed: 8})
	for rank := int32(0); rank < 8; rank++ {
		if _, err := r.inst.Root().CallTimeout(rank, "broker.ping", nil, time.Second); err != nil {
			t.Fatalf("ping rank %d: %v", rank, err)
		}
	}
	r.sched.Advance(time.Second)
	vs := chaos.Check(chaos.CheckConfig{
		Brokers:            r.inst.Brokers,
		Injector:           r.inj,
		Liveness:           r.live,
		ExpectAllReachable: true,
	})
	if len(vs) > 0 {
		t.Fatalf("healthy instance flagged: %v", vs)
	}
}

// TestCheckerCatchesDeliberateMatchtagLeak breaks a broker on purpose —
// a service that accepts requests and never answers, probed with a
// deadline-less RPC whose future is never waited on — and asserts the
// invariant checker fires. This is the canary proving the leak detector
// actually detects leaks.
func TestCheckerCatchesDeliberateMatchtagLeak(t *testing.T) {
	r := newSimRig(t, 4, chaos.Plan{Seed: 9})
	if err := r.inst.Broker(1).LoadModule(broker.ModuleFuncs{
		NameFn: "blackhole",
		InitFn: func(ctx *broker.Context) error {
			return ctx.RegisterService("blackhole.swallow", func(req *broker.Request) {})
		},
	}); err != nil {
		t.Fatalf("load blackhole: %v", err)
	}
	// Deadline-less RPC, future abandoned: nothing will ever resolve or
	// reclaim this matchtag.
	_ = r.inst.Root().RPC(1, "blackhole.swallow", nil)
	r.sched.Advance(time.Second)

	vs := chaos.Check(chaos.CheckConfig{Brokers: r.inst.Brokers, Liveness: r.live})
	if !hasViolation(vs, "pending-rpcs") {
		t.Fatalf("checker missed the leaked pending future: %v", vs)
	}
	if !hasViolation(vs, "matchtag-accounting") {
		t.Fatalf("checker missed the matchtag accounting gap: %v", vs)
	}
	found := false
	for _, v := range vs {
		if v.Rank == 0 && strings.Contains(v.String(), "pending") {
			found = true
		}
	}
	if !found {
		t.Fatalf("leak not localized to the leaking rank: %v", vs)
	}
}

// TestCheckerCatchesDeadRankAck is the canary for the dead-rank-ack
// invariant: a stub power-manager.acks on rank 0 reports a cap-limit ack
// from rank 1 inside its planned crash window, and the checker must
// fire. Acks that fall only in the AckMarginSec band at the window's
// edges absorb delivery latency and must not.
func TestCheckerCatchesDeadRankAck(t *testing.T) {
	crash := chaos.Window{StartSec: 10, EndSec: 20}
	for _, tc := range []struct {
		name string
		acks []float64
		want int // dead-rank-ack violations
	}{
		{"inside-window", []float64{2, 15, 25}, 1},
		{"edge-margin-only", []float64{crash.StartSec + 0.03, crash.EndSec - 0.03}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newSimRig(t, 4, chaos.Plan{Seed: 9, Nodes: []chaos.NodeRule{
				{Rank: 1, Kind: chaos.FaultCrash, Window: crash},
			}})
			if err := r.inst.Root().LoadModule(broker.ModuleFuncs{
				NameFn: "power-manager",
				InitFn: func(ctx *broker.Context) error {
					return ctx.RegisterService("power-manager.acks", func(req *broker.Request) {
						_ = req.Respond(map[string]map[int32][]float64{"push_ack_sec": {1: tc.acks}})
					})
				},
			}); err != nil {
				t.Fatalf("load stub manager: %v", err)
			}
			vs := chaos.Check(chaos.CheckConfig{Brokers: r.inst.Brokers, Injector: r.inj, Manager: true})
			if hasViolation(vs, "probe-failed") {
				t.Fatalf("checker could not read the ack log: %v", vs)
			}
			got := 0
			for _, v := range vs {
				if v.Invariant == "dead-rank-ack" {
					got++
					if v.Rank != 1 {
						t.Fatalf("dead-rank-ack not localized to rank 1: %v", v)
					}
				}
			}
			if got != tc.want {
				t.Fatalf("%d dead-rank-ack violations, want %d: %v", got, tc.want, vs)
			}
		})
	}
}
