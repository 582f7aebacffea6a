package powermgr

import (
	"fmt"
	"testing"
	"time"

	"fluxpower/internal/flux/broker"
	"fluxpower/internal/hw"
	"fluxpower/internal/simtime"
)

// Allocation pins for the flat cap path, counted on a simulated
// instance: one pushAll of a 16-rank job (16 setlimit round trips, each
// enforced on its node and acknowledged), and one controller observe
// round over the same ranks. Each bound is the measured count + 1.
// Before the cap-path codec and the lazily made Future channel they
// measured 256 and 243.
const (
	capPushAllocs      = 114
	observeRoundAllocs = 147
)

func TestCapPushAllocsPerRank(t *testing.T) {
	const ranks = 16
	sched := simtime.NewScheduler()
	inst, err := broker.NewInstance(broker.InstanceOptions{
		Size:      ranks,
		Scheduler: sched,
		Local: func(rank int32) any {
			node, err := hw.NewNode(fmt.Sprintf("n%d", rank), hw.LassenConfig(), int64(rank)+1)
			if err != nil {
				t.Fatal(err)
			}
			return node
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var root *Manager
	if err := inst.LoadModuleAll(func(rank int32) broker.Module {
		m := New(Config{Policy: PolicyProportional, GlobalCapW: 1200 * ranks})
		if rank == 0 {
			root = m
		}
		return m
	}); err != nil {
		t.Fatal(err)
	}
	a := &Allocation{JobID: 1, PerNodeW: 1200, JobLimitW: 1200 * ranks, Policy: PolicyProportional}
	for r := int32(0); r < ranks; r++ {
		a.Ranks = append(a.Ranks, r)
	}
	root.allocs[a.JobID] = a
	push := []*Allocation{a}
	// Fill every rank's ack log first, so that its growth is not counted.
	for i := 0; i < maxAckTimes; i++ {
		root.pushAll(push)
	}
	sched.Advance(3 * time.Second) // one sample per node: observe replies carry a draw
	failures := root.pushFailures

	pushAllocs := testing.AllocsPerRun(100, func() { root.pushAll(push) })
	rounds := root.fleet.rounds
	observeAllocs := testing.AllocsPerRun(100, func() { root.onControllerInterval(sched.Now()) })
	if root.pushFailures != failures {
		t.Fatalf("%d setlimit pushes failed", root.pushFailures-failures)
	}
	if root.fleet.rounds-rounds != 101 {
		t.Fatalf("%d observe rounds completed, want 101", root.fleet.rounds-rounds)
	}
	t.Logf("pushAll of %d ranks: %.0f allocations (%.1f per rank); observe round: %.0f (%.1f per rank)",
		ranks, pushAllocs, pushAllocs/ranks, observeAllocs, observeAllocs/ranks)
	if pushAllocs > capPushAllocs+1 {
		t.Errorf("pushAll of a %d-rank job allocates %.0f times, want at most %d", ranks, pushAllocs, capPushAllocs+1)
	}
	if observeAllocs > observeRoundAllocs+1 {
		t.Errorf("an observe round over %d ranks allocates %.0f times, want at most %d", ranks, observeAllocs, observeRoundAllocs+1)
	}
}
