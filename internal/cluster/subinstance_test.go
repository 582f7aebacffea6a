package cluster

import (
	"math"
	"testing"
	"time"

	"fluxpower/internal/core/powermgr"
	"fluxpower/internal/flux/broker"
	"fluxpower/internal/flux/job"
)

func TestSubInstanceRunsUserJobs(t *testing.T) {
	c := newLassen(t, 8)
	si, err := c.SpawnSubInstance(job.Spec{Name: "alloc", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(si.Ranks()) != 4 {
		t.Fatalf("allocation ranks: %v", si.Ranks())
	}
	// The parent sees one RUN job holding the allocation.
	rec, err := c.JM.Info(si.JobID)
	if err != nil || rec.State != job.StateRun {
		t.Fatalf("parent job: %+v err=%v", rec, err)
	}
	// The user runs their own queue inside: two jobs on the 4 nodes.
	a, err := si.Submit(job.Spec{App: "laghos", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := si.Submit(job.Spec{App: "laghos", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(60 * time.Second)
	if !si.Idle() {
		t.Fatal("sub-jobs never drained")
	}
	sa, ok := si.Stats(a)
	if !ok {
		t.Fatal("no stats for sub-job a")
	}
	sb, _ := si.Stats(b)
	// Both ran to completion, FCFS within the allocation.
	if math.Abs(sa.ExecSec()-12.55) > 0.5 || math.Abs(sb.ExecSec()-12.55) > 0.5 {
		t.Fatalf("sub-job times: %.2f %.2f", sa.ExecSec(), sb.ExecSec())
	}
	if sb.StartSec < sa.EndSec-0.2 {
		t.Fatalf("sub-job b started before a finished: %v < %v", sb.StartSec, sa.EndSec)
	}
	if math.Abs(sa.AvgNodePowerW-470) > 25 {
		t.Fatalf("sub-job power %.0f W", sa.AvgNodePowerW)
	}
	// Closing releases the allocation; the other 4 nodes were free all
	// along, so a full-cluster job can now run.
	if err := si.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _ = c.JM.Info(si.JobID)
	if rec.State != job.StateInactive {
		t.Fatalf("parent state after close: %v", rec.State)
	}
	if _, err := si.Submit(job.Spec{App: "laghos", Nodes: 1}); err == nil {
		t.Fatal("submit into closed instance succeeded")
	}
	id, _ := c.Submit(job.Spec{App: "laghos", Nodes: 8})
	if _, idle := c.RunUntilIdle(time.Minute); !idle {
		t.Fatal("post-close full-cluster job never ran")
	}
	st, _ := c.Stats(id)
	if st.ExecSec() == 0 {
		t.Fatal("post-close job has no stats")
	}
}

func TestSubInstanceRequiresFreeNodes(t *testing.T) {
	c := newLassen(t, 2)
	_, _ = c.Submit(job.Spec{App: "gemm", Nodes: 2})
	if _, err := c.SpawnSubInstance(job.Spec{Nodes: 2}); err == nil {
		t.Fatal("sub-instance spawned without free nodes")
	}
	// The failed spawn must not leave a queued zombie allocation.
	jobs, _ := c.JM.List()
	for _, j := range jobs {
		if j.Spec.App == InstanceApp && j.State == job.StateSched {
			t.Fatalf("zombie allocation request: %+v", j)
		}
	}
}

// TestUserLevelPowerPolicyInSubInstance is the paper's §I promise end to
// end: the system instance runs no power manager at all, but a user loads
// their own proportional-sharing manager inside their allocation with
// their own power budget — user-customized power management.
func TestUserLevelPowerPolicyInSubInstance(t *testing.T) {
	c := newLassen(t, 8)
	si, err := c.SpawnSubInstance(job.Spec{Name: "user-alloc", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The user's own power manager, budgeted at 4 x 1200 W.
	if err := si.Inst.LoadModuleAll(func(rank int32) broker.Module {
		return powermgr.New(powermgr.Config{
			Policy:     powermgr.PolicyProportional,
			GlobalCapW: 4 * 1200,
		})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := si.Submit(job.Spec{App: "gemm", Nodes: 4, RepFactor: 2}); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	// The user's manager capped the user's nodes: (1200-400)/4 = 200 W
	// per GPU on the allocation's hardware...
	for _, rank := range si.Ranks() {
		if got := c.Node(rank).EffectiveGPUCap(0); math.Abs(got-200) > 1e-9 {
			t.Fatalf("rank %d gpu cap %v, want 200 (user policy)", rank, got)
		}
	}
	// ...while nodes outside the allocation are untouched.
	outside := map[int32]bool{}
	for _, r := range si.Ranks() {
		outside[r] = true
	}
	for r := int32(0); r < 8; r++ {
		if outside[r] {
			continue
		}
		if c.Node(r).NodeCap() != 0 || c.Node(r).GPUCap(0) != 0 {
			t.Fatalf("rank %d outside the allocation was capped", r)
		}
	}
	if err := si.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSubInstanceEnergyAccounting(t *testing.T) {
	c := newLassen(t, 4)
	si, err := c.SpawnSubInstance(job.Spec{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := si.Submit(job.Spec{App: "quicksilver", Nodes: 2, SizeFactor: 5})
	c.RunFor(2 * time.Minute)
	st, ok := si.Stats(id)
	if !ok || st.EndSec == 0 {
		t.Fatalf("sub-job stats: %+v ok=%v", st, ok)
	}
	if st.EnergyPerNodeJ <= 0 || st.MaxNodePowerW < 500 {
		t.Fatalf("sub-job accounting: %+v", st)
	}
	// The parent allocation job's stats window is closed on Close.
	if err := si.Close(); err != nil {
		t.Fatal(err)
	}
	parent, _ := c.Stats(si.JobID)
	if parent.EndSec == 0 {
		t.Fatal("parent allocation stats window not closed")
	}
}

// TestSubInstanceSpawnedMidRun spawns a sub-instance while a cluster job
// runs and submits its sub-jobs at staggered instants. The sub-jobs run
// on parent nodes 2-5 through the allocation's rank map. Every job's
// timing and power are pinned to the bit.
func TestSubInstanceSpawnedMidRun(t *testing.T) {
	c := newLassen(t, 8)
	mainID, err := c.Submit(job.Spec{App: "quicksilver", Nodes: 2, SizeFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)
	si, err := c.SpawnSubInstance(job.Spec{Name: "mid-run-alloc", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := si.Submit(job.Spec{App: "laghos", Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(3 * time.Second)
	b, err := si.Submit(job.Spec{App: "gemm", Nodes: 2, RepFactor: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Minute)
	if len(c.RunningJobs()) != 0 || !si.Idle() {
		t.Fatalf("jobs never drained: running %v, sub-instance idle %v", c.RunningJobs(), si.Idle())
	}
	type pin struct {
		start, end, energy, maxW, avgW float64
	}
	check := func(name string, st JobStats, ok bool, want pin) {
		t.Helper()
		got := pin{st.StartSec, st.EndSec, st.EnergyPerNodeJ, st.MaxNodePowerW, st.AvgNodePowerW}
		if !ok || got != want {
			t.Errorf("%s: got %+v (ok %v), want %+v", name, got, ok, want)
		}
	}
	st, ok := c.Stats(mainID)
	check("cluster job", st, ok, pin{0, 51.2, 28992, 940, 566.2499999999949})
	st, ok = si.Stats(a)
	check("sub-job a", st, ok, pin{5, 17.6, 5982, 530, 474.76190476190584})
	st, ok = si.Stats(b)
	check("sub-job b", st, ok, pin{17.6, 72.4, 72824, 1520, 1328.9051094890388})
	if got := si.Ranks(); len(got) != 4 || got[0] != 2 {
		t.Fatalf("allocation ranks %v, want 2-5", got)
	}
	if err := si.Close(); err != nil {
		t.Fatal(err)
	}
}
